package grid

import (
	"context"
	"fmt"
	"strconv"

	"dynloop/internal/builder"
	"dynloop/internal/harness"
	"dynloop/internal/runner"
	"dynloop/internal/spec"
	"dynloop/internal/trace"
)

// Result is an executed (or remotely fetched) grid: the resolved spec,
// the compiled cells and one value per cell, in cell order. Values hold
// the kind's codec-registered result type (spec.Metrics for kind
// "spec", Table1Row for "table1", ...).
type Result struct {
	Spec   Spec
	Cells  []Cell
	Values []any
}

// Value returns cell i's result; it exists for symmetry with the typed
// accessors the drivers build on top.
func (r *Result) Value(i int) any { return r.Values[i] }

// Run compiles the spec under cfg and resolves every cell through the
// runner — cached cells are served individually (memory first, then the
// optional disk store), missing cells execute fused per (benchmark,
// budget, seed) group: one unit build, one harness.MultiRun traversal
// feeding all of the group's passes, then each cell's finish hook.
// Composite kinds (oracle) run as plain jobs owning their traversals.
// Values return in cell order, byte-identical at any worker count and
// with fusion on or off.
//
// The runner is resolved exactly once per Run (see Config.Runner for
// the sharing contract); pass a shared Runner to deduplicate cells
// across grids.
func Run(ctx context.Context, cfg Config, s Spec) (*Result, error) {
	cells, rs, err := Compile(cfg, s)
	if err != nil {
		return nil, err
	}
	pool := cfg.pool()
	var values []any
	if rs.Kind == "oracle" {
		jobs := make([]runner.Job[any], len(cells))
		for i, c := range cells {
			jobs[i] = runner.Job[any]{Key: c.Key, Label: c.Label, Run: c.run}
		}
		values, err = runner.Map(ctx, pool, jobs)
	} else {
		values, err = runCells(ctx, cfg, pool, cells)
	}
	if err != nil {
		return nil, err
	}
	res := &Result{Spec: rs, Cells: cells, Values: values}
	if err := res.check(); err != nil {
		return nil, err
	}
	return res, nil
}

// runCells resolves fusable cells through runner.MapGroups: all
// cache-missing cells sharing a (benchmark, budget, seed, batch) group
// execute in a single fused traversal.
func runCells(ctx context.Context, cfg Config, pool *runner.Runner, cells []Cell) ([]any, error) {
	jobs := make([]runner.GroupJob[any], len(cells))
	for i := range cells {
		c := &cells[i]
		jobs[i] = runner.GroupJob[any]{Key: c.Key, Group: c.group(cfg.NoFuse, i), Label: c.Label}
	}
	exec := func(ctx context.Context, group string, idx []int) ([]any, error) {
		lead := cells[idx[0]]
		passes := make([]trace.Pass, len(idx))
		finish := make([]func() (any, error), len(idx))
		for j, i := range idx {
			passes[j], finish[j] = cells[i].mk()
		}
		mc := harness.MultiConfig{Budget: lead.cfg.budget(), BatchSize: lead.cfg.BatchSize,
			Shards: cfg.Shards, Reference: cfg.Reference, FullPlanes: cfg.FullPlanes}
		var err error
		if tr := cfg.Traces; tr != nil {
			// Third tier: replay the group's recorded stream when the
			// archive covers it; otherwise interpret once while recording.
			// The unit is only built on the record path.
			build := func() (*builder.Unit, error) {
				u, err := lead.bench.Build(lead.cfg.seed())
				if err != nil {
					return nil, fmt.Errorf("grid: build %s: %w", lead.bench.Name, err)
				}
				return u, nil
			}
			var replayed bool
			if _, replayed, err = tr.MultiRun(ctx, lead.bench.Name, lead.cfg.seed(), build, mc, passes...); err != nil {
				return nil, err
			}
			pool.CountTraceRun(replayed)
		} else {
			u, err := lead.bench.Build(lead.cfg.seed())
			if err != nil {
				return nil, fmt.Errorf("grid: build %s: %w", lead.bench.Name, err)
			}
			if _, err := harness.MultiRun(u, mc, passes...); err != nil {
				return nil, err
			}
		}
		out := make([]any, len(idx))
		for j, f := range finish {
			if out[j], err = f(); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	return runner.MapGroups(ctx, pool, jobs, exec)
}

// group is the fusion group cell i of an execution joins: its
// groupKey, or with noFuse a group of its own ("<groupKey>|cell<i>").
func (c *Cell) group(noFuse bool, i int) string {
	if !noFuse {
		return c.cfg.groupKey(c.bench.Name, c.cfg.budget())
	}
	var buf [keyBufLen]byte
	b := c.cfg.appendGroupKey(buf[:0], c.bench.Name, c.cfg.budget())
	b = append(b, "|cell"...)
	return string(strconv.AppendInt(b, int64(i), 10))
}

// ResultFrom rebuilds a Result from a value stream computed elsewhere
// (the serving layer returns values in cell order; the spec expansion
// is deterministic, so client and daemon agree on what each value is).
// It re-validates shape and value types, so a skewed or truncated
// stream fails loudly instead of rendering garbage.
func ResultFrom(cfg Config, s Spec, values []any) (*Result, error) {
	cells, rs, err := Compile(cfg, s)
	if err != nil {
		return nil, err
	}
	if len(values) != len(cells) {
		return nil, fmt.Errorf("grid: %d values for %d cells", len(values), len(cells))
	}
	res := &Result{Spec: rs, Cells: cells, Values: values}
	if err := res.check(); err != nil {
		return nil, err
	}
	return res, nil
}

// check verifies every value carries the kind's result type. A cache
// key determines its result type, so a mismatch means a stale or
// foreign value sneaked in — fail loudly rather than render nonsense.
func (r *Result) check() error {
	ok := kindTypeCheck(r.Spec.Kind)
	for i, v := range r.Values {
		if !ok(v) {
			return fmt.Errorf("grid: cell %d (%s) holds %T, not the %q result type",
				i, r.Cells[i].Label, v, r.Spec.Kind)
		}
	}
	return nil
}

func kindTypeCheck(kind string) func(any) bool {
	switch kind {
	case "spec":
		return func(v any) bool { _, ok := v.(spec.Metrics); return ok }
	case "table1":
		return func(v any) bool { _, ok := v.(Table1Row); return ok }
	case "fig4":
		return func(v any) bool { _, ok := v.(Fig4Cell); return ok }
	case "fig8":
		return func(v any) bool { _, ok := v.(Fig8Row); return ok }
	case "clssize":
		return func(v any) bool { _, ok := v.(CLSCell); return ok }
	case "replacement":
		return func(v any) bool { _, ok := v.(ReplCell); return ok }
	case "oneshots":
		return func(v any) bool { _, ok := v.(OneShotRow); return ok }
	case "branchpred":
		return func(v any) bool { _, ok := v.(BaselineRow); return ok }
	case "taskpred":
		return func(v any) bool { _, ok := v.(TaskPredRow); return ok }
	case "oracle":
		return func(v any) bool { _, ok := v.(OracleRow); return ok }
	default:
		return func(any) bool { return false }
	}
}
