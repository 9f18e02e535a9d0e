// Package grid is the declarative experiment-grid layer: a Spec names
// the axes of a benchmark × budget × seed × CLS × machine × policy ×
// ablation grid plus a metric selection and a render layout, and the
// package compiles it onto the cell/pass machinery the whole stack is
// built from — deterministic versioned cell keys, fusion groups for
// runner.MapGroups, per-cell codec frames for the on-disk store and the
// serving wire format, and table/CSV/JSON rendering.
//
// Every table, figure, baseline and ablation of the paper's evaluation
// is a registered Spec (internal/expt registers them under names like
// "table1", "fig7" or "ablation/cls" with a section renderer), and a
// user-authored JSON Spec — a seed sweep at TU counts the paper never
// ran — executes through exactly the same path: Compile expands the
// axes to cells, Run resolves them through a shared Runner (memory
// cache, optional disk store, traversal fusion per (benchmark, budget,
// seed) group), and the layout renderer formats the values. The daemon
// serves the same Specs over POST /v1/grid; cells cross the wire as
// the codec frames the store persists, so remote and local renders are
// byte-identical.
package grid

import (
	"fmt"
	"strconv"

	"dynloop/internal/harness"
	"dynloop/internal/runner"
	"dynloop/internal/spec"
	"dynloop/internal/workload"
)

// Config parametrises a grid execution. It carries everything that is
// about HOW a grid runs (worker bound, shared runner, batch size) plus
// the defaults a Spec's zero-valued axes resolve to (budget, seed, CLS
// capacity, benchmark subset).
type Config struct {
	// Budget is the per-benchmark dynamic instruction budget a zero
	// Spec budget resolves to. 0 selects DefaultBudget. (The paper ran
	// the first 10^9 instructions; all our statistics stabilise far
	// below that on the synthetic workloads — see DESIGN.md.)
	Budget uint64
	// Seed decorrelates workload input sequences; 0 selects 1. A Spec
	// may sweep explicit seeds instead.
	Seed uint64
	// Benchmarks restricts the run to a subset (nil = all 18) when the
	// Spec does not name its own.
	Benchmarks []string
	// CLSCapacity overrides the CLS size (0 = the paper's 16) when the
	// Spec does not sweep it.
	CLSCapacity int
	// BatchSize overrides the interpreter's event-batch size
	// (0 = interp.DefaultBatchSize). Results are byte-identical at any
	// setting; the determinism tests sweep it.
	BatchSize int
	// Parallel bounds the worker goroutines when the run builds its
	// own runner (0 = GOMAXPROCS); 1 reproduces the sequential schedule.
	// Ignored when Runner is set.
	Parallel int
	// Runner, when non-nil, executes the grid's cells. The sharing
	// contract: one Runner may (and for dedup, should) be shared across
	// any number of Run and driver calls — the worker bound, the keyed
	// result cache and the optional disk tier are runner-wide, so
	// overlapping cells across grids are computed once. When nil, each
	// Run/driver call resolves ONE private runner for the whole call
	// (never one per internal stage) and its cache dies with the call;
	// nothing is deduplicated across calls.
	Runner *runner.Runner
	// OnEvent streams per-job progress when the run builds its own
	// runner. Ignored when Runner is set (configure it there instead).
	OnEvent func(runner.Event)
	// NoFuse disables traversal fusion: every cell runs its own private
	// interpreter traversal, as the pre-fusion drivers did. Results are
	// identical either way (each cell's pass owns its detector and
	// tables, so fusion shares only the read-only event stream); the
	// flag exists for the byte-identity regression tests and for A/B
	// benchmarking the fusion win.
	NoFuse bool
	// Reference runs interpreted traversals on the interpreter's
	// reference path (two-level switch, no predecode, no superinstruction
	// fusion; see interp.CPU.SetReference). Like NoFuse it cannot change
	// results — the two paths emit byte-identical streams, an equivalence
	// the grid regression tests pin — so it stays out of the cell key.
	Reference bool
	// FullPlanes disables control-plane event delivery: producers fill
	// full trace.Events even for traversals whose every pass is
	// control-only (see trace.PlanesOf). Like Reference it cannot change
	// results — the facet split is delivery-only, an equivalence the
	// regression tests pin — so it stays out of the cell key.
	FullPlanes bool
	// Shards spreads each fused traversal's passes over that many
	// goroutines (<= 1 delivers inline; see trace.Broadcast). Passes are
	// independent, so sharding changes wall-clock only, never results —
	// delivery-only like Reference, so it too stays out of the cell key.
	Shards int
	// Traces, when non-nil, is the replay tier: group executions that
	// miss the memory cache and the disk store record their instruction
	// stream into the trace archive on first interpretation, and every
	// later group over the same (benchmark, seed) whose budget the
	// recording covers replays the file instead of interpreting.
	// Results are byte-identical either way (pinned by the
	// replay-equivalence suite); like Runner, one Traces may be shared
	// across any number of runs.
	Traces *harness.Traces
}

// DefaultBudget is the per-benchmark instruction budget grids use
// unless configured otherwise.
const DefaultBudget = 4_000_000

func (c Config) budget() uint64 {
	if c.Budget == 0 {
		return DefaultBudget
	}
	return c.Budget
}

func (c Config) seed() uint64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// pool resolves the runner a grid execution submits its cells to. Run
// calls it exactly once per execution — every stage of one call (fused
// groups, composite oracle jobs) shares the same pool, so a nil
// Config.Runner costs one runner per call, not one per stage.
func (c Config) pool() *runner.Runner {
	if c.Runner != nil {
		return c.Runner
	}
	return runner.New(runner.Config{Workers: c.Parallel, OnEvent: c.OnEvent})
}

// benchmarks resolves the configured subset.
func (c Config) benchmarks() ([]workload.Benchmark, error) {
	if len(c.Benchmarks) == 0 {
		return workload.All(), nil
	}
	out := make([]workload.Benchmark, 0, len(c.Benchmarks))
	for _, name := range c.Benchmarks {
		bm, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, bm)
	}
	return out, nil
}

// CellSchemaVersion stamps every cell key. Because keys address the
// persistent result store (and the serving layer's wire queries), a
// change to what a cell MEANS — detector semantics, metric definitions,
// workload generation — must bump this version: the new keys then miss
// every previously persisted result instead of serving stale ones.
// Purely additive changes (new cell types, new key parts) don't need a
// bump; the new keys cannot collide with old ones.
//
// It is a variable only so the self-invalidation regression test can
// bump it; treat it as a constant everywhere else.
var CellSchemaVersion = 1

// cellKey builds a runner cache key: the schema version, the Config
// fields every run depends on, then the cell's own coordinates. Keys
// must determine the result (and its Go type) completely — see
// runner.Job. Each part is length-prefixed so adjacent parts cannot
// blur into a colliding key ("a","bc" vs "ab","c", or a part containing
// the delimiter).
//
// Keys are store and wire addresses, so their bytes are a contract:
// every part renders exactly as fmt.Sprint would render it. The
// encoder appends into one stack buffer without fmt, so a key costs one
// allocation — the final string. TestGoldenCellKeys pins the bytes of
// every registered grid's keys and FuzzCellKey diffs the encoder
// against the fmt rendering.
func (c Config) cellKey(parts ...any) string {
	var buf [keyBufLen]byte
	b := append(buf[:0], 'v')
	b = strconv.AppendInt(b, int64(CellSchemaVersion), 10)
	b = append(b, "|b"...)
	b = strconv.AppendUint(b, c.budget(), 10)
	b = append(b, "|s"...)
	b = strconv.AppendUint(b, c.seed(), 10)
	b = append(b, "|cls"...)
	b = strconv.AppendInt(b, int64(c.CLSCapacity), 10)
	b = append(b, "|ba"...)
	b = strconv.AppendInt(b, int64(c.BatchSize), 10)
	for _, p := range parts {
		b = appendKeyPart(b, p)
	}
	return string(b)
}

// keyBufLen sizes the stack buffer keys are built in; every key of the
// registered grids fits, and a longer one only grows onto the heap.
const keyBufLen = 160

// appendKeyPart appends "|<len>:<part>", the part rendered as
// fmt.Sprint renders it. The cases are the types cells pass; any other
// type falls back to fmt.
func appendKeyPart(b []byte, p any) []byte {
	var tmp [32]byte
	switch v := p.(type) {
	case string:
		return appendLenPrefixed(b, v)
	case int:
		return appendLenPrefixed(b, strconv.AppendInt(tmp[:0], int64(v), 10))
	case bool:
		return appendLenPrefixed(b, strconv.AppendBool(tmp[:0], v))
	case float64:
		return appendLenPrefixed(b, strconv.AppendFloat(tmp[:0], v, 'g', -1, 64))
	case spec.Policy:
		return appendLenPrefixed(b, v.AppendName(tmp[:0]))
	case spec.NestRule:
		return appendLenPrefixed(b, strconv.AppendUint(tmp[:0], uint64(v), 10))
	default:
		return appendLenPrefixed(b, fmt.Sprint(p))
	}
}

// appendLenPrefixed appends "|<len(s)>:<s>".
func appendLenPrefixed[S string | []byte](b []byte, s S) []byte {
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, ':')
	return append(b, s...)
}

// groupKey names a fusion group: everything that determines the
// instruction stream a cell's pass observes — the benchmark, the
// traversal budget, the input seed and the batch size. Cells of one
// execution sharing a group key run in one fused traversal; the
// per-pass knobs (policy, TU count, table capacities, even the CLS
// capacity) deliberately stay out.
func (c Config) groupKey(bench string, budget uint64) string {
	var buf [keyBufLen]byte
	return string(c.appendGroupKey(buf[:0], bench, budget))
}

// appendGroupKey appends "g|<len>:<bench>|b<budget>|s<seed>|ba<batch>".
func (c Config) appendGroupKey(b []byte, bench string, budget uint64) []byte {
	b = append(b, 'g')
	b = appendLenPrefixed(b, bench)
	b = append(b, "|b"...)
	b = strconv.AppendUint(b, budget, 10)
	b = append(b, "|s"...)
	b = strconv.AppendUint(b, c.seed(), 10)
	b = append(b, "|ba"...)
	return strconv.AppendInt(b, int64(c.BatchSize), 10)
}
