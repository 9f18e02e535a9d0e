package expt

import (
	"context"
	"fmt"
	"strings"

	"dynloop/internal/grid"
	"dynloop/internal/report"
	"dynloop/internal/runner"
	"dynloop/internal/spec"
)

// The canonical grids: every table, figure, baseline and ablation of
// the paper's evaluation is one registered grid.Spec plus the section
// renderer that formats it the way the paper lays it out. The registry
// is what the serving layer lists on GET /v1/grids and executes on
// POST /v1/grid, and what `dynloop grid -name` runs — each section of
// the report is an addressable, remotely servable grid.
func init() {
	reg := func(s grid.Spec, render func(*grid.Result) (string, error)) {
		grid.Register(grid.Entry{Spec: s, Render: render})
	}
	reg(grid.Spec{Name: "table1", Title: "Table 1: loop statistics", Kind: "table1"},
		func(res *grid.Result) (string, error) {
			rows, err := table1FromResult(res)
			if err != nil {
				return "", err
			}
			return RenderTable1(rows), nil
		})
	reg(grid.Spec{Name: "fig4", Title: "Figure 4: LET/LIT hit ratios vs table size",
		Kind: "fig4", TableSizes: Fig4Sizes},
		func(res *grid.Result) (string, error) {
			pts, err := fig4FromResult(res)
			if err != nil {
				return "", err
			}
			return RenderFig4(pts), nil
		})
	reg(grid.Spec{Name: "fig5", Title: "Figure 5: TPC for infinite TUs",
		Kind: "spec", BudgetDivs: []int{1, 4}, Policies: []string{"idle"}, TUs: []int{0}},
		func(res *grid.Result) (string, error) {
			rows, err := fig5FromResult(res)
			if err != nil {
				return "", err
			}
			return RenderFig5(rows), nil
		})
	reg(grid.Spec{Name: "fig6", Title: "Figure 6: TPC per program under STR",
		Kind: "spec", Policies: []string{"str"}, TUs: Fig6TUs},
		func(res *grid.Result) (string, error) {
			rows, err := fig6FromResult(res)
			if err != nil {
				return "", err
			}
			return RenderFig6(rows), nil
		})
	reg(grid.Spec{Name: "fig7", Title: "Figure 7: average TPC by policy",
		Kind: "spec", Policies: policyNames(Fig7Policies()), TUs: Fig6TUs},
		func(res *grid.Result) (string, error) {
			cells, err := fig7FromResult(res)
			if err != nil {
				return "", err
			}
			return RenderFig7(cells), nil
		})
	reg(grid.Spec{Name: "table2", Title: "Table 2: control speculation statistics",
		Kind: "spec", Policies: []string{"str3"}, TUs: []int{4}},
		func(res *grid.Result) (string, error) {
			rows, err := table2FromResult(res)
			if err != nil {
				return "", err
			}
			return RenderTable2(rows), nil
		})
	reg(grid.Spec{Name: "fig8", Title: "Figure 8: data speculation statistics", Kind: "fig8"},
		func(res *grid.Result) (string, error) {
			rows, avg, err := fig8FromResult(res)
			if err != nil {
				return "", err
			}
			return RenderFig8(rows, avg), nil
		})
	reg(grid.Spec{Name: "baseline/branch", Title: "Baseline: conventional branch prediction",
		Kind: "branchpred"},
		func(res *grid.Result) (string, error) {
			rows, err := baselineRows(res)
			if err != nil {
				return "", err
			}
			return RenderBaseline(rows), nil
		})
	reg(grid.Spec{Name: "baseline/task", Title: "Baseline: next-task prediction",
		Kind: "taskpred"},
		func(res *grid.Result) (string, error) {
			rows, err := taskPredRows(res)
			if err != nil {
				return "", err
			}
			return RenderTaskPred(rows), nil
		})
	reg(grid.Spec{Name: "ablation/cls", Title: "Ablation: CLS capacity", Kind: "clssize"},
		func(res *grid.Result) (string, error) {
			rows, err := clsSizeFromResult(res)
			if err != nil {
				return "", err
			}
			return RenderCLSSize(rows), nil
		})
	reg(grid.Spec{Name: "ablation/let", Title: "Ablation: speculation-engine LET capacity",
		Kind: "spec", Policies: []string{"str3"}, TUs: []int{4}, LETCaps: []int{2, 4, 8, 16, 0}},
		func(res *grid.Result) (string, error) {
			rows, err := letCapacityFromResult(res)
			if err != nil {
				return "", err
			}
			return RenderLETCapacity(rows), nil
		})
	reg(grid.Spec{Name: "ablation/replacement", Title: "Ablation: LRU vs nesting-aware insertion",
		Kind: "replacement"},
		func(res *grid.Result) (string, error) {
			rows, err := replacementFromResult(res)
			if err != nil {
				return "", err
			}
			return RenderReplacement(rows), nil
		})
	reg(grid.Spec{Name: "ablation/oneshots", Title: "Ablation: counting 1-iteration executions",
		Kind: "oneshots"},
		func(res *grid.Result) (string, error) {
			rows, err := oneShotsFromResult(res)
			if err != nil {
				return "", err
			}
			return RenderOneShots(rows), nil
		})
	reg(grid.Spec{Name: "ablation/nestrule", Title: "Ablation: STR(i) interpretation",
		Kind: "spec", Policies: []string{"str1", "str3"}, TUs: []int{4, 8},
		NestRules: []string{"starvation", "static"}},
		func(res *grid.Result) (string, error) {
			rows, err := nestRuleFromResult(res)
			if err != nil {
				return "", err
			}
			return RenderNestRule(rows), nil
		})
	reg(grid.Spec{Name: "ablation/exclusion", Title: "Ablation: §2.3.2 exclusion table",
		Kind: "spec", Policies: []string{"str3"}, TUs: []int{4},
		Exclusion: []grid.ExclusionSpec{{}, {Enabled: true, Threshold: 0.85}}},
		func(res *grid.Result) (string, error) {
			rows, err := exclusionFromResult(res)
			if err != nil {
				return "", err
			}
			return RenderExclusion(rows), nil
		})
	reg(grid.Spec{Name: "ablation/oracle", Title: "Ablation: STR vs oracle iteration counts",
		Kind: "oracle"},
		func(res *grid.Result) (string, error) {
			rows, err := oracleFromResult(res)
			if err != nil {
				return "", err
			}
			return RenderOracle(rows), nil
		})
	reg(grid.Spec{Name: "sweep", Title: "Sweep: benchmark × policy × TUs",
		Kind: "spec", Policies: policyNames(Fig7Policies()), TUs: Fig6TUs},
		func(res *grid.Result) (string, error) {
			rows, err := sweepFromResult(res)
			if err != nil {
				return "", err
			}
			return RenderSweep(rows), nil
		})
}

func baselineRows(res *grid.Result) ([]BaselineRow, error) {
	return rowsAs[BaselineRow](res, "baseline/branch")
}

func taskPredRows(res *grid.Result) ([]TaskPredRow, error) {
	return rowsAs[TaskPredRow](res, "baseline/task")
}

func policyNames(pols []spec.Policy) []string {
	out := make([]string, len(pols))
	for i, p := range pols {
		out[i] = p.String()
	}
	return out
}

// allSections is the paper-order section list of `experiment all`: each
// section names the registered grids it renders and how their outputs
// join.
var allSections = []struct {
	name    string
	entries []string
	sep     string
}{
	{"table1", []string{"table1"}, ""},
	{"fig4", []string{"fig4"}, ""},
	{"fig5", []string{"fig5"}, ""},
	{"fig6", []string{"fig6"}, ""},
	{"fig7", []string{"fig7"}, ""},
	{"table2", []string{"table2"}, ""},
	{"fig8", []string{"fig8"}, ""},
	{"baseline", []string{"baseline/branch", "baseline/task"}, "\n"},
	{"ablations", []string{
		"ablation/cls", "ablation/let", "ablation/replacement", "ablation/oneshots",
		"ablation/nestrule", "ablation/exclusion", "ablation/oracle"}, ""},
}

// All regenerates every table, figure, baseline and ablation of the
// evaluation — each one a registered grid spec — through one shared
// runner, so overlapping cells across grids are computed once, and
// returns the rendered report in the paper's order. The sections match
// `dynloop experiment all`. The runner is resolved exactly once here
// (see Config.Runner for the sharing contract).
func All(ctx context.Context, cfg Config) (string, error) {
	if cfg.Runner == nil {
		cfg.Runner = runner.New(runner.Config{Workers: cfg.Parallel, OnEvent: cfg.OnEvent})
	}
	var b strings.Builder
	for _, sec := range allSections {
		parts := make([]string, 0, len(sec.entries))
		for _, name := range sec.entries {
			e, ok := grid.Lookup(name)
			if !ok {
				return "", fmt.Errorf("expt: %s: grid %q not registered", sec.name, name)
			}
			res, err := grid.Run(ctx, cfg, e.Spec)
			if err != nil {
				return "", fmt.Errorf("expt: %s: %w", sec.name, err)
			}
			out, err := e.Render(res)
			if err != nil {
				return "", fmt.Errorf("expt: %s: %w", sec.name, err)
			}
			parts = append(parts, out)
		}
		b.WriteString(strings.Join(parts, sec.sep))
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// SweepSpec selects the grid a Sweep runs: every configured benchmark ×
// policy × machine size.
type SweepSpec struct {
	// Policies to grid over; nil selects the paper's five (IDLE, STR,
	// STR(1..3)).
	Policies []spec.Policy
	// TUs are the machine sizes; nil selects the paper's 2–16.
	TUs []int
}

func (s SweepSpec) policies() []spec.Policy {
	if len(s.Policies) == 0 {
		return Fig7Policies()
	}
	return s.Policies
}

func (s SweepSpec) tus() []int {
	if len(s.TUs) == 0 {
		return Fig6TUs
	}
	return s.TUs
}

// GridSpec lowers the sweep selection onto the registered "sweep" grid:
// the result keeps the name "sweep", so grid.RenderResult renders it
// with RenderSweep.
func (s SweepSpec) GridSpec() grid.Spec {
	e, _ := grid.Lookup("sweep")
	gs := e.Spec
	gs.Policies = policyNames(s.policies())
	gs.TUs = s.tus()
	return gs
}

// SweepRow is one cell of a Sweep grid.
type SweepRow struct {
	Bench  string
	Policy string
	TUs    int
	M      spec.Metrics
}

// Sweep runs an arbitrary benchmark × policy × TUs grid through the
// runner and returns one row per cell, in benchmark-major order — each
// benchmark's whole policy × TUs column fused into one traversal. It is
// the workhorse behind `dynloop sweep` and the scale-out benchmark.
func Sweep(ctx context.Context, cfg Config, sw SweepSpec) ([]SweepRow, error) {
	res, err := grid.Run(ctx, cfg, sw.GridSpec())
	if err != nil {
		return nil, err
	}
	return sweepFromResult(res)
}

func sweepFromResult(res *grid.Result) ([]SweepRow, error) {
	bms, pols, tus := res.Spec.Benchmarks, res.Spec.Policies, res.Spec.TUs
	if err := shape(res, len(bms)*len(pols)*len(tus), "sweep"); err != nil {
		return nil, err
	}
	ms := metrics(res)
	rows := make([]SweepRow, len(ms))
	i := 0
	for _, bm := range bms {
		for _, pol := range pols {
			for _, k := range tus {
				rows[i] = SweepRow{Bench: bm, Policy: pol, TUs: k, M: ms[i]}
				i++
			}
		}
	}
	return rows, nil
}

// RenderSweep formats a sweep grid.
func RenderSweep(rows []SweepRow) string {
	t := report.NewTable("Sweep: benchmark × policy × TUs",
		"bench", "policy", "TUs", "TPC", "hit %", "#spec.", "threads/spec")
	for _, r := range rows {
		t.AddRow(r.Bench, r.Policy, r.TUs, r.M.TPC(), r.M.HitRatio(), r.M.SpecEvents, r.M.ThreadsPerSpec())
	}
	return t.String()
}

// ParsePolicies turns CLI policy names (idle, str, strN — the canonical
// IDLE/STR/STR(N) forms work too) into policies.
func ParsePolicies(names []string) ([]spec.Policy, error) {
	return grid.ParsePolicies(names)
}
