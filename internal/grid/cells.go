package grid

import (
	"context"
	"fmt"
	"strconv"

	"dynloop/internal/branchpred"
	"dynloop/internal/builder"
	"dynloop/internal/datapred"
	"dynloop/internal/harness"
	"dynloop/internal/loopstats"
	"dynloop/internal/looptab"
	"dynloop/internal/spec"
	"dynloop/internal/taskpred"
	"dynloop/internal/trace"
	"dynloop/internal/workload"
)

// The cell result types. Each is one codec-registered value (see
// codecs.go): the runner cache holds them, the on-disk store persists
// their frames, and the wire format streams the same frames to remote
// clients. The experiment drivers in internal/expt alias the exported
// ones for their rows.

// Table1Row is one benchmark's loop statistics next to the paper's.
type Table1Row struct {
	Bench string
	S     loopstats.Summary
	Paper workload.PaperRow
}

// Fig4Cell is one benchmark's LET/LIT hit ratios at one table size.
type Fig4Cell struct {
	LET, LIT float64
}

// Fig8Row is one benchmark's data-speculation statistics.
type Fig8Row struct {
	Bench string
	S     datapred.Summary
}

// CLSCell is one benchmark's result at one CLS capacity.
type CLSCell struct {
	Evictions uint64
	AtCap     bool
	TPC       float64
}

// ReplCell is one benchmark's tracker result under one replacement
// policy at one table size.
type ReplCell struct {
	LET, LIT  float64
	Inhibited uint64
}

// OneShotRow compares Table-1 statistics with and without counting
// single-iteration executions.
type OneShotRow struct {
	Bench                  string
	WithIPE, WithoutIPE    float64 // iterations per execution
	WithExecs, WithoutExec uint64
}

// BaselineRow is one benchmark's conventional branch-prediction
// accuracies (BTFN, bimodal, gshare).
type BaselineRow struct {
	Bench   string
	Results []branchpred.Result
}

// TaskPredRow compares multiscalar-style next-task prediction against
// the paper's iteration-count speculation on one benchmark.
type TaskPredRow struct {
	Bench       string
	NextTaskPct float64
	Scored      uint64
	IterHitPct  float64
}

// OracleRow compares the STR policy against speculation with perfect
// iteration-count knowledge.
type OracleRow struct {
	Bench             string
	STRTPC, OracleTPC float64
	STRHit, OracleHit float64
}

// Coord is one cell's position on the grid's axes. Axes that do not
// apply to the cell's kind hold their zero values.
type Coord struct {
	Bench     string
	Budget    uint64 // resolved (post-default, post-divisor)
	Seed      uint64 // resolved
	CLS       int
	TableSize int
	Mode      string
	Policy    string
	TUs       int
	LETCap    int
	NestRule  string
	Exclusion ExclusionSpec
}

// Cell is one compiled experiment cell: its coordinates, the versioned
// cache key that addresses it in the runner, the store and the serving
// layer, and (server side) the pass or composite run that computes it.
type Cell struct {
	Coord Coord
	// Key is the cell's runner/store cache key (see Config.cellKey).
	Key string
	// Label is what progress events report.
	Label string

	bench workload.Benchmark
	cfg   Config // per-cell config: budget/seed/CLS resolved onto it
	// mk builds the cell's analysis pass plus the finish hook that
	// extracts its result once the traversal is finalised (fusable
	// kinds). Exactly one of mk and run is set.
	mk func() (trace.Pass, func() (any, error))
	// run computes a composite cell that owns its own traversals (the
	// oracle kind).
	run func(ctx context.Context) (any, error)
}

// Compile validates and resolves the spec under cfg and expands it to
// cells in canonical axis order — benchmarks outermost, then budgets ×
// budget_divs, seeds, cls, table_sizes, modes, policies, tus, let_caps,
// nest_rules, exclusion innermost. The expansion is deterministic: the
// same spec and config always yield the same cells in the same order,
// which is what lets a client rebuild a Result from a remote value
// stream, and what keeps every render byte-identical at any worker
// count.
func Compile(cfg Config, s Spec) ([]Cell, Spec, error) {
	rs, err := s.resolve(cfg)
	if err != nil {
		return nil, Spec{}, err
	}
	n := rs.size()
	if n > maxCells {
		return nil, Spec{}, fmt.Errorf("grid: spec expands to %d cells (max %d)", n, maxCells)
	}
	cells := make([]Cell, 0, n)
	for _, name := range rs.Benchmarks {
		bm, err := workload.ByName(name)
		if err != nil {
			return nil, Spec{}, err
		}
		for _, budget := range rs.Budgets {
			for _, div := range rs.BudgetDivs {
				for _, seed := range rs.Seeds {
					for _, cls := range rs.CLS {
						cellCfg := cfg
						if budget != 0 {
							cellCfg.Budget = budget
						}
						resolved := cellCfg.budget()
						cellCfg.Budget = resolved / uint64(div)
						if cellCfg.Budget == 0 {
							// A zero budget would silently resurrect
							// DefaultBudget in every later budget() call —
							// a full-budget traversal where the user asked
							// for a sliver.
							return nil, Spec{}, fmt.Errorf("grid: budget %d / divisor %d truncates to zero instructions",
								resolved, div)
						}
						if seed != 0 {
							cellCfg.Seed = seed
						}
						if cls != 0 {
							cellCfg.CLSCapacity = cls
						}
						coord := Coord{
							Bench:  bm.Name,
							Budget: cellCfg.budget(),
							Seed:   cellCfg.seed(),
							CLS:    cellCfg.CLSCapacity,
						}
						cells = appendKindCells(cells, rs, bm, cellCfg, coord)
					}
				}
			}
		}
	}
	return cells, rs, nil
}

// appendKindCells expands the kind-specific inner axes for one base
// coordinate. Key parts and labels reproduce the pre-grid drivers
// byte for byte, so grid cells deduplicate against (and serve from)
// everything those drivers ever cached or persisted.
func appendKindCells(cells []Cell, rs Spec, bm workload.Benchmark, cfg Config, coord Coord) []Cell {
	switch rs.Kind {
	case "spec":
		for _, polName := range rs.Policies {
			pol, _ := ParsePolicy(polName)
			for _, tus := range rs.TUs {
				for _, letCap := range rs.LETCaps {
					for _, nrName := range rs.NestRules {
						nr, _ := parseNestRule(nrName)
						for _, ex := range rs.Exclusion {
							ec := spec.Config{TUs: tus, Policy: pol, LETCapacity: letCap, NestRule: nr}
							if ex.Enabled {
								ec.Exclude = true
								ec.ExcludeThreshold = ex.Threshold
								ec.ExcludeMinResolved = ex.MinResolved
								ec.ExcludeCapacity = ex.Capacity
							}
							c := coord
							c.Policy, c.TUs, c.LETCap, c.NestRule, c.Exclusion = polName, tus, letCap, nrName, ex
							cells = append(cells, specEngineCell(cfg, bm, c, ec))
						}
					}
				}
			}
		}
	case "table1":
		cells = append(cells, Cell{
			Coord: coord,
			Key:   cfg.cellKey("table1", bm.Name),
			Label: "table1 " + bm.Name,
			bench: bm, cfg: cfg,
			mk: func() (trace.Pass, func() (any, error)) {
				c := loopstats.NewCollector()
				return harness.NewObserverPass(cfg.CLSCapacity, c),
					func() (any, error) {
						return Table1Row{Bench: bm.Name, S: c.Summary(), Paper: bm.Paper}, nil
					}
			},
		})
	case "fig4":
		for _, size := range rs.TableSizes {
			c := coord
			c.TableSize = size
			cells = append(cells, Cell{
				Coord: c,
				Key:   cfg.cellKey("fig4", size, bm.Name),
				Label: "fig4 " + bm.Name + "/" + strconv.Itoa(size) + " entries",
				bench: bm, cfg: cfg,
				mk: func() (trace.Pass, func() (any, error)) {
					tr := looptab.NewTracker(size, size)
					return harness.NewObserverPass(cfg.CLSCapacity, tr),
						func() (any, error) {
							let, _ := tr.LET.HitRatio()
							lit, _ := tr.LIT.HitRatio()
							return Fig4Cell{LET: let, LIT: lit}, nil
						}
				},
			})
		}
	case "fig8":
		cells = append(cells, Cell{
			Coord: coord,
			Key:   cfg.cellKey("fig8", bm.Name),
			Label: "fig8 " + bm.Name,
			bench: bm, cfg: cfg,
			mk: func() (trace.Pass, func() (any, error)) {
				c := datapred.NewCollector(datapred.Config{})
				return harness.NewObserverPass(cfg.CLSCapacity, c),
					func() (any, error) {
						return Fig8Row{Bench: bm.Name, S: c.Summary()}, nil
					}
			},
		})
	case "clssize":
		capEntries := cfg.CLSCapacity
		cells = append(cells, Cell{
			Coord: coord,
			Key:   cfg.cellKey("clssize", bm.Name),
			Label: "cls " + bm.Name + "/" + strconv.Itoa(capEntries) + " entries",
			bench: bm, cfg: cfg,
			mk: func() (trace.Pass, func() (any, error)) {
				ls := loopstats.NewCollector()
				e := spec.NewEngine(spec.Config{TUs: 4, Policy: spec.STRn(3)})
				det := harness.NewObserverPass(capEntries, ls, e)
				return det, func() (any, error) {
					ds := det.Stats()
					return CLSCell{
						Evictions: ds.Evictions,
						AtCap:     ds.MaxDepth >= capEntries,
						TPC:       e.Metrics().TPC(),
					}, nil
				}
			},
		})
	case "replacement":
		for _, size := range rs.TableSizes {
			for _, mode := range rs.Modes {
				nestingAware := mode == "nest"
				c := coord
				c.TableSize, c.Mode = size, mode
				cells = append(cells, Cell{
					Coord: c,
					Key:   cfg.cellKey("replacement", bm.Name, size, mode),
					Label: "replacement " + bm.Name + "/" + strconv.Itoa(size) + "/" + mode,
					bench: bm, cfg: cfg,
					mk: func() (trace.Pass, func() (any, error)) {
						tr := looptab.NewTracker(size, size)
						if nestingAware {
							tr.EnableNestingAware()
						}
						return harness.NewObserverPass(cfg.CLSCapacity, tr),
							func() (any, error) {
								let, _ := tr.LET.HitRatio()
								lit, _ := tr.LIT.HitRatio()
								return ReplCell{LET: let, LIT: lit, Inhibited: tr.LET.Inhibited() + tr.LIT.Inhibited()}, nil
							}
					},
				})
			}
		}
	case "oneshots":
		cells = append(cells, Cell{
			Coord: coord,
			Key:   cfg.cellKey("oneshots", bm.Name),
			Label: "oneshots " + bm.Name,
			bench: bm, cfg: cfg,
			mk: func() (trace.Pass, func() (any, error)) {
				with := loopstats.NewCollector()
				without := loopstats.NewCollector()
				without.CountOneShots = false
				return harness.NewObserverPass(cfg.CLSCapacity, with, without),
					func() (any, error) {
						w, wo := with.Summary(), without.Summary()
						return OneShotRow{
							Bench: bm.Name, WithIPE: w.ItersPerExec, WithoutIPE: wo.ItersPerExec,
							WithExecs: w.Execs, WithoutExec: wo.Execs,
						}, nil
					}
			},
		})
	case "branchpred":
		cells = append(cells, Cell{
			Coord: coord,
			Key:   cfg.cellKey("branchpred", bm.Name),
			Label: "branchpred " + bm.Name,
			bench: bm, cfg: cfg,
			mk: func() (trace.Pass, func() (any, error)) {
				suite := branchpred.DefaultSuite()
				return suite, func() (any, error) {
					return BaselineRow{Bench: bm.Name, Results: suite.Results()}, nil
				}
			},
		})
	case "taskpred":
		cells = append(cells, Cell{
			Coord: coord,
			Key:   cfg.cellKey("taskpred", bm.Name),
			Label: "taskpred " + bm.Name,
			bench: bm, cfg: cfg,
			mk: func() (trace.Pass, func() (any, error)) {
				tp := taskpred.New(taskpred.Config{})
				e := spec.NewEngine(spec.Config{TUs: 4, Policy: spec.STRn(3)})
				return harness.NewObserverPass(cfg.CLSCapacity, tp, e),
					func() (any, error) {
						acc, n := tp.Accuracy()
						return TaskPredRow{
							Bench:       bm.Name,
							NextTaskPct: acc,
							Scored:      n,
							IterHitPct:  e.Metrics().HitRatio(),
						}, nil
					}
			},
		})
	case "oracle":
		cells = append(cells, Cell{
			Coord: coord,
			Key:   cfg.cellKey("oracle", bm.Name),
			Label: "oracle " + bm.Name,
			bench: bm, cfg: cfg,
			run: oracleRun(cfg, bm),
		})
	}
	return cells
}

// specEngineCell is the shared benchmark × engine-configuration cell
// that Table 2, Figures 5–7, the sweep grid and several ablations are
// all built from; the cache key covers every spec.Config field so
// distinct configurations never collide, while identical cells
// submitted by different grids on a shared Runner are computed once.
// coord.Policy is ec.Policy's canonical name (resolve normalised it).
func specEngineCell(cfg Config, bm workload.Benchmark, coord Coord, ec spec.Config) Cell {
	return Cell{
		Coord: coord,
		Key: cfg.cellKey("spec", bm.Name, ec.TUs, ec.Policy, ec.LETCapacity, ec.NestRule,
			ec.Exclude, ec.ExcludeThreshold, ec.ExcludeMinResolved, ec.ExcludeCapacity),
		Label: bm.Name + " " + coord.Policy + "/" + strconv.Itoa(ec.TUs) + " TUs",
		bench: bm, cfg: cfg,
		mk: func() (trace.Pass, func() (any, error)) {
			e := spec.NewEngine(ec)
			return harness.NewObserverPass(cfg.CLSCapacity, e),
				func() (any, error) { return e.Metrics(), nil }
		},
	}
}

// oracleRun bounds the cost of iteration-count misprediction: a first
// traversal records every execution's true count, a second speculates
// with it. The oracle run depends on the recorder pass, so the cell is
// a composite job owning its own traversals, not a fusable pass.
func oracleRun(cfg Config, bm workload.Benchmark) func(ctx context.Context) (any, error) {
	mc := harness.MultiConfig{Budget: cfg.budget(), BatchSize: cfg.BatchSize,
		Shards: cfg.Shards, Reference: cfg.Reference, FullPlanes: cfg.FullPlanes}
	return func(ctx context.Context) (any, error) {
		// Both traversals route through the replay tier when configured:
		// the first records the stream (or replays an existing
		// recording), the second is then always a decode-only replay.
		// The unit is built lazily, and at most once, so a covered
		// archive serves the whole oracle cell without interpretation.
		var u *builder.Unit
		build := func() (*builder.Unit, error) {
			if u != nil {
				return u, nil
			}
			var err error
			if u, err = bm.Build(cfg.seed()); err != nil {
				return nil, fmt.Errorf("grid: build %s: %w", bm.Name, err)
			}
			return u, nil
		}
		multi := func(passes ...trace.Pass) error {
			if cfg.Traces != nil {
				_, _, err := cfg.Traces.MultiRun(ctx, bm.Name, cfg.seed(), build, mc, passes...)
				return err
			}
			uu, err := build()
			if err != nil {
				return err
			}
			_, err = harness.MultiRun(uu, mc, passes...)
			return err
		}
		rec := spec.NewOracleRecorder()
		if err := multi(harness.NewObserverPass(cfg.CLSCapacity, rec)); err != nil {
			return OracleRow{}, err
		}
		str := spec.NewEngine(spec.Config{TUs: 4, Policy: spec.STR()})
		oracle := spec.NewEngine(spec.Config{TUs: 4, Policy: spec.STR(), OracleIters: rec.Counts()})
		if err := multi(
			harness.NewObserverPass(cfg.CLSCapacity, str),
			harness.NewObserverPass(cfg.CLSCapacity, oracle)); err != nil {
			return OracleRow{}, err
		}
		mS, mO := str.Metrics(), oracle.Metrics()
		return OracleRow{
			Bench:  bm.Name,
			STRTPC: mS.TPC(), OracleTPC: mO.TPC(),
			STRHit: mS.HitRatio(), OracleHit: mO.HitRatio(),
		}, nil
	}
}
