// Command dynloop explores the reproduction from the terminal: list the
// workloads, run the loop detector over one of them, run the thread
// speculation model, or regenerate any of the paper's tables and figures.
//
// Usage:
//
//	dynloop list
//	dynloop run    -bench swim [-n 4000000] [-seed 1]
//	dynloop spec   -bench swim [-tus 4] [-policy str3] [-n 4000000]
//	dynloop data   -bench li [-n 4000000]
//	dynloop analyze -bench swim [-passes stats,spec,data,branch,task,tables] [-shards K]
//	dynloop disasm -bench perl [-max 80]
//	dynloop experiment table1|table2|fig4|fig5|fig6|fig7|fig8|ablations|all
//	                   [-n 4000000] [-bench a,b,c] [-seed 1] [-parallel N] [-progress]
//	                   [-store DIR]
//	dynloop sweep      [-bench a,b] [-policy str,str3] [-tus 2,4,8] [-parallel N]
//	                   [-store DIR] [-remote URL]
//	dynloop grid       -spec FILE | -name NAME | -list [-remote URL] [-store DIR]
//	                   [-bench a,b] [-n N] [-seed N] [-parallel N] [-format table|csv|json]
//	dynloop serve      [-addr 127.0.0.1:9090] [-store DIR] [-parallel N]
//	                   [-log text|json|off] [-pprof 127.0.0.1:6060]
//	dynloop soak       -remote URL [-clients N] [-duration 10s] [-o FILE]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for serve -pprof
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"dynloop"
	"dynloop/internal/client"
	"dynloop/internal/expt"
	"dynloop/internal/harness"
	"dynloop/internal/interp"
	"dynloop/internal/report"
	"dynloop/internal/runner"
	"dynloop/internal/server"
	"dynloop/internal/store"
	"dynloop/internal/taskpred"
	"dynloop/internal/trace"
	"dynloop/internal/tracefile"
	"dynloop/internal/wire"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// Ctrl-C cancels in-flight experiment grids instead of killing the
	// process mid-table.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "run":
		err = cmdRun(os.Args[2:])
	case "spec":
		err = cmdSpec(os.Args[2:])
	case "data":
		err = cmdData(os.Args[2:])
	case "disasm":
		err = cmdDisasm(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "experiment":
		err = cmdExperiment(ctx, os.Args[2:])
	case "sweep":
		err = cmdSweep(ctx, os.Args[2:])
	case "grid":
		err = cmdGrid(ctx, os.Args[2:])
	case "grids":
		err = cmdGrid(ctx, append([]string{"-list"}, os.Args[2:]...))
	case "serve":
		err = cmdServe(ctx, os.Args[2:])
	case "soak":
		err = cmdSoak(ctx, os.Args[2:])
	case "trace":
		err = cmdTrace(ctx, os.Args[2:])
	case "store":
		err = cmdStore(ctx, os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "dynloop: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynloop:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `dynloop — dynamic loop detection & thread speculation (HPCA'98 reproduction)

commands:
  list                               list the 18 SPEC95-calibrated workloads
  run    -bench NAME [-n N]          run the loop detector, print Table-1 stats
  spec   -bench NAME [-tus K] [-policy idle|str|str1|str2|str3] [-n N]
                                     run the speculation model, print metrics
  data   -bench NAME [-n N]          run the Figure-8 data-speculation stats
  analyze -bench NAME [-passes stats,spec,data,branch,task,tables] [-shards K]
                                     run several analyses as fused passes over
                                     ONE traversal of the benchmark's stream
  disasm -bench NAME [-max LINES]    disassemble the generated program
  experiment WHAT [-n N] [-bench a,b,...] [-parallel N] [-progress]
                                     regenerate paper tables/figures:
                                     table1 table2 fig4 fig5 fig6 fig7 fig8
                                     baseline ablations all
  sweep  [-bench a,b,...] [-policy p1,p2,...] [-tus 2,4,...]
         [-n N] [-parallel N] [-progress] [-remote URL]
         [-shards K] [-reference] [-fullplanes]
                                     run an arbitrary benchmark × policy × TUs
                                     grid through the parallel orchestrator,
                                     locally or on a dynloop serve daemon
  grid   -spec FILE | -name NAME | -list
         [-bench a,b,...] [-n N] [-seed N] [-parallel N] [-progress]
         [-store DIR] [-remote URL] [-format table|csv|json]
         [-shards K] [-reference] [-fullplanes]
                                     execute a declarative grid spec — a JSON
                                     file sweeping any axes (benchmarks,
                                     budgets, seeds, CLS, TUs, policies,
                                     ablation knobs) or a registered spec
                                     (table1, fig7, ablation/cls, ...; -list
                                     shows them) — locally or on a daemon
  serve  [-addr HOST:PORT] [-store DIR] [-parallel N] [-max-inflight N]
         [-warm specs|all] [-warm-bench a,b] [-queue-wait D]
         [-compact-ratio F] [-log text|json|off] [-pprof HOST:PORT]
                                     run the grid-serving HTTP daemon: clients
                                     share one worker pool, one result cache
                                     and one persistent store (SIGINT shuts
                                     down gracefully); exposes Prometheus
                                     metrics at GET /metrics, structured
                                     request logs with -log, and net/http/pprof
                                     on a separate -pprof listener
  soak   -remote URL [-clients N] [-duration D] [-o FILE]
                                     sustain N concurrent clients against a
                                     daemon, then report rps and p50/p99 from
                                     the daemon's /metrics histograms and
                                     check the scrape reconciles with /v1/stats
  trace  record -traces DIR [-bench a,b] [-n N] [-seed N]
                                     warm a trace archive (one recording per
                                     benchmark; covered benchmarks replay)
  trace  ls|verify -traces DIR       list / fully verify a trace archive
  store  ls|stats -store DIR         list segments / print store counters
  store  verify -store DIR           audit every record CRC and every index
                                     sidecar against the data it indexes
  store  compact -store DIR          rewrite live records densely, reclaim
                                     superseded space
  store  gen -store DIR [-keys N] [-rounds R] [-valbytes B] [-seed S]
                                     write a synthetic garbage-heavy store
                                     (smoke tests, compaction benchmarks)
  replay -traces DIR [-tus K] [-policy P]
                                     drive the detector + engine from every
                                     recording in a trace archive

experiment, sweep, grid and serve also take -store DIR to persist every
computed cell in an on-disk result store and serve repeat cells from it,
and -traces DIR to record each (benchmark, seed) instruction stream once
and replay it for every later cold group instead of re-interpreting;
analyze, experiment, sweep, grid and serve take -cpuprofile FILE /
-memprofile FILE to dump pprof profiles of the run.
`)
}

func cmdList() error {
	t := report.NewTable("Workloads (paper values: Table 1 & 2 of Tubella/González HPCA'98)",
		"name", "suite", "paper TPC@4", "paper hit%", "description")
	for _, bm := range dynloop.Benchmarks() {
		t.AddRow(bm.Name, bm.Suite, bm.Paper.TPC4, bm.Paper.HitRatio, bm.Description)
	}
	fmt.Print(t.String())
	return nil
}

// benchFlags adds the common -bench/-n/-seed/-batch flags.
func benchFlags(fs *flag.FlagSet) (bench *string, n *uint64, seed *uint64, batch *int) {
	bench = fs.String("bench", "", "benchmark name (see: dynloop list)")
	n = fs.Uint64("n", expt.DefaultBudget, "dynamic instruction budget")
	seed = fs.Uint64("seed", 1, "workload input seed")
	batch = fs.Int("batch", 0, "event-batch size (0 = default 1024; results are identical at any size)")
	return
}

func buildBench(name string, seed uint64) (*dynloop.Unit, error) {
	if name == "" {
		return nil, fmt.Errorf("missing -bench (try: dynloop list)")
	}
	bm, err := dynloop.BenchmarkByName(name)
	if err != nil {
		return nil, err
	}
	return bm.Build(seed)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	bench, n, seed, batch := benchFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	u, err := buildBench(*bench, *seed)
	if err != nil {
		return err
	}
	stats := dynloop.NewLoopStats()
	res, err := dynloop.Run(u, dynloop.RunConfig{Budget: *n, BatchSize: *batch}, stats)
	if err != nil {
		return err
	}
	s := stats.Summary()
	ds := res.Detector.Stats()
	t := report.NewTable(fmt.Sprintf("%s: %d instructions", *bench, res.Executed),
		"metric", "value")
	t.AddRow("static loops", s.StaticLoops)
	t.AddRow("executions", s.Execs)
	t.AddRow("iterations", s.Iters)
	t.AddRow("iter/exec", s.ItersPerExec)
	t.AddRow("instr/iter", s.InstrPerIter)
	t.AddRow("avg nesting", s.AvgNesting)
	t.AddRow("max nesting", s.MaxNesting)
	t.AddRow("in-loop fraction", s.InLoopFrac)
	t.AddRow("one-shot executions", ds.OneShots)
	t.AddRow("CLS evictions", ds.Evictions)
	fmt.Print(t.String())
	return nil
}

func parsePolicy(s string) (dynloop.Policy, error) {
	switch strings.ToLower(s) {
	case "idle":
		return dynloop.Idle(), nil
	case "str":
		return dynloop.STR(), nil
	case "str1":
		return dynloop.STRn(1), nil
	case "str2":
		return dynloop.STRn(2), nil
	case "str3":
		return dynloop.STRn(3), nil
	default:
		return dynloop.Policy{}, fmt.Errorf("unknown policy %q (idle|str|str1|str2|str3)", s)
	}
}

func cmdSpec(args []string) error {
	fs := flag.NewFlagSet("spec", flag.ExitOnError)
	bench, n, seed, batch := benchFlags(fs)
	tus := fs.Int("tus", 4, "thread units (0 = infinite machine)")
	polName := fs.String("policy", "str3", "speculation policy")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pol, err := parsePolicy(*polName)
	if err != nil {
		return err
	}
	u, err := buildBench(*bench, *seed)
	if err != nil {
		return err
	}
	e := dynloop.NewEngine(dynloop.EngineConfig{TUs: *tus, Policy: pol})
	res, err := dynloop.Run(u, dynloop.RunConfig{Budget: *n, BatchSize: *batch}, e)
	if err != nil {
		return err
	}
	m := e.Metrics()
	t := report.NewTable(fmt.Sprintf("%s: %s, %d TUs, %d instructions", *bench, pol, *tus, res.Executed),
		"metric", "value")
	t.AddRow("TPC", m.TPC())
	t.AddRow("cycles", m.Cycles)
	t.AddRow("speculation events", m.SpecEvents)
	t.AddRow("threads spawned", m.ThreadsSpawned)
	t.AddRow("threads promoted", m.ThreadsPromoted)
	t.AddRow("threads squashed", m.ThreadsSquashed)
	t.AddRow("threads flushed", m.ThreadsFlushed)
	t.AddRow("threads/spec", m.ThreadsPerSpec())
	t.AddRow("hit ratio %", m.HitRatio())
	t.AddRow("instr to verif", m.InstrToVerif())
	fmt.Print(t.String())
	return nil
}

func cmdData(args []string) error {
	fs := flag.NewFlagSet("data", flag.ExitOnError)
	bench, n, seed, batch := benchFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	u, err := buildBench(*bench, *seed)
	if err != nil {
		return err
	}
	c := dynloop.NewDataStats()
	res, err := dynloop.Run(u, dynloop.RunConfig{Budget: *n, BatchSize: *batch}, c)
	if err != nil {
		return err
	}
	s := c.Summary()
	t := report.NewTable(fmt.Sprintf("%s: data speculation statistics, %d instructions", *bench, res.Executed),
		"metric", "value")
	t.AddRow("loops with iterations", s.Loops)
	t.AddRow("evaluated iterations", s.Iters)
	t.AddRow("same path %", s.SamePathPct)
	t.AddRow("live-in regs predicted %", s.LrPredPct)
	t.AddRow("live-in mem predicted %", s.LmPredPct)
	t.AddRow("all regs correct %", s.AllLrPct)
	t.AddRow("all mem correct %", s.AllLmPct)
	t.AddRow("all data correct %", s.AllDataPct)
	fmt.Print(t.String())
	return nil
}

// cmdAnalyze runs several analyses as fused passes over one traversal of
// a benchmark's instruction stream — the CLI surface of the pass
// framework (dynloop.MultiRun).
func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	bench, n, seed, batch := benchFlags(fs)
	passNames := fs.String("passes", "stats,spec,data,branch,task,tables",
		"comma-separated analyses to fuse (stats,spec,data,branch,task,tables)")
	tus := fs.Int("tus", 4, "thread units for the spec pass")
	polName := fs.String("policy", "str3", "speculation policy for the spec pass")
	shards := fs.Int("shards", 0, "fan the passes across K goroutines (0/1 = inline)")
	profile := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfile, err := profile()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintln(os.Stderr, "dynloop: profile:", err)
		}
	}()
	u, err := buildBench(*bench, *seed)
	if err != nil {
		return err
	}
	var passes []dynloop.Pass
	var printers []func()
	for _, name := range strings.Split(*passNames, ",") {
		switch strings.ToLower(strings.TrimSpace(name)) {
		case "stats":
			stats := dynloop.NewLoopStats()
			det := dynloop.NewObserverPass(0, stats)
			passes = append(passes, det)
			printers = append(printers, func() {
				s, ds := stats.Summary(), det.Stats()
				t := report.NewTable("loop statistics (Table 1)", "metric", "value")
				t.AddRow("static loops", s.StaticLoops)
				t.AddRow("iter/exec", s.ItersPerExec)
				t.AddRow("instr/iter", s.InstrPerIter)
				t.AddRow("avg nesting", s.AvgNesting)
				t.AddRow("max nesting", s.MaxNesting)
				t.AddRow("one-shot executions", ds.OneShots)
				fmt.Print(t.String())
			})
		case "spec":
			pol, err := parsePolicy(*polName)
			if err != nil {
				return err
			}
			e := dynloop.NewEngine(dynloop.EngineConfig{TUs: *tus, Policy: pol})
			passes = append(passes, dynloop.NewObserverPass(0, e))
			printers = append(printers, func() {
				m := e.Metrics()
				t := report.NewTable(fmt.Sprintf("speculation (%s, %d TUs)", pol, *tus), "metric", "value")
				t.AddRow("TPC", m.TPC())
				t.AddRow("hit ratio %", m.HitRatio())
				t.AddRow("threads/spec", m.ThreadsPerSpec())
				fmt.Print(t.String())
			})
		case "data":
			c := dynloop.NewDataStats()
			passes = append(passes, dynloop.NewObserverPass(0, c))
			printers = append(printers, func() {
				s := c.Summary()
				t := report.NewTable("data speculation (Figure 8)", "metric", "value")
				t.AddRow("same path %", s.SamePathPct)
				t.AddRow("live-in regs predicted %", s.LrPredPct)
				t.AddRow("live-in mem predicted %", s.LmPredPct)
				t.AddRow("all data correct %", s.AllDataPct)
				fmt.Print(t.String())
			})
		case "branch":
			suite := dynloop.NewBranchPredictorSuite()
			passes = append(passes, suite)
			printers = append(printers, func() {
				t := report.NewTable("branch-prediction baseline", "predictor", "accuracy %", "backward %")
				for _, r := range suite.Results() {
					t.AddRow(r.Name, r.Accuracy(), r.BackwardAccuracy())
				}
				fmt.Print(t.String())
			})
		case "task":
			tp := taskpred.New(taskpred.Config{})
			passes = append(passes, dynloop.NewObserverPass(0, tp))
			printers = append(printers, func() {
				acc, scored := tp.Accuracy()
				t := report.NewTable("next-task prediction baseline", "metric", "value")
				t.AddRow("next-task %", acc)
				t.AddRow("scored", scored)
				fmt.Print(t.String())
			})
		case "tables":
			tr := dynloop.NewTableTracker(16, 16)
			passes = append(passes, dynloop.NewObserverPass(0, tr))
			printers = append(printers, func() {
				let, _ := tr.LET.HitRatio()
				lit, _ := tr.LIT.HitRatio()
				t := report.NewTable("LET/LIT tables (16 entries)", "table", "hit %")
				t.AddRow("LET", 100*let)
				t.AddRow("LIT", 100*lit)
				fmt.Print(t.String())
			})
		default:
			return fmt.Errorf("unknown pass %q (stats|spec|data|branch|task|tables)", name)
		}
	}
	res, err := dynloop.MultiRun(u, dynloop.MultiRunConfig{Budget: *n, BatchSize: *batch, Shards: *shards}, passes...)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d instructions, %d passes fused into 1 traversal (%d batches)\n",
		*bench, res.Executed, len(passes), res.Batches)
	for _, p := range printers {
		p()
	}
	return nil
}

func cmdDisasm(args []string) error {
	fs := flag.NewFlagSet("disasm", flag.ExitOnError)
	bench, _, seed, _ := benchFlags(fs)
	maxLines := fs.Int("max", 60, "maximum lines to print (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	u, err := buildBench(*bench, *seed)
	if err != nil {
		return err
	}
	d := u.Prog.Disassemble()
	if *maxLines > 0 {
		lines := strings.SplitAfter(d, "\n")
		if len(lines) > *maxLines {
			lines = append(lines[:*maxLines], fmt.Sprintf("... (%d more lines)\n", len(lines)-*maxLines))
		}
		d = strings.Join(lines, "")
	}
	fmt.Print(d)
	return nil
}

// orchestrator bundles what parallelFlags resolves: the shared Runner,
// the optional replay tier over a trace archive, and the cleanup that
// closes the store.
type orchestrator struct {
	runner *runner.Runner
	traces *harness.Traces
	close  func()
}

// deliveryFlags adds the delivery-only knobs shared by sweep and grid —
// none of them can change results (they are excluded from cell keys;
// see grid.Config), so they exist for A/B comparison and smoke gating.
func deliveryFlags(fs *flag.FlagSet) func(cfg *expt.Config) {
	shards := fs.Int("shards", 0, "fan each fused traversal's passes across K goroutines (0/1 = inline; results identical)")
	reference := fs.Bool("reference", false, "force the reference interpreter path — no predecode, no fusion (results identical)")
	fullPlanes := fs.Bool("fullplanes", false, "force full-Event delivery to control-plane consumers (results identical)")
	return func(cfg *expt.Config) {
		cfg.Shards = *shards
		cfg.Reference = *reference
		cfg.FullPlanes = *fullPlanes
	}
}

// parallelFlags adds the orchestrator flags shared by experiment, sweep
// and grid, returning the parsed progress flag and a resolver that
// builds the shared Runner (with the progress stream, the on-disk
// result store when -store is given, and the trace-archive replay tier
// when -traces is given, attached). Call the orchestrator's close when
// the command is done.
func parallelFlags(fs *flag.FlagSet) (*bool, func() (*orchestrator, error)) {
	parallel := fs.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
	progress := fs.Bool("progress", false, "stream per-job progress to stderr")
	storeDir := fs.String("store", "", "persist results in this on-disk store directory (warm runs skip computed cells)")
	tracesDir := fs.String("traces", "", "record/replay instruction streams in this trace-archive directory (cold groups record once, later groups replay instead of interpreting)")
	return progress, func() (*orchestrator, error) {
		rc := runner.Config{Workers: *parallel}
		if *progress {
			rc.OnEvent = progressPrinter()
		}
		o := &orchestrator{close: func() {}}
		if *storeDir != "" {
			st, err := store.Open(*storeDir, store.Options{})
			if err != nil {
				return nil, err
			}
			rc.Cache = store.NewCache(st)
			o.close = func() {
				if err := st.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "dynloop: store:", err)
				}
			}
		}
		if *tracesDir != "" {
			arch, err := tracefile.OpenArchive(*tracesDir)
			if err != nil {
				o.close()
				return nil, err
			}
			o.traces = harness.NewTraces(arch)
		}
		o.runner = runner.New(rc)
		return o, nil
	}
}

// progressPrinter streams per-job progress events to stderr.
func progressPrinter() func(runner.Event) {
	return func(ev runner.Event) {
		switch ev.Kind {
		case runner.JobDone:
			fmt.Fprintf(os.Stderr, "[%4d done] %s (%s)\n", ev.Completed, ev.Label, ev.Elapsed.Round(time.Millisecond))
		case runner.JobCached:
			fmt.Fprintf(os.Stderr, "[%4d done] %s (cached)\n", ev.Completed, ev.Label)
		case runner.JobFailed:
			fmt.Fprintf(os.Stderr, "[   failed] %s: %v\n", ev.Label, ev.Err)
		}
	}
}

// printRunnerStats reports what the orchestrator did, when -progress is
// on. seed, when non-zero, is the run's default workload input seed (a
// spec may additionally sweep explicit seeds); the daemon passes 0 — it
// serves many seeds, none of them "the" seed of the process.
func printRunnerStats(r *runner.Runner, progress bool, seed uint64) {
	if !progress {
		return
	}
	s := r.Stats()
	seedNote := ""
	if seed != 0 {
		seedNote = fmt.Sprintf(", seed %d", seed)
	}
	fmt.Fprintf(os.Stderr, "runner: %d jobs, %d executed, %d fused group runs on %d workers, %d cache hits, %d coalesced, %d disk hits, %d disk puts, %d trace replays, %d trace records%s\n",
		s.Submitted, s.Executed, s.GroupRuns, r.Workers(), s.CacheHits, s.Coalesced, s.DiskHits, s.DiskPuts, s.ReplayRuns, s.RecordRuns, seedNote)
	if s.TierErrors > 0 {
		fmt.Fprintf(os.Stderr, "runner: %d store-tier errors (treated as misses)\n", s.TierErrors)
	}
	ictl, ifull := interp.PlaneRuns()
	rctl, rfull := tracefile.ReplayPlaneRuns()
	fmt.Fprintf(os.Stderr, "obs: %d instructions interpreted (last run %.2f ns/instr), %d traversals, %d replays; plane runs ctl/full: interp %d/%d, replay %d/%d\n",
		interp.Instructions(), interp.LastNsPerInstr(), harness.Traversals(), harness.Replays(), ictl, ifull, rctl, rfull)
}

// profileFlags adds -cpuprofile/-memprofile to fs and returns a start
// hook (call after flag parsing) whose returned stop hook writes the
// profiles; sweep hotspots become inspectable without editing code.
func profileFlags(fs *flag.FlagSet) func() (stop func() error, err error) {
	cpu := fs.String("cpuprofile", "", "write a CPU profile of the command to this file")
	mem := fs.String("memprofile", "", "write an end-of-command heap profile to this file")
	return func() (func() error, error) {
		var cpuFile *os.File
		if *cpu != "" {
			f, err := os.Create(*cpu)
			if err != nil {
				return nil, err
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return nil, err
			}
			cpuFile = f
		}
		return func() error {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				if err := cpuFile.Close(); err != nil {
					return err
				}
			}
			if *mem != "" {
				f, err := os.Create(*mem)
				if err != nil {
					return err
				}
				defer f.Close()
				runtime.GC() // settle the heap so the profile shows retained memory
				if err := pprof.WriteHeapProfile(f); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}
}

func cmdExperiment(ctx context.Context, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("missing experiment name (table1|table2|fig4|fig5|fig6|fig7|fig8|ablations|all)")
	}
	what := args[0]
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	n := fs.Uint64("n", expt.DefaultBudget, "per-benchmark instruction budget")
	seed := fs.Uint64("seed", 1, "workload input seed")
	benches := fs.String("bench", "", "comma-separated benchmark subset")
	batch := fs.Int("batch", 0, "event-batch size (0 = default 1024; output is identical at any size)")
	progress, mkRunner := parallelFlags(fs)
	profile := profileFlags(fs)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	stopProfile, err := profile()
	if err != nil {
		return err
	}
	o, err := mkRunner()
	if err != nil {
		return err
	}
	defer o.close()
	cfg := expt.Config{Budget: *n, Seed: *seed, BatchSize: *batch, Runner: o.runner, Traces: o.traces}
	if *benches != "" {
		cfg.Benchmarks = strings.Split(*benches, ",")
	}
	defer func() { printRunnerStats(cfg.Runner, *progress, *seed) }()
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintln(os.Stderr, "dynloop: profile:", err)
		}
	}()
	run := func(name string) error {
		switch name {
		case "table1":
			rows, err := expt.Table1(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Print(expt.RenderTable1(rows))
		case "table2":
			rows, err := expt.Table2(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Print(expt.RenderTable2(rows))
		case "fig4":
			pts, err := expt.Fig4(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Print(expt.RenderFig4(pts))
		case "fig5":
			rows, err := expt.Fig5(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Print(expt.RenderFig5(rows))
		case "fig6":
			rows, err := expt.Fig6(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Print(expt.RenderFig6(rows))
		case "fig7":
			cells, err := expt.Fig7(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Print(expt.RenderFig7(cells))
		case "baseline":
			rows, err := expt.BaselineBranchPred(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Print(expt.RenderBaseline(rows))
			fmt.Println()
			trows, err := expt.BaselineTaskPred(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Print(expt.RenderTaskPred(trows))
		case "fig8":
			rows, avg, err := expt.Fig8(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Print(expt.RenderFig8(rows, avg))
		case "ablations":
			cls, err := expt.AblationCLSSize(ctx, cfg, nil)
			if err != nil {
				return err
			}
			fmt.Print(expt.RenderCLSSize(cls))
			let, err := expt.AblationLETCapacity(ctx, cfg, nil)
			if err != nil {
				return err
			}
			fmt.Print(expt.RenderLETCapacity(let))
			rep, err := expt.AblationReplacement(ctx, cfg, nil)
			if err != nil {
				return err
			}
			fmt.Print(expt.RenderReplacement(rep))
			os, err := expt.AblationOneShots(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Print(expt.RenderOneShots(os))
			nr, err := expt.AblationNestRule(ctx, cfg, nil)
			if err != nil {
				return err
			}
			fmt.Print(expt.RenderNestRule(nr))
			ex, err := expt.AblationExclusion(ctx, cfg, 0)
			if err != nil {
				return err
			}
			fmt.Print(expt.RenderExclusion(ex))
			or, err := expt.AblationOracle(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Print(expt.RenderOracle(or))
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		fmt.Println()
		return nil
	}
	if what == "all" {
		// One shared runner (cfg.Runner) deduplicates the overlapping
		// cells across sections — Figure 7's STR column is Figure 6, its
		// STR(3)/4TU cells are Table 2's.
		for _, name := range []string{"table1", "fig4", "fig5", "fig6", "fig7", "table2", "fig8", "baseline", "ablations"} {
			if err := run(name); err != nil {
				return err
			}
		}
		return nil
	}
	return run(what)
}

// gridRun holds the flags grid and sweep share and executes a spec with
// them, locally or on a daemon. Both paths render through the same
// spec-driven renderer, so the bytes match.
type gridRun struct {
	n, seed       *uint64
	benches       *string
	batch         *int
	remote        *string
	progress      *bool
	mkRunner      func() (*orchestrator, error)
	applyDelivery func(*expt.Config)
	profile       func() (func() error, error)
}

func gridRunFlags(fs *flag.FlagSet) *gridRun {
	g := &gridRun{
		n:       fs.Uint64("n", expt.DefaultBudget, "default per-benchmark instruction budget (a spec may sweep explicit budgets)"),
		seed:    fs.Uint64("seed", 1, "default workload input seed (a spec may sweep explicit seeds)"),
		benches: fs.String("bench", "", "comma-separated benchmark subset (when the spec names none; default: all 18)"),
		batch:   fs.Int("batch", 0, "event-batch size (0 = default 1024; output is identical at any size)"),
		remote:  fs.String("remote", "", "execute on a dynloop serve daemon at this base URL instead of locally"),
	}
	g.progress, g.mkRunner = parallelFlags(fs)
	g.applyDelivery = deliveryFlags(fs)
	g.profile = profileFlags(fs)
	return g
}

// config returns the config-level defaults the spec's zero-valued axes
// resolve to.
func (g *gridRun) config() expt.Config {
	cfg := expt.Config{Budget: *g.n, Seed: *g.seed, BatchSize: *g.batch}
	if *g.benches != "" {
		cfg.Benchmarks = strings.Split(*g.benches, ",")
	}
	return cfg
}

// run executes gs and prints the rendered result. With -remote, a
// non-empty name sends the registered grid by name, otherwise the spec
// goes inline.
func (g *gridRun) run(ctx context.Context, gs dynloop.GridSpec, name string) error {
	cfg := g.config()
	if *g.remote != "" {
		return remoteGrid(ctx, *g.remote, cfg, gs, name, *g.progress)
	}
	stopProfile, err := g.profile()
	if err != nil {
		return err
	}
	o, err := g.mkRunner()
	if err != nil {
		return err
	}
	defer o.close()
	cfg.Runner = o.runner
	cfg.Traces = o.traces
	g.applyDelivery(&cfg)
	defer func() { printRunnerStats(cfg.Runner, *g.progress, *g.seed) }()
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintln(os.Stderr, "dynloop: profile:", err)
		}
	}()
	res, err := dynloop.RunGrid(ctx, cfg, gs)
	if err != nil {
		return err
	}
	out, err := dynloop.RenderGrid(res)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

// cmdSweep runs the registered "sweep" grid with its policy and TU axes
// taken from the flags.
func cmdSweep(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	policies := fs.String("policy", "", "comma-separated policies (default: idle,str,str1,str2,str3)")
	tus := fs.String("tus", "", "comma-separated machine sizes (default: 2,4,8,16)")
	g := gridRunFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	gs, err := sweepSpec(*policies, *tus)
	if err != nil {
		return err
	}
	return g.run(ctx, gs, "")
}

// sweepSpec lowers comma-separated -policy and -tus values (empty =
// the paper's defaults) onto the registered "sweep" grid.
func sweepSpec(policies, tus string) (dynloop.GridSpec, error) {
	var sw expt.SweepSpec
	if policies != "" {
		pols, err := expt.ParsePolicies(strings.Split(policies, ","))
		if err != nil {
			return dynloop.GridSpec{}, err
		}
		sw.Policies = pols
	}
	if tus != "" {
		for _, s := range strings.Split(tus, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || k < 0 {
				return dynloop.GridSpec{}, fmt.Errorf("bad -tus entry %q", s)
			}
			sw.TUs = append(sw.TUs, k)
		}
	}
	return sw.GridSpec(), nil
}

// cmdGrid executes a declarative grid spec — a user-authored JSON file
// or a registered name — locally or on a serve daemon.
func cmdGrid(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("grid", flag.ExitOnError)
	specFile := fs.String("spec", "", "JSON grid spec file to execute")
	name := fs.String("name", "", "registered grid to execute (see -list)")
	list := fs.Bool("list", false, "list the registered grids and exit")
	format := fs.String("format", "", "override the render layout: table, csv or json")
	g := gridRunFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		return listGrids(ctx, *g.remote, g.config())
	}

	var gs dynloop.GridSpec
	switch {
	case *specFile != "" && *name != "":
		return fmt.Errorf("pass either -spec FILE or -name NAME, not both")
	case *specFile != "":
		data, err := os.ReadFile(*specFile)
		if err != nil {
			return err
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&gs); err != nil {
			return fmt.Errorf("parsing %s: %w", *specFile, err)
		}
		if err := gs.Validate(); err != nil {
			return err
		}
	case *name != "":
		e, ok := dynloop.GridByName(*name)
		if !ok {
			return fmt.Errorf("no registered grid %q (try: dynloop grid -list)", *name)
		}
		gs = e.Spec
	default:
		return fmt.Errorf("missing -spec FILE or -name NAME (or -list)")
	}
	if *format != "" {
		gs.Render.Format = *format
	}
	return g.run(ctx, gs, *name)
}

// listGrids prints the grid registry — the local one, or the daemon's
// when -remote is given.
func listGrids(ctx context.Context, remote string, cfg expt.Config) error {
	t := report.NewTable("Registered grids (dynloop grid -name NAME; axes default per spec)",
		"name", "kind", "cells", "title")
	if remote != "" {
		c := client.New(remote, nil)
		infos, err := c.Grids(ctx)
		if err != nil {
			return err
		}
		for _, gi := range infos {
			t.AddRow(gi.Name, gi.Kind, gi.Cells, gi.Title)
		}
	} else {
		for _, name := range dynloop.GridNames() {
			e, ok := dynloop.GridByName(name)
			if !ok {
				continue
			}
			cells, err := e.Spec.Size(cfg)
			if err != nil {
				cells = 0
			}
			t.AddRow(name, e.Spec.Kind, cells, e.Spec.Title)
		}
	}
	fmt.Print(t.String())
	return nil
}

// remoteGrid runs the spec on a daemon and renders the returned cell
// values through the same renderer as the local path — byte-identical
// output. Named grids go up by name (the daemon resolves its canonical
// spec — identical to ours); ad-hoc specs go up inline. With progress,
// the daemon's event stream is mirrored to stderr while the grid
// computes.
func remoteGrid(ctx context.Context, base string, cfg expt.Config, gs dynloop.GridSpec, name string, progress bool) error {
	c := client.New(base, nil)
	if err := c.Health(ctx); err != nil {
		return fmt.Errorf("daemon at %s: %w", base, err)
	}
	req := wire.GridRequest{
		Benchmarks: cfg.Benchmarks,
		Budget:     cfg.Budget,
		Seed:       cfg.Seed,
		BatchSize:  cfg.BatchSize,
	}
	if name != "" && gs.Render.Format == "" {
		req.Name = name
	} else {
		req.Spec = &gs
	}
	var stopEvents context.CancelFunc
	if progress {
		var evCtx context.Context
		evCtx, stopEvents = context.WithCancel(ctx)
		go mirrorEvents(evCtx, c)
	}
	values, err := c.Grid(ctx, req)
	if stopEvents != nil {
		stopEvents()
	}
	if err != nil {
		return err
	}
	res, err := dynloop.GridResultFrom(cfg, gs, values)
	if err != nil {
		return err
	}
	out, err := dynloop.RenderGrid(res)
	if err != nil {
		return err
	}
	fmt.Print(out)
	if progress {
		st, err := c.Stats(ctx)
		if err == nil {
			fmt.Fprintf(os.Stderr, "daemon: %d jobs, %d executed, %d fused group runs on %d workers, %d cache hits, %d coalesced, %d disk hits, %d disk puts, %d trace replays, %d trace records\n",
				st.Runner.Submitted, st.Runner.Executed, st.Runner.GroupRuns, st.Workers,
				st.Runner.CacheHits, st.Runner.Coalesced, st.Runner.DiskHits, st.Runner.DiskPuts,
				st.Runner.ReplayRuns, st.Runner.RecordRuns)
		}
	}
	return nil
}

// mirrorEvents prints the daemon's progress stream to stderr until ctx
// is cancelled. Events from other concurrent clients appear too: the
// daemon's runner is shared.
func mirrorEvents(ctx context.Context, c *client.Client) {
	print := progressPrinter()
	err := c.Events(ctx, func(ev wire.Event) {
		kind, ok := map[string]runner.EventKind{
			"done": runner.JobDone, "cached": runner.JobCached, "failed": runner.JobFailed,
		}[ev.Kind]
		if !ok {
			return
		}
		rev := runner.Event{Kind: kind, Key: ev.Key, Label: ev.Label,
			Elapsed: time.Duration(ev.ElapsedMS) * time.Millisecond, Completed: ev.Completed}
		if ev.Err != "" {
			rev.Err = fmt.Errorf("%s", ev.Err)
		}
		print(rev)
	})
	if err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "dynloop: event stream:", err)
	}
}

// splitList splits a comma-separated flag value, trimming whitespace
// and dropping empty elements.
func splitList(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

// cmdServe runs the grid-serving daemon until interrupted; Ctrl-C (or
// SIGINT from a supervisor) shuts it down gracefully.
func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9090", "listen address")
	storeDir := fs.String("store", "", "persistent result store directory (empty = in-memory results only)")
	parallel := fs.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS)")
	inflight := fs.Int("max-inflight", 0, "concurrently computed grid requests (0 = 2x workers)")
	maxCells := fs.Int("max-cells", 0, "largest accepted grid in cells (0 = 100000)")
	grace := fs.Duration("grace", 10*time.Second, "graceful-shutdown timeout for in-flight requests")
	warm := fs.String("warm", "", "comma-separated registered grids (or \"all\") for the background warmer to precompute while idle")
	warmBench := fs.String("warm-bench", "", "narrow warming to these benchmarks (default: all 18)")
	queueWait := fs.Duration("queue-wait", 0, "longest a request may queue for an inflight slot before a 422 shed (0 = 30s, negative = forever)")
	compactRatio := fs.Float64("compact-ratio", 0, "auto-compact the store when superseded records exceed this fraction of its bytes (0 = disabled)")
	progress := fs.Bool("progress", false, "stream per-job progress to stderr")
	tracesDir := fs.String("traces", "", "trace-archive directory for the replay tier (cold cells replay recorded streams instead of interpreting)")
	pprofAddr := fs.String("pprof", "", "additionally serve net/http/pprof on this address (empty = disabled)")
	logMode := fs.String("log", "off", "structured request logs to stderr: text, json or off")
	profile := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfile, err := profile()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintln(os.Stderr, "dynloop: profile:", err)
		}
	}()
	cfg := server.Config{Workers: *parallel, MaxInflight: *inflight, MaxCells: *maxCells, QueueWait: *queueWait}
	if *warm != "" {
		cfg.Warm = splitList(*warm)
	}
	if *warmBench != "" {
		cfg.WarmBenchmarks = splitList(*warmBench)
	}
	switch *logMode {
	case "text":
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		cfg.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "off", "":
	default:
		return fmt.Errorf("bad -log %q (text|json|off)", *logMode)
	}
	if *pprofAddr != "" {
		// The pprof handlers live on their own listener, never on the
		// daemon's: profiling stays opt-in and bindable to loopback while
		// the service address is exposed.
		go func() {
			fmt.Fprintf(os.Stderr, "dynloop: pprof on http://%s/debug/pprof/\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "dynloop: pprof:", err)
			}
		}()
	}
	if *tracesDir != "" {
		arch, err := tracefile.OpenArchive(*tracesDir)
		if err != nil {
			return err
		}
		cfg.Traces = harness.NewTraces(arch)
		fmt.Fprintf(os.Stderr, "dynloop: traces %s: %d recordings\n", *tracesDir, arch.Stats().Recordings)
	}
	if *progress {
		cfg.OnEvent = progressPrinter()
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{CompactGarbageRatio: *compactRatio})
		if err != nil {
			return err
		}
		defer func() {
			if err := st.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "dynloop: store:", err)
			}
		}()
		cfg.Store = st
		ss := st.Stats()
		fmt.Fprintf(os.Stderr, "dynloop: store %s: %d results in %d segments (%d bytes)\n",
			*storeDir, ss.Records, ss.Segments, ss.Bytes)
	}
	srv := server.New(cfg)
	ready := make(chan string, 1)
	go func() {
		bound, ok := <-ready
		if ok && bound != "" {
			fmt.Fprintf(os.Stderr, "dynloop: serving on http://%s (%d workers)\n", bound, srv.Runner().Workers())
		}
	}()
	err = srv.ListenAndServe(ctx, *addr, ready, *grace)
	fmt.Fprintln(os.Stderr, "dynloop: daemon stopped")
	printRunnerStats(srv.Runner(), true, 0)
	if ws, ok := srv.WarmerStats(); ok {
		fmt.Fprintf(os.Stderr, "warmer: %d/%d units, %d cells, %d pauses, %d errors\n",
			ws.UnitsDone, ws.Units, ws.Cells, ws.Pauses, ws.Errors)
	}
	if cfg.Store != nil {
		ss := cfg.Store.Stats()
		fmt.Fprintf(os.Stderr, "store: %d records in %d segments, %d bytes (%d dead), %d puts, %d/%d get hits, %d compactions (%d bytes reclaimed)\n",
			ss.Records, ss.Segments, ss.Bytes, ss.DeadBytes, ss.Puts, ss.Hits, ss.Gets, ss.Compactions, ss.ReclaimedBytes)
	}
	return err
}

// cmdTrace dispatches the archive subcommands: record, ls and verify.
func cmdTrace(ctx context.Context, args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "record":
			return cmdTraceRecord(ctx, args[1:])
		case "ls":
			return cmdTraceLs(args[1:])
		case "verify":
			return cmdTraceVerify(args[1:])
		}
	}
	return fmt.Errorf("trace: want a subcommand: record, ls or verify")
}

// cmdTraceRecord warms a trace archive: one recording per requested
// benchmark, through the same replay tier the runner uses, so a
// benchmark already covered replays (and reports so) instead of
// re-interpreting.
func cmdTraceRecord(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("trace record", flag.ExitOnError)
	dir := fs.String("traces", "", "trace-archive directory")
	benches := fs.String("bench", "", "comma-separated benchmarks to record (default: all 18)")
	n := fs.Uint64("n", expt.DefaultBudget, "instruction budget to record (0 = run to halt; a recording serves every budget it covers)")
	seed := fs.Uint64("seed", 1, "workload input seed")
	batch := fs.Int("batch", 0, "event-batch size while recording (results identical at any size)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("missing -traces DIR")
	}
	arch, err := tracefile.OpenArchive(*dir)
	if err != nil {
		return err
	}
	tr := harness.NewTraces(arch)
	var names []string
	if *benches != "" {
		names = strings.Split(*benches, ",")
	} else {
		for _, bm := range dynloop.Benchmarks() {
			names = append(names, bm.Name)
		}
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		bm, err := dynloop.BenchmarkByName(name)
		if err != nil {
			return err
		}
		build := func() (*dynloop.Unit, error) { return bm.Build(*seed) }
		res, replayed, err := tr.MultiRun(ctx, bm.Name, *seed,
			build, harness.MultiConfig{Budget: *n, BatchSize: *batch})
		if err != nil {
			return err
		}
		how := "recorded"
		if replayed {
			how = "already archived, replayed"
		}
		fmt.Printf("%s: %s %d instructions (halted=%v)\n", bm.Name, how, res.Executed, res.Halted)
	}
	return nil
}

// cmdTraceLs lists an archive's recordings.
func cmdTraceLs(args []string) error {
	fs := flag.NewFlagSet("trace ls", flag.ExitOnError)
	dir := fs.String("traces", "", "trace-archive directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("missing -traces DIR")
	}
	arch, err := tracefile.OpenArchive(*dir)
	if err != nil {
		return err
	}
	recs := arch.Recordings()
	t := report.NewTable(fmt.Sprintf("trace archive %s (%d recordings)", *dir, len(recs)),
		"bench", "seed", "events", "halted", "blocks", "bytes", "schema", "planes")
	for _, r := range recs {
		t.AddRow(r.Bench(), r.Seed(), r.Events(), r.Halted(), r.Blocks(), r.Size(),
			r.SchemaVersion(), planesString(r.Planes()))
	}
	fmt.Print(t.String())
	if st := arch.Stats(); st.Invalidated > 0 || st.SchemaSkips > 0 || st.TruncatedTail > 0 {
		fmt.Printf("recovery: %d invalid recordings skipped, %d schema skews skipped, %d torn-tail bytes truncated\n",
			st.Invalidated, st.SchemaSkips, st.TruncatedTail)
	}
	return nil
}

// planesString renders a plane capability mask for listings.
func planesString(p trace.Planes) string {
	switch {
	case p&trace.PlaneCtl != 0 && p&trace.PlaneData != 0:
		return "ctl+data"
	case p&trace.PlaneCtl != 0:
		return "ctl"
	case p&trace.PlaneData != 0:
		return "data"
	default:
		return "none"
	}
}

// cmdTraceVerify fully decodes every recording in an archive (Open
// already CRC- and decode-checks each block) and fails on any damage,
// so CI and operators can assert an archive is servable.
func cmdTraceVerify(args []string) error {
	fs := flag.NewFlagSet("trace verify", flag.ExitOnError)
	dir := fs.String("traces", "", "trace-archive directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("missing -traces DIR")
	}
	arch, err := tracefile.OpenArchive(*dir)
	if err != nil {
		return err
	}
	recs := arch.Recordings()
	for _, r := range recs {
		n, _, err := r.Replay(0, nil, nil)
		if err != nil {
			return fmt.Errorf("%s seed %d: %w", r.Bench(), r.Seed(), err)
		}
		if n != r.Events() {
			return fmt.Errorf("%s seed %d: replayed %d of %d events", r.Bench(), r.Seed(), n, r.Events())
		}
	}
	if st := arch.Stats(); st.Invalidated > 0 {
		return fmt.Errorf("%d recordings failed verification (block CRC or decode damage)", st.Invalidated)
	}
	fmt.Printf("verified %d recordings: every block CRC-clean and decodable\n", len(recs))
	return nil
}

// cmdReplay drives the detector and the speculation engine from every
// recording in a trace archive, one row per recording, without
// re-executing any program.
func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	dir := fs.String("traces", "", "trace-archive directory")
	tus := fs.Int("tus", 4, "thread units")
	polName := fs.String("policy", "str3", "speculation policy")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("missing -traces DIR")
	}
	pol, err := parsePolicy(*polName)
	if err != nil {
		return err
	}
	arch, err := tracefile.OpenArchive(*dir)
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("replay of trace archive %s (%d TUs, %s)", *dir, *tus, pol),
		"bench", "seed", "events", "static loops", "iter/exec", "TPC", "hit ratio %")
	for _, r := range arch.Recordings() {
		det := dynloop.NewDetector(dynloop.DetectorConfig{Capacity: 16})
		stats := dynloop.NewLoopStats()
		e := dynloop.NewEngine(dynloop.EngineConfig{TUs: *tus, Policy: pol})
		det.AddObserver(stats)
		det.AddObserver(e)
		n, _, err := r.Replay(0, nil, det)
		if err != nil {
			return fmt.Errorf("%s seed %d: %w", r.Bench(), r.Seed(), err)
		}
		det.Flush()
		s, m := stats.Summary(), e.Metrics()
		t.AddRow(r.Bench(), r.Seed(), n, s.StaticLoops, s.ItersPerExec, m.TPC(), m.HitRatio())
	}
	fmt.Print(t.String())
	return nil
}
