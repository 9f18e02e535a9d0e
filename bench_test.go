// Benchmarks regenerating every table and figure of the paper's
// evaluation (at a reduced per-iteration budget so -bench=. stays fast;
// the paper's published values live in workload.PaperRow, and perfbench's
// paper_rel_err scores full-budget runs against them: see
// perfbench/README.md, "Model check", and the held-out seed 1009 in
// perfbench/steadiness.json), plus
// micro-benchmarks of the core mechanisms. Custom metrics expose the
// reproduced quantity (TPC, hit ratios) alongside time/op.
package dynloop_test

import (
	"context"
	"fmt"
	"testing"

	"dynloop"
	"dynloop/internal/expt"
	"dynloop/internal/harness"
	"dynloop/internal/interp"
	"dynloop/internal/isa"
	"dynloop/internal/loopdet"
	"dynloop/internal/loopstats"
	"dynloop/internal/looptab"
	"dynloop/internal/runner"
	"dynloop/internal/spec"
	"dynloop/internal/trace"
)

// benchBudget keeps one -bench=. pass quick while still exercising every
// workload's steady state.
const benchBudget = 200_000

func benchCfg() expt.Config { return expt.Config{Budget: benchBudget} }

// BenchmarkTable1LoopStats regenerates Table 1 (loop statistics for the
// 18 workloads) per iteration.
func BenchmarkTable1LoopStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Table1(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			var ipe float64
			for _, r := range rows {
				ipe += r.S.ItersPerExec
			}
			b.ReportMetric(ipe/float64(len(rows)), "avg-iter/exec")
		}
	}
}

// BenchmarkFig4HitRatios regenerates Figure 4 (LET/LIT hit ratios vs
// table size) per iteration.
func BenchmarkFig4HitRatios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := expt.Fig4(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, p := range pts {
				if p.Entries == 16 {
					b.ReportMetric(p.LETPct, "LET16-%")
					b.ReportMetric(p.LITPct, "LIT16-%")
				}
			}
		}
	}
}

// BenchmarkFig5InfiniteTPC regenerates Figure 5 (TPC with unlimited
// TUs) per iteration.
func BenchmarkFig5InfiniteTPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Fig5(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			var maxTPC float64
			for _, r := range rows {
				if r.TPCFull > maxTPC {
					maxTPC = r.TPCFull
				}
			}
			b.ReportMetric(maxTPC, "max-TPC")
		}
	}
}

// BenchmarkFig6TPCSTR regenerates Figure 6 (per-program TPC under STR
// for 2..16 TUs) per iteration.
func BenchmarkFig6TPCSTR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Fig6(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			var avg4 float64
			for _, r := range rows {
				avg4 += r.TPC[4]
			}
			b.ReportMetric(avg4/float64(len(rows)), "avg-TPC-4TU")
		}
	}
}

// BenchmarkFig7Policies regenerates Figure 7 (average TPC for IDLE, STR,
// STR(1..3)) per iteration.
func BenchmarkFig7Policies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := expt.Fig7(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, c := range cells {
				if c.Policy == "STR" && c.TUs == 4 {
					b.ReportMetric(c.AvgTPC, "STR-4TU-TPC")
				}
			}
		}
	}
}

// BenchmarkTable2STR3 regenerates Table 2 (speculation statistics under
// STR(3), 4 TUs) per iteration.
func BenchmarkTable2STR3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Table2(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			var hit float64
			for _, r := range rows {
				hit += r.M.HitRatio()
			}
			b.ReportMetric(hit/float64(len(rows)), "avg-hit-%")
		}
	}
}

// BenchmarkFig8DataSpec regenerates Figure 8 (live-in predictability)
// per iteration.
func BenchmarkFig8DataSpec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, avg, err := expt.Fig8(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(avg.S.SamePathPct, "same-path-%")
			b.ReportMetric(avg.S.LrPredPct, "lr-pred-%")
		}
	}
}

// BenchmarkAblationReplacement runs the §2.3.2 replacement ablation.
func BenchmarkAblationReplacement(b *testing.B) {
	cfg := expt.Config{Budget: benchBudget, Benchmarks: []string{"gcc", "swim"}}
	for i := 0; i < b.N; i++ {
		if _, err := expt.AblationReplacement(context.Background(), cfg, []int{4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNestRule runs the STR(i)-interpretation ablation.
func BenchmarkAblationNestRule(b *testing.B) {
	cfg := expt.Config{Budget: benchBudget, Benchmarks: []string{"fpppp", "tomcatv"}}
	for i := 0; i < b.N; i++ {
		if _, err := expt.AblationNestRule(context.Background(), cfg, []int{4}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the mechanisms themselves ---

// benchPipeline drives b.N instructions of swim through the full
// pipeline — interpreter feeding the detector in batches, with the
// Table-1 statistics collector and a 4-TU STR(3) speculation engine
// attached — at the given event-batch size (0 = default). Both observers
// only count the raw stream, so the pipeline negotiates control-plane
// delivery unless fullPlane forces full events (the reference path
// always fills them). time/op is ns/instruction.
func benchPipeline(b *testing.B, batchSize int, reference, fullPlane bool) {
	bm, err := dynloop.BenchmarkByName("swim")
	if err != nil {
		b.Fatal(err)
	}
	u, err := bm.Build(1)
	if err != nil {
		b.Fatal(err)
	}
	det := loopdet.New(loopdet.Config{Capacity: 16})
	det.AddObserver(loopstats.NewCollector())
	det.AddObserver(spec.NewEngine(spec.Config{TUs: 4, Policy: spec.STRn(3)}))
	var sink trace.BatchConsumer = det
	if fullPlane {
		sink = trace.ForceFullPlane(det)
	}
	cpu := u.NewCPU()
	cpu.SetBatchSize(batchSize)
	cpu.SetReference(reference)
	b.ReportAllocs()
	b.ResetTimer()
	remaining := uint64(b.N)
	for remaining > 0 {
		n, err := cpu.Run(remaining, sink)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 && !cpu.Halted() {
			b.Fatal("no progress")
		}
		remaining -= n
		if cpu.Halted() {
			cpu = u.NewCPU()
			cpu.SetBatchSize(batchSize)
			cpu.SetReference(reference)
		}
	}
}

// BenchmarkRun measures the full pipeline's per-instruction cost at the
// default batch size. The Minstr/s metric is the instructions-per-second
// headline BENCH_pipeline.json tracks, and allocs/op is the
// per-instruction steady-state allocation count the batch pipeline pins
// at 0.
func BenchmarkRun(b *testing.B) {
	benchPipeline(b, 0, false, false)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkRunFullPlane runs the same pipeline with full-event delivery
// forced (trace.ForceFullPlane), so the predecoded full-plane loop that
// data-facet passes such as the §4 live-in study run on stays measured
// and gated now that BenchmarkRun negotiates the control plane.
func BenchmarkRunFullPlane(b *testing.B) {
	benchPipeline(b, 0, false, true)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkRunReference runs the same pipeline on the interpreter's
// reference path (two-level dispatch, no predecode, no fusion). The
// gap between this and BenchmarkRun is the tentpole's win, and keeping
// both under one harness makes the A/B a single -bench invocation:
//
//	go test -run=^$ -bench='^BenchmarkRun(Reference)?$' .
func BenchmarkRunReference(b *testing.B) {
	benchPipeline(b, 0, true, false)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkRunBatchSize sweeps the event-batch size on the BenchmarkRun
// pipeline; it documents why DefaultBatchSize is where it is (batch=1
// reproduces the old one-dispatch-per-instruction pipeline). Throughput
// plateaus by ~256 and the working set leaves L2 as the buffer grows —
// 4096 events (~360 KiB) measured slower than 512 — so the default sits
// at the knee.
func BenchmarkRunBatchSize(b *testing.B) {
	for _, bs := range []int{1, 64, 256, 512, 1024, 2048, 4096} {
		b.Run(fmt.Sprintf("batch=%d", bs), func(b *testing.B) { benchPipeline(b, bs, false, false) })
	}
}

// BenchmarkInterpreter measures the per-Run fixed cost: one
// instruction per Run call with no sink, so time/op is the call's
// overhead around the retire loop, metrics included, rather than
// instruction work.
func BenchmarkInterpreter(b *testing.B) {
	bm, err := dynloop.BenchmarkByName("swim")
	if err != nil {
		b.Fatal(err)
	}
	u, err := bm.Build(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	cpu := u.NewCPU()
	for i := 0; i < b.N; i++ {
		if _, err := cpu.Run(1, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(0)
}

// BenchmarkDetector measures the CLS per-instruction cost on a realistic
// mixed stream.
func BenchmarkDetector(b *testing.B) {
	bm, err := dynloop.BenchmarkByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	u, err := bm.Build(1)
	if err != nil {
		b.Fatal(err)
	}
	cpu := u.NewCPU()
	det := loopdet.New(loopdet.Config{Capacity: 16})
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := cpu.Run(uint64(b.N), det); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngine measures the full pipeline (interpreter + detector +
// speculation engine) per instruction.
func BenchmarkEngine(b *testing.B) {
	bm, err := dynloop.BenchmarkByName("compress")
	if err != nil {
		b.Fatal(err)
	}
	u, err := bm.Build(1)
	if err != nil {
		b.Fatal(err)
	}
	cpu := u.NewCPU()
	det := loopdet.New(loopdet.Config{Capacity: 16})
	e := spec.NewEngine(spec.Config{TUs: 4, Policy: spec.STRn(3)})
	det.AddObserver(e)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := cpu.Run(uint64(b.N), det); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(e.Metrics().TPC(), "TPC")
}

// BenchmarkCLSBackEdge measures the detector's hot path: a taken
// backward branch of a resident loop (one iteration event).
func BenchmarkCLSBackEdge(b *testing.B) {
	d := loopdet.New(loopdet.Config{Capacity: 16})
	in := isa.Branch(isa.CondNEZ, 1, 10)
	ev := trace.Event{PC: 20, Instr: &in, Taken: true, Target: 10}
	d.Consume(&ev) // establish the loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Index = uint64(i)
		d.Consume(&ev)
	}
}

// BenchmarkLETLookup measures the associative-table hot path.
func BenchmarkLETLookup(b *testing.B) {
	let := looptab.NewLET(16)
	for t := isa.Addr(0); t < 16; t++ {
		let.OnExecStart(t)
		let.OnExecEnd(t, 5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		let.PredictIters(isa.Addr(i & 15))
	}
}

// BenchmarkSequences measures the input-sequence generators.
func BenchmarkSequences(b *testing.B) {
	seqs := map[string]interp.Sequence{
		"counter":   interp.Counter(0, 3),
		"uniform":   interp.Uniform(1, 100, 7),
		"geometric": interp.Geometric(1, 0.7, 0, 9),
	}
	for name, s := range seqs {
		b.Run(name, func(b *testing.B) {
			var sink int64
			for i := 0; i < b.N; i++ {
				sink += s.Next()
			}
			_ = sink
		})
	}
}

// BenchmarkHarnessEndToEnd measures a complete small run: build, run,
// flush, collect.
func BenchmarkHarnessEndToEnd(b *testing.B) {
	bm, err := dynloop.BenchmarkByName("m88ksim")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		u, err := bm.Build(1)
		if err != nil {
			b.Fatal(err)
		}
		e := spec.NewEngine(spec.Config{TUs: 4, Policy: spec.STR()})
		if _, err := harness.Run(u, harness.Config{Budget: 50_000}, e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineBranchPred runs the conventional branch-predictor
// baseline (BTFN / bimodal / gshare) over the suite.
func BenchmarkBaselineBranchPred(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.BaselineBranchPred(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			var bwd float64
			for _, r := range rows {
				bwd += r.Results[2].BackwardAccuracy() // gshare
			}
			b.ReportMetric(bwd/float64(len(rows)), "gshare-bwd-%")
		}
	}
}

// BenchmarkSweepParallelism measures the orchestrator's wall-clock
// speedup on the full 18-benchmark × 5-policy × 4-size grid (360 cells).
// Compare the parallel=1 and parallel=8 time/op: the acceptance target
// is ≥2× at 8 workers on a multi-core host. A fresh runner per iteration
// keeps the cache from short-circuiting the measurement.
func BenchmarkSweepParallelism(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := expt.Config{Budget: benchBudget, Parallel: workers}
				rows, err := expt.Sweep(context.Background(), cfg, expt.SweepSpec{})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(len(rows)), "cells")
				}
			}
		})
	}
}

// BenchmarkSweepFusion is the A/B of the single-traversal refactor: the
// full 360-cell sweep grid with every cell traversing its benchmark
// alone (percell) vs cells fused per benchmark into one traversal
// (fused). The fused/percell time ratio is the headline
// BENCH_sweep.json tracks; a fresh runner per iteration keeps the cell
// cache from short-circuiting the comparison.
func BenchmarkSweepFusion(b *testing.B) {
	for _, mode := range []struct {
		name   string
		noFuse bool
	}{{"percell", true}, {"fused", false}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := expt.Config{Budget: benchBudget, Parallel: 1, NoFuse: mode.noFuse}
				before := harness.Traversals()
				if _, err := expt.Sweep(context.Background(), cfg, expt.SweepSpec{}); err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(harness.Traversals()-before), "traversals")
				}
			}
		})
	}
}

// BenchmarkRunnerOverhead measures the orchestrator's per-job cost with
// trivial jobs: the scheduling, caching and progress plumbing alone.
func BenchmarkRunnerOverhead(b *testing.B) {
	jobs := make([]runner.Job[int], 256)
	for i := range jobs {
		i := i
		jobs[i] = runner.Job[int]{Run: func(ctx context.Context) (int, error) { return i, nil }}
	}
	r := runner.New(runner.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Map(context.Background(), r, jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceReplay is the replay tier's headline micro-benchmark:
// delivering a recorded stream into a pass by decode-only replay vs
// re-interpreting the program, same sink either way, on each event plane
// (the plain legs negotiate control-plane delivery, the -full legs force
// full Events). time/op is ns/instruction; every leg must also hold
// 0 allocs/op (pinned by TestReplayZeroAllocs, TestReplayCtlZeroAllocs
// and TestCtlSteadyStateZeroAllocs).
func BenchmarkTraceReplay(b *testing.B) {
	bm, err := dynloop.BenchmarkByName("swim")
	if err != nil {
		b.Fatal(err)
	}
	u, err := bm.Build(1)
	if err != nil {
		b.Fatal(err)
	}
	const n = 200_000
	a, err := dynloop.OpenTraceArchive(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	w, err := a.BeginRecord(bm.Name, 1, u.Prog)
	if err != nil {
		b.Fatal(err)
	}
	cpu := u.NewCPU()
	if _, err := cpu.Run(n, w); err != nil {
		b.Fatal(err)
	}
	if err := w.Commit(cpu.Halted()); err != nil {
		b.Fatal(err)
	}
	rec, ok := a.Lookup(bm.Name, 1)
	if !ok {
		b.Fatal("recording not installed")
	}

	// The consumer is the control-flow hash, a control-only sink: the
	// plain legs negotiate the sparse control plane (transfers only; the
	// replay side walks the archive block by block, hopping straight-line
	// runs), and the -full legs force full-Event delivery through
	// trace.ForceFullPlane, so the facet split is measured per plane.
	interpret := func(sink trace.BatchConsumer) func(b *testing.B) {
		return func(b *testing.B) {
			cpu := u.NewCPU()
			b.ReportAllocs()
			b.ResetTimer()
			remaining := uint64(b.N)
			for remaining > 0 {
				nn, err := cpu.Run(remaining, sink)
				if err != nil {
					b.Fatal(err)
				}
				if nn == 0 && !cpu.Halted() {
					b.Fatal("no progress")
				}
				remaining -= nn
				if cpu.Halted() {
					cpu = u.NewCPU()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
		}
	}
	replay := func(sink trace.BatchConsumer) func(b *testing.B) {
		return func(b *testing.B) {
			d := &dynloop.TraceDecoder{}
			if _, _, err := rec.Replay(n, d, sink); err != nil { // warm the decoder
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			remaining := uint64(b.N)
			for remaining > 0 {
				chunk := remaining
				if chunk > rec.Events() {
					chunk = rec.Events()
				}
				nn, _, err := rec.Replay(chunk, d, sink)
				if err != nil {
					b.Fatal(err)
				}
				remaining -= nn
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
		}
	}
	b.Run("interpret", interpret(trace.NewHash()))
	b.Run("interpret-full", interpret(trace.ForceFullPlane(trace.NewHash())))
	b.Run("replay", replay(trace.NewHash()))
	b.Run("replay-full", replay(trace.ForceFullPlane(trace.NewHash())))
	// decode isolates the codec itself (nil sink): the floor the replay
	// number converges to as consumers get cheaper.
	b.Run("decode", func(b *testing.B) {
		d := &dynloop.TraceDecoder{}
		if _, _, err := rec.Replay(n, d, nil); err != nil { // warm the decoder
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		remaining := uint64(b.N)
		for remaining > 0 {
			chunk := remaining
			if chunk > rec.Events() {
				chunk = rec.Events()
			}
			nn, _, err := rec.Replay(chunk, d, nil)
			if err != nil {
				b.Fatal(err)
			}
			remaining -= nn
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
	})
}

// BenchmarkSweepReplay is the grid-level A/B the BENCH_replay.json
// numbers come from: the full 360-cell sweep with a cold runner per
// iteration, fed by interpretation vs by a warm trace archive. The
// replay side re-runs the whole grid without a single interpreter
// traversal.
func BenchmarkSweepReplay(b *testing.B) {
	ctx := context.Background()
	base := expt.Config{Budget: benchBudget, Parallel: 1}
	run := func(b *testing.B, cfg expt.Config) {
		for i := 0; i < b.N; i++ {
			if _, err := expt.Sweep(ctx, cfg, expt.SweepSpec{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("interpret", func(b *testing.B) { run(b, base) })
	b.Run("replay", func(b *testing.B) {
		a, err := dynloop.OpenTraceArchive(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		cfg := base
		cfg.Traces = dynloop.NewTraces(a)
		if _, err := expt.Sweep(ctx, cfg, expt.SweepSpec{}); err != nil { // record once
			b.Fatal(err)
		}
		before := harness.Traversals()
		b.ResetTimer()
		run(b, cfg)
		b.StopTimer()
		b.ReportMetric(float64(harness.Traversals()-before)/float64(b.N), "traversals")
	})
}
