package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"dynloop/internal/builder"
	"dynloop/internal/codec"
	"dynloop/internal/expt"
	"dynloop/internal/grid"
	"dynloop/internal/harness"
	"dynloop/internal/interp"
	"dynloop/internal/runner"
	"dynloop/internal/spec"
	"dynloop/internal/store"
	"dynloop/internal/tracefile"
	"dynloop/internal/workload"
)

// paperWorkers is the worker count of every paper run and of the
// daemon: the benchmark is sized for a 2-CPU host.
const paperWorkers = 2

// replaySetups is how many times paper-replay records its archive in
// set-up: each recording takes seconds, not milliseconds.
const replaySetups = 3

// paperTraversals is the number of interpreter traversals (or replays)
// one `experiment all` report takes with traversal fusion.
const paperTraversals = 306

// replayWarmGrid is the registered grid paper-replay re-renders from its
// archive in the warm phase.
const replayWarmGrid = "table2"

func (e *env) paperConfig(r *runner.Runner) expt.Config {
	return expt.Config{Budget: e.size.budget, Seed: e.seed, Parallel: paperWorkers, Runner: r}
}

func (e *env) newRunner(cache runner.Cache) (*runner.Runner, *jobRecorder) {
	rc := runner.Config{Workers: paperWorkers, Cache: cache}
	var jobs *jobRecorder
	if e.traced {
		jobs = &jobRecorder{log: e.spans}
		rc.OnEvent = jobs.onEvent
	}
	return runner.New(rc), jobs
}

// buildUnits builds every benchmark's program for the run's seed: the
// unit build both paper workloads count as set-up.
func (e *env) buildUnits() (map[string]*builder.Unit, error) {
	units := map[string]*builder.Unit{}
	for _, bm := range workload.All() {
		u, err := bm.Build(e.seed)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", bm.Name, err)
		}
		units[bm.Name] = u
	}
	return units, nil
}

// timeSetups runs setup n times and reports the median as setup_s.
func (e *env) timeSetups(n int, setup func(i int) error) error {
	var secs []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := setup(i); err != nil {
			return err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	e.res.Metrics.set("setup_s", "s", median(secs))
	e.info["setup_runs_s"] = secs
	return nil
}

// settle collects the heap and returns freed memory to the OS, so a
// round's resident set does not carry what earlier work left behind.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

func runPaperInterpret(ctx context.Context, e *env) error {
	var units map[string]*builder.Unit
	if err := e.timeSetups(e.size.setups, func(int) error {
		var err error
		units, err = e.buildUnits()
		return err
	}); err != nil {
		return err
	}
	// Each round: the whole report, interpreted into a fresh store; then
	// a share of the warm re-renders, each through a fresh runner over
	// the reopened store. Interleaving spreads both over the whole run.
	var ph *report
	var walls, mips, lat, opens, peaks []float64
	var values map[string]*grid.Result
	var tc *timingCache
	var jobs *jobRecorder
	for i := 0; i < e.size.reports; i++ {
		settle()
		rss := startRSS()
		storeDir := filepath.Join(e.work, fmt.Sprintf("store-%d", i))
		start := time.Now()
		st, err := store.Open(storeDir, store.Options{})
		if err != nil {
			return err
		}
		var cache runner.Cache = store.NewCache(st)
		if e.traced {
			tc = &timingCache{inner: cache, log: e.spans}
			cache = tc
		}
		var r *runner.Runner
		r, jobs = e.newRunner(cache)
		ph, err = e.runReport(ctx, r, nil, start)
		if err == nil && i == e.size.reports-1 {
			values, err = e.afterReport(ctx, ph)
		}
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		e.check(ph.travDelta == paperTraversals, "paper-interpret: %d traversals, want %d", ph.travDelta, paperTraversals)
		e.check(ph.replayDelta == 0, "paper-interpret: %d replays, want 0", ph.replayDelta)
		walls = append(walls, ph.wall.Seconds())
		mips = append(mips, float64(ph.instrs)/ph.wall.Seconds()/1e6)

		openStart := time.Now()
		if st, err = store.Open(storeDir, store.Options{}); err != nil {
			return err
		}
		opens = append(opens, ms(time.Since(openStart)))
		cache = store.NewCache(st)
		if e.traced {
			tc.inner = cache
			cache = tc
		}
		for j := 0; j < e.size.warmRenders/e.size.reports; j++ {
			wr, _ := e.newRunner(cache)
			t0 := time.Now()
			id := e.spans.open()
			out, err := expt.All(ctx, e.paperConfig(wr))
			e.spans.record(id, 0, 0, "e2e", "warm_render", t0, time.Now())
			lat = append(lat, ms(time.Since(t0)))
			if err != nil {
				e.fail(err)
				continue
			}
			e.check(digest(out) == ph.digest && wr.Stats().Executed == 0,
				"paper-interpret: warm re-render differs from the cold report or executed %d jobs", wr.Stats().Executed)
		}
		peaks = append(peaks, rss.Stop())
		if err := st.Close(); err != nil {
			return err
		}
		if err := os.RemoveAll(storeDir); err != nil {
			return err
		}
	}
	p90 := e.paperMetrics(walls, lat, peaks)
	e.info["workload_metrics"] = map[string]any{
		"lat_p90_ms":     p90,
		"warm_render_ms": metric{median(lat), "ms"},
		"store_open_ms":  metric{median(opens), "ms"},
		"sim_mips":       metric{median(mips), "Minstr/s"},
	}
	if !e.traced {
		return nil
	}
	e.runnerLayers(ph.runner, jobs, ph.wall)
	e.layers.set("store.gets", "count", float64(tc.gets.Load()))
	e.layers.set("store.puts", "count", float64(tc.puts.Load()))
	return e.probeLayers(ctx, units, values, false)
}

func runPaperReplay(ctx context.Context, e *env) error {
	var units map[string]*builder.Unit
	var arch *tracefile.Archive
	var openS float64
	tracesDir := ""
	if err := e.timeSetups(replaySetups, func(i int) error {
		var err error
		if units, err = e.buildUnits(); err != nil {
			return err
		}
		if tracesDir != "" {
			arch = nil
			if err := os.RemoveAll(tracesDir); err != nil {
				return err
			}
		}
		tracesDir = filepath.Join(e.work, fmt.Sprintf("traces-%d", i))
		if err := recordArchive(ctx, tracesDir, units, e.seed, e.size.budget, paperWorkers); err != nil {
			return err
		}
		t0 := time.Now()
		arch, err = tracefile.OpenArchive(tracesDir)
		openS = time.Since(t0).Seconds()
		return err
	}); err != nil {
		return err
	}
	traces := harness.NewTraces(arch)

	// Each round: the report over the archive, where every group replays,
	// nothing is interpreted and there is no result store; then a share
	// of the warm renders of one registered grid at a reduced budget,
	// each through a fresh runner over the same archive.
	ent, _ := grid.Lookup(replayWarmGrid)
	var ph *report
	var walls, mips, lat, peaks []float64
	var jobs *jobRecorder
	first := ""
	for i := 0; i < e.size.reports; i++ {
		settle()
		rss := startRSS()
		var r *runner.Runner
		r, jobs = e.newRunner(nil)
		ev0 := replayEvents()
		var err error
		if ph, err = e.runReport(ctx, r, traces, time.Now()); err != nil {
			return err
		}
		ph.instrs = replayEvents() - ev0
		e.check(ph.travDelta == 0, "paper-replay: %d traversals, want 0", ph.travDelta)
		e.check(ph.replayDelta == paperTraversals, "paper-replay: %d replays, want %d", ph.replayDelta, paperTraversals)
		walls = append(walls, ph.wall.Seconds())
		mips = append(mips, float64(ph.instrs)/ph.wall.Seconds()/1e6)

		trav := harness.Traversals()
		for j := 0; j < e.size.warmRenders/3/e.size.reports; j++ {
			wr, _ := e.newRunner(nil)
			cfg := expt.Config{Budget: e.size.budget / 16, Seed: e.seed, Runner: wr, Traces: traces}
			t0 := time.Now()
			id := e.spans.open()
			res, err := grid.Run(ctx, cfg, ent.Spec)
			var out string
			if err == nil {
				out, err = grid.RenderResult(res)
			}
			e.spans.record(id, 0, 0, "e2e", "warm_render", t0, time.Now())
			lat = append(lat, ms(time.Since(t0)))
			if err != nil {
				e.fail(err)
				continue
			}
			if first == "" {
				first = digest(out)
			}
			e.check(digest(out) == first && wr.Stats().ReplayRuns > 0 && harness.Traversals() == trav,
				"paper-replay: warm %s render changed or did not replay", replayWarmGrid)
		}
		peaks = append(peaks, rss.Stop())
	}
	values, err := e.afterReport(ctx, ph)
	if err != nil {
		return err
	}
	e.crossCheckInterpreted(ctx, ph)
	p90 := e.paperMetrics(walls, lat, peaks)
	e.info["workload_metrics"] = map[string]any{
		"lat_p90_ms":          p90,
		"warm_grid_render_ms": metric{median(lat), "ms"},
		"archive_open_s":      metric{openS, "s"},
		"archive_bytes":       archiveBytes(arch),
		"sim_mips":            metric{median(mips), "Minstr/s"},
	}
	if !e.traced {
		return nil
	}
	e.runnerLayers(ph.runner, jobs, ph.wall)
	e.layers.set("store.gets", "count", 0)
	e.layers.set("store.puts", "count", 0)
	return e.probeLayers(ctx, units, values, false)
}

// report is the outcome of one `experiment all`.
type report struct {
	runner                 *runner.Runner
	cfg                    expt.Config
	wall                   time.Duration
	instrs                 uint64 // simulated instructions interpreted
	digest                 string
	travDelta, replayDelta uint64
}

// runReport renders `experiment all` through r (and the replay tier when
// traces is set); start is when the timed report began.
func (e *env) runReport(ctx context.Context, r *runner.Runner, traces *harness.Traces, start time.Time) (*report, error) {
	cfg := e.paperConfig(r)
	cfg.Traces = traces
	trav0, rep0, instr0 := harness.Traversals(), harness.Replays(), interp.Instructions()
	id := e.spans.open()
	out, err := expt.All(ctx, cfg)
	end := time.Now()
	e.spans.record(id, 0, 0, "e2e", "report", start, end)
	if err != nil {
		return nil, fmt.Errorf("experiment all: %w", err)
	}
	ph := &report{
		runner:      r,
		cfg:         cfg,
		wall:        end.Sub(start),
		instrs:      interp.Instructions() - instr0,
		digest:      e.tampered(digest(out)),
		travDelta:   harness.Traversals() - trav0,
		replayDelta: harness.Replays() - rep0,
	}
	e.check(e.digestAgrees(ph.digest), "%s: report digest %s differs from an earlier run of seed %d", e.workload, ph.digest, e.seed)
	e.info["report_sha256"] = ph.digest
	e.layers.set("harness.traversals", "count", float64(ph.travDelta))
	e.layers.set("harness.replays", "count", float64(ph.replayDelta))
	e.layers.set("interp.instructions", "count", float64(ph.instrs))
	return ph, nil
}

// afterReport runs every registered grid again on the report's runner
// (all memory hits) to get the report's cell values: for paper_rel_err,
// and in traced runs for the grid, codec and store probes.
func (e *env) afterReport(ctx context.Context, ph *report) (map[string]*grid.Result, error) {
	results := map[string]*grid.Result{}
	for _, name := range grid.Names() {
		if name == "sweep" {
			continue // not part of `experiment all`
		}
		ent, _ := grid.Lookup(name)
		res, err := grid.Run(ctx, ph.cfg, ent.Spec)
		if err != nil {
			return nil, fmt.Errorf("grid %s: %w", name, err)
		}
		results[name] = res
	}
	relErr, n, err := paperRelErr(results["table1"], results["table2"])
	if err != nil {
		return nil, err
	}
	e.check(n > 0 && !math.IsNaN(relErr), "paper_rel_err: no comparable quantities")
	e.res.Metrics.set("paper_rel_err", "ratio", relErr)
	return results, nil
}

// crossCheckInterpreted interprets a seeded sample of two benchmarks'
// Table 2 cells without the archive and compares them byte for byte with
// the replayed report's cells.
func (e *env) crossCheckInterpreted(ctx context.Context, ph *report) {
	names := workload.Names()
	perm := e.rng.Perm(len(names))
	pick := []string{names[perm[0]], names[perm[1]]}
	ent, _ := grid.Lookup("table2")
	replayed, err := grid.Run(ctx, expt.Config{Budget: e.size.budget, Seed: e.seed, Runner: ph.runner, Benchmarks: pick}, ent.Spec)
	if err != nil {
		e.fail(err)
		return
	}
	interpreted, err := grid.Run(ctx, expt.Config{Budget: e.size.budget, Seed: e.seed, Parallel: paperWorkers, Benchmarks: pick}, ent.Spec)
	if err != nil {
		e.fail(err)
		return
	}
	e.check(sameValues(replayed.Values, interpreted.Values), "paper-replay: replayed table2 cells of %v differ from interpreted ones", pick)
}

// paperMetrics sets the end-to-end metrics both paper workloads share:
// the median report, the warm renders' median as a median over
// latWindows consecutive windows, so one stall does not move it, and
// the median of the rounds' peak resident sets (each round starts from
// a collected heap, so GC timing in one round does not set the figure).
// The warm renders' p90 is printed beside them, not gated.
func (e *env) paperMetrics(walls, lat, peaks []float64) metric {
	e.res.Metrics.set("wall_s", "s", median(walls))
	e.res.Metrics.set("lat_p50_ms", "ms", windowed(lat, 0.5))
	e.res.Metrics.set("peak_rss_mb", "MiB", median(peaks))
	e.info["report_wall_s"] = walls
	return metric{windowed(lat, 0.9), "ms"}
}

// runnerLayers records the runner's per-layer metrics for the timed
// report.
func (e *env) runnerLayers(r *runner.Runner, jobs *jobRecorder, wall time.Duration) {
	s := r.Stats()
	e.layers.set("runner.executed", "count", float64(s.Executed))
	e.layers.set("runner.group_runs", "count", float64(s.GroupRuns))
	e.layers.set("runner.cache_hits", "count", float64(s.CacheHits))
	e.layers.set("runner.disk_hits", "count", float64(s.DiskHits))
	var busy time.Duration
	var jm []float64
	for _, d := range jobs.durations() {
		busy += d
		jm = append(jm, ms(d))
	}
	e.layers.set("runner.job_busy_s", "s", busy.Seconds())
	e.layers.set("runner.job_p99_ms", "ms", quantile(jm, 0.99))
	e.layers.set("runner.worker_idle_s", "s", max(0, float64(r.Workers())*wall.Seconds()-busy.Seconds()))
}

// recordArchive records every unit's stream into a fresh archive at
// dir, workers benchmarks at a time, through the replay tier's front
// door.
func recordArchive(ctx context.Context, dir string, units map[string]*builder.Unit, seed, budget uint64, workers int) error {
	arch, err := tracefile.OpenArchive(dir)
	if err != nil {
		return err
	}
	traces := harness.NewTraces(arch)
	names := sortedKeys(units)
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, name := range names {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, name string) {
			defer wg.Done()
			defer func() { <-sem }()
			u := units[name]
			_, replayed, err := traces.MultiRun(ctx, name, seed,
				func() (*builder.Unit, error) { return u, nil }, harness.MultiConfig{Budget: budget})
			if err == nil && replayed {
				err = fmt.Errorf("record %s: archive already held it", name)
			}
			errs[i] = err
		}(i, name)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func archiveBytes(a *tracefile.Archive) int64 {
	var n int64
	for _, rec := range a.Recordings() {
		n += rec.Size()
	}
	return n
}

// paperRelErr is the mean relative error of the reproduced Table 1
// (iterations per execution, instructions per iteration, average
// nesting) and Table 2 (TPC at 4 TUs, hit ratio) against the paper's
// published rows.
func paperRelErr(t1, t2 *grid.Result) (float64, int, error) {
	if t1 == nil || t2 == nil {
		return 0, 0, errors.New("paper_rel_err: table1 or table2 missing")
	}
	var total float64
	var n int
	add := func(got, want float64) {
		if want != 0 {
			total += math.Abs(got-want) / math.Abs(want)
			n++
		}
	}
	for _, v := range t1.Values {
		row, ok := v.(grid.Table1Row)
		if !ok {
			return 0, 0, fmt.Errorf("paper_rel_err: table1 value is %T", v)
		}
		add(row.S.ItersPerExec, row.Paper.ItersPerExec)
		add(row.S.InstrPerIter, row.Paper.InstrPerIter)
		add(row.S.AvgNesting, row.Paper.AvgNL)
	}
	for i, v := range t2.Values {
		m, ok := v.(spec.Metrics)
		if !ok {
			return 0, 0, fmt.Errorf("paper_rel_err: table2 value is %T", v)
		}
		bm, err := workload.ByName(t2.Cells[i].Coord.Bench)
		if err != nil {
			return 0, 0, err
		}
		add(m.TPC(), bm.Paper.TPC4)
		add(m.HitRatio(), bm.Paper.HitRatio)
	}
	if n == 0 {
		return math.NaN(), 0, nil
	}
	return total / float64(n), n, nil
}

// sameValues compares two cell-value lists by their codec frames.
func sameValues(a, b []any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		fa, err1 := codec.Encode(a[i])
		fb, err2 := codec.Encode(b[i])
		if err1 != nil || err2 != nil || string(fa) != string(fb) {
			return false
		}
	}
	return true
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// digestAgrees compares a report digest with the one an earlier run of
// the same sources, seed and budget left in the checkout, whichever
// paper workload made it, and records it when there is none. Keying by
// the source digest keeps one version's report from judging another's.
func (e *env) digestAgrees(d string) bool {
	dir := filepath.Join(e.root, ".bench_build", "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false
	}
	path := filepath.Join(dir, fmt.Sprintf("src%s-seed%d-budget%d", e.src, e.seed, e.size.budget))
	if prev, err := os.ReadFile(path); err == nil {
		return string(prev) == d
	}
	if e.tamper {
		return true // a tampered digest is never recorded
	}
	tmp := path + fmt.Sprintf(".%d", os.Getpid())
	if err := os.WriteFile(tmp, []byte(d), 0o644); err != nil {
		return false
	}
	return os.Rename(tmp, path) == nil
}
