package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"time"

	"dynloop/internal/branchpred"
	"dynloop/internal/builder"
	"dynloop/internal/codec"
	"dynloop/internal/datapred"
	"dynloop/internal/grid"
	"dynloop/internal/harness"
	"dynloop/internal/loopdet"
	"dynloop/internal/loopstats"
	"dynloop/internal/looptab"
	"dynloop/internal/obs"
	"dynloop/internal/spec"
	"dynloop/internal/store"
	"dynloop/internal/taskpred"
	"dynloop/internal/trace"
	"dynloop/internal/tracefile"
	"dynloop/internal/wire"
	"dynloop/internal/workload"
)

// probeUnits is how many of the workload's benchmarks the layer probes
// traverse; probeRepeats is how many times each probe runs (median).
const (
	probeUnits   = 3
	probeRepeats = 3
)

// probeUnitsFrom builds a seeded sample of the named benchmarks.
func (e *env) probeUnitsFrom(names []string) (map[string]*builder.Unit, error) {
	units := map[string]*builder.Unit{}
	for _, i := range e.rng.Perm(len(names))[:min(probeUnits, len(names))] {
		bm, err := workload.ByName(names[i])
		if err != nil {
			return nil, err
		}
		u, err := bm.Build(e.seed)
		if err != nil {
			return nil, err
		}
		units[bm.Name] = u
	}
	return units, nil
}

// probeLayers measures every layer the same way on every workload, on
// the workload's own units and cells: per-instruction interpreter and
// pass costs, archive record/decode, grid rendering, codec, store and,
// unless the workload's own path crossed HTTP (httpMeasured), the
// server, client and wire layers.
func (e *env) probeLayers(ctx context.Context, units map[string]*builder.Unit, results map[string]*grid.Result, httpMeasured bool) error {
	if len(units) > probeUnits {
		sample, err := e.probeUnitsFrom(sortedKeys(units))
		if err != nil {
			return err
		}
		units = sample
	}
	if err := e.probeInterp(units); err != nil {
		return err
	}
	if err := e.probeArchive(ctx, units); err != nil {
		return err
	}
	var values []any
	var renderMS []float64
	for _, name := range sortedKeys(results) {
		values = append(values, results[name].Values...)
		t0 := time.Now()
		_, err := grid.RenderResult(results[name])
		e.spans.add(0, 0, "grid", "render", t0, time.Now())
		renderMS = append(renderMS, ms(time.Since(t0)))
		if err != nil {
			e.fail(fmt.Errorf("render %s: %w", name, err))
		}
	}
	e.layers.set("grid.render_ms", "ms", median(renderMS))
	if err := e.probeCodec(values); err != nil {
		return err
	}
	if err := e.probeWire(results); err != nil {
		return err
	}
	fx, err := newFixture(results, e.size.budget, e.seed)
	if err != nil {
		return err
	}
	dir := filepath.Join(e.work, "probe-store")
	if err := e.probeStore(dir, fx); err != nil {
		return err
	}
	if !httpMeasured {
		return e.probeServer(ctx, dir, fx)
	}
	return nil
}

// refNsPerInstr times the in-tree reference interpreter on swim with a
// nil sink: the host calibration every other figure can be divided by,
// printed with the host stamp of every result.
func (e *env) refNsPerInstr() (float64, error) {
	bm, err := workload.ByName("swim")
	if err != nil {
		return 0, err
	}
	u, err := bm.Build(1)
	if err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < probeRepeats; i++ {
		cpu := u.NewCPU()
		cpu.SetReference(true)
		start := time.Now()
		n, err := cpu.Run(e.size.probeBudget, nil)
		if err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(xs), nil
}

// passSet is one probe configuration: the passes of a traversal and
// whether to force full-event delivery.
type passSet struct {
	name  string
	full  bool
	build func() []trace.Pass
}

func (e *env) probeInterp(units map[string]*builder.Unit) error {
	// Per-Run fixed cost: many one-instruction Runs on a live CPU.
	var fixed []float64
	for _, u := range units {
		cpu := u.NewCPU()
		const calls = 20000
		start := time.Now()
		for i := 0; i < calls; i++ {
			if _, err := cpu.Run(1, nil); err != nil {
				return err
			}
		}
		fixed = append(fixed, float64(time.Since(start).Nanoseconds())/calls)
	}
	e.layers.set("interp.run_fixed_ns", "ns", median(fixed))

	det := func(mk func() loopdet.Observer) func() []trace.Pass {
		return func() []trace.Pass {
			if mk == nil {
				return []trace.Pass{harness.NewObserverPass(0)}
			}
			return []trace.Pass{harness.NewObserverPass(0, mk())}
		}
	}
	observers := map[string]func() loopdet.Observer{
		"loopstats": func() loopdet.Observer { return loopstats.NewCollector() },
		"looptab":   func() loopdet.Observer { return looptab.NewTracker(16, 16) },
		"spec":      func() loopdet.Observer { return spec.NewEngine(spec.Config{TUs: 4, Policy: spec.STRn(3)}) },
		"datapred":  func() loopdet.Observer { return datapred.NewCollector(datapred.Config{}) },
		"taskpred":  func() loopdet.Observer { return taskpred.New(taskpred.Config{}) },
	}
	sets := []passSet{
		{name: "nil-ctl", build: func() []trace.Pass { return nil }},
		{name: "nil-full", full: true, build: func() []trace.Pass { return nil }},
		{name: "loopdet", build: det(nil)},
		{name: "loopdet-stream", build: det(func() loopdet.Observer { return nopStream{} })},
		{name: "branchpred", build: func() []trace.Pass { return []trace.Pass{branchpred.DefaultSuite()} }},
	}
	for _, name := range sortedKeys(observers) {
		sets = append(sets, passSet{name: name, build: det(observers[name])})
	}
	ns := map[string]float64{}
	var instrs uint64
	for _, s := range sets {
		var xs []float64
		for i := 0; i < probeRepeats; i++ {
			var total time.Duration
			var n uint64
			for _, name := range sortedKeys(units) {
				start := time.Now()
				res, err := harness.MultiRun(units[name], harness.MultiConfig{Budget: e.size.probeBudget, FullPlanes: s.full}, s.build()...)
				if err != nil {
					return fmt.Errorf("probe %s on %s: %w", s.name, name, err)
				}
				total += time.Since(start)
				n += res.Executed
			}
			xs = append(xs, float64(total.Nanoseconds())/float64(n))
			instrs = n
		}
		ns[s.name] = median(xs)
	}
	e.layers.set("interp.ctl_ns_per_instr", "ns", ns["nil-ctl"])
	e.layers.set("interp.full_ns_per_instr", "ns", ns["nil-full"])
	e.layers.set("loopdet.ns_per_instr", "ns", ns["loopdet"]-ns["nil-ctl"])
	e.layers.set("branchpred.ns_per_instr", "ns", ns["branchpred"]-ns["nil-ctl"])
	// An observer that reads the raw stream pulls the traversal onto the
	// full plane; its marginal cost is over a detector that does too.
	for name, mk := range observers {
		base := ns["loopdet"]
		if _, stream := mk().(loopdet.StreamObserver); stream {
			base = ns["loopdet-stream"]
		}
		e.layers.set(name+".ns_per_instr", "ns", ns[name]-base)
	}
	e.info["probe"] = map[string]any{"units": sortedKeys(units), "instructions_per_traversal_set": instrs, "ns_per_instr": ns}
	return nil
}

// nopStream is a raw-stream observer that does nothing: with it a
// detector runs on the full plane, as it does under the statistics
// observers.
type nopStream struct{ loopdet.NopObserver }

func (nopStream) Instr(*trace.Event)       {}
func (nopStream) InstrBatch([]trace.Event) {}

// nopCtl is a control-plane-only sink that discards what it is given.
type nopCtl struct{}

func (nopCtl) ConsumeBatch([]trace.Event)                {}
func (nopCtl) ConsumeCtlBatch([]trace.CtlEvent, []int32) {}

// probeArchive records the probe units into a fresh archive, reopens it
// and replays every recording into a control-plane and a full-plane
// sink.
func (e *env) probeArchive(ctx context.Context, units map[string]*builder.Unit) error {
	dir := filepath.Join(e.work, "probe-traces")
	start := time.Now()
	if err := recordArchive(ctx, dir, units, e.seed, e.size.probeBudget, 1); err != nil {
		return err
	}
	recordNs := float64(time.Since(start).Nanoseconds())
	var opens []float64
	var arch *tracefile.Archive
	for i := 0; i < probeRepeats; i++ {
		t0 := time.Now()
		a, err := tracefile.OpenArchive(dir)
		if err != nil {
			return err
		}
		opens = append(opens, time.Since(t0).Seconds())
		arch = a
	}
	var events uint64
	var bytes int64
	for _, rec := range arch.Recordings() {
		events += rec.Events()
		bytes += rec.Size()
	}
	decode := func(sink trace.BatchConsumer) float64 {
		var xs []float64
		var d tracefile.Decoder
		for i := 0; i < probeRepeats; i++ {
			t0 := time.Now()
			var n uint64
			for _, rec := range arch.Recordings() {
				got, _, err := rec.Replay(0, &d, sink)
				if err != nil {
					e.fail(err)
				}
				n += got
			}
			xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(max(n, 1)))
		}
		return median(xs)
	}
	e.layers.set("tracefile.record_ns_per_event", "ns", recordNs/float64(max(events, 1)))
	e.layers.set("tracefile.open_s", "s", median(opens))
	e.layers.set("tracefile.archive_bytes", "bytes", float64(bytes))
	e.layers.set("tracefile.bytes_per_event", "bytes", float64(bytes)/float64(max(events, 1)))
	e.layers.set("tracefile.decode_ctl_ns_per_event", "ns", decode(nopCtl{}))
	e.layers.set("tracefile.decode_full_ns_per_event", "ns", decode(trace.BatchConsumerFunc(func([]trace.Event) {})))
	return nil
}

// probeCodec encodes and decodes every cell value, timing each pass
// over the whole set until it has run for a while.
func (e *env) probeCodec(values []any) error {
	frames := make([][]byte, len(values))
	var enc, dec []float64
	deadline := time.Now().Add(200 * time.Millisecond)
	for len(enc) < probeRepeats || time.Now().Before(deadline) {
		t0 := time.Now()
		for i, v := range values {
			f, err := codec.Encode(v)
			if err != nil {
				return err
			}
			frames[i] = f
		}
		enc = append(enc, us(time.Since(t0))/float64(len(values)))
		t0 = time.Now()
		for _, f := range frames {
			if _, err := codec.Decode(f); err != nil {
				return err
			}
		}
		dec = append(dec, us(time.Since(t0))/float64(len(values)))
	}
	e.layers.set("codec.encode_us_per_cell", "us", median(enc))
	e.layers.set("codec.decode_us_per_cell", "us", median(dec))
	return nil
}

// probeWire decodes each of the workload's grids as one wire response,
// the payload a grid request returns, timing each decode.
func (e *env) probeWire(results map[string]*grid.Result) error {
	var payloads [][]byte
	for _, name := range sortedKeys(results) {
		b, err := wire.AppendCells(nil, results[name].Values)
		if err != nil {
			return err
		}
		payloads = append(payloads, b)
	}
	var dec []float64
	deadline := time.Now().Add(200 * time.Millisecond)
	for len(dec) < probeRepeats || time.Now().Before(deadline) {
		for _, b := range payloads {
			t0 := time.Now()
			_, err := wire.DecodeCells(b)
			end := time.Now()
			e.spans.add(0, 0, "wire", "decode", t0, end)
			if err != nil {
				return err
			}
			dec = append(dec, us(end.Sub(t0)))
		}
	}
	e.layers.set("wire.decode_us", "us", median(dec))
	return nil
}

// probeStore writes the workload's cells under their own keys into a
// fresh store, reopens it and reads every key back, timing each call.
// The store is left closed at dir for probeServer.
func (e *env) probeStore(dir string, fx *fixture) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	var puts []float64
	for _, k := range fx.keys {
		t0 := time.Now()
		if err := st.Put(k, fx.frames[k]); err != nil {
			st.Close()
			return err
		}
		puts = append(puts, us(time.Since(t0)))
	}
	if err := st.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	st, err = store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	openMS := ms(time.Since(t0))
	var gets []float64
	for round := 0; round < probeRepeats; round++ {
		for _, k := range fx.keys {
			t0 := time.Now()
			got, ok, err := st.Get(k)
			gets = append(gets, us(time.Since(t0)))
			e.check(err == nil && ok && string(got) == string(fx.frames[k]), "store probe: %q did not read back", k)
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	e.layers.set("store.open_ms", "ms", openMS)
	e.layers.set("store.get_us.p50", "us", quantile(gets, 0.5))
	e.layers.set("store.get_us.p99", "us", quantile(gets, 0.99))
	e.layers.set("store.put_us.p99", "us", quantile(puts, 0.99))
	return nil
}

// serverProbeCalls is the size of the request mix probeServer sends.
const serverProbeCalls = 300

// probeServer sends a closed-loop request mix to an in-process server
// over the probe store, for workloads whose own path does not cross
// HTTP.
func (e *env) probeServer(ctx context.Context, dir string, fx *fixture) error {
	p, err := startInProcess(ctx, dir, e.spans, nil)
	if err != nil {
		return err
	}
	lc := newLoadClient(p.url, e.spans)
	g := &gen{e: e, fx: fx}
	calls := make([]*call, serverProbeCalls)
	for i := range calls {
		calls[i] = g.next(0)
	}
	lc.run(ctx, calls, false)
	lc.close()
	if err := p.stop(); err != nil {
		return err
	}
	var pending []*call
	g.verify(calls, &pending)
	e.checkWrites(ctx, pending)
	e.serverLayers(calls)
	return nil
}

// replayEvents reads the process's replayed-event counter from the
// metrics registry.
func replayEvents() uint64 {
	rec := httptest.NewRecorder()
	obs.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	vals, err := obs.ParseText(rec.Body.Bytes())
	if err != nil {
		return 0
	}
	return uint64(vals["dynloop_replay_events_total"])
}
