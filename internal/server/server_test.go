package server

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dynloop/internal/client"
	"dynloop/internal/expt"
	"dynloop/internal/grid"
	"dynloop/internal/spec"
	"dynloop/internal/store"
	"dynloop/internal/wire"
)

// testCfg and testSweep are the small grid most daemon tests share: the
// registered sweep narrowed to 2 benchmarks × 2 policies × 2 TU counts
// at a 50k budget.
var (
	testCfg       = expt.Config{Budget: 50_000, Benchmarks: []string{"swim", "compress"}}
	testSweepSpec = expt.SweepSpec{Policies: []spec.Policy{spec.STR(), spec.STRn(3)}, TUs: []int{2, 4}}
	testSweep     = testSweepSpec.GridSpec()
)

// runGrid executes gs on the daemon (POST /v1/grid, spec inline) under
// cfg's defaults and pairs the returned values with the spec's cell
// expansion, the way `dynloop sweep -remote` does.
func runGrid(ctx context.Context, c *client.Client, cfg expt.Config, gs grid.Spec) (*grid.Result, error) {
	values, err := c.Grid(ctx, wire.GridRequest{
		Spec:       &gs,
		Benchmarks: cfg.Benchmarks,
		Budget:     cfg.Budget,
		Seed:       cfg.Seed,
		BatchSize:  cfg.BatchSize,
	})
	if err != nil {
		return nil, err
	}
	return grid.ResultFrom(cfg, gs, values)
}

// render formats a grid result, failing the test on error.
func render(t *testing.T, res *grid.Result) string {
	t.Helper()
	out, err := grid.RenderResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// newTestDaemon starts a daemon over httptest and returns a client.
func newTestDaemon(t *testing.T, cfg Config) (*Server, *client.Client) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, client.New(hs.URL, hs.Client())
}

// TestRemoteSweepByteIdentical is the acceptance criterion: the remote
// path must render byte-identical output to the local path, at 1 and
// at 8 workers.
func TestRemoteSweepByteIdentical(t *testing.T) {
	ctx := context.Background()
	localCfg := testCfg
	localCfg.Parallel = 1
	localRows, err := expt.Sweep(ctx, localCfg, testSweepSpec)
	if err != nil {
		t.Fatal(err)
	}
	want := expt.RenderSweep(localRows)

	for _, workers := range []int{1, 8} {
		_, c := newTestDaemon(t, Config{Workers: workers})
		res, err := runGrid(ctx, c, testCfg, testSweep)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := render(t, res); got != want {
			t.Fatalf("workers=%d: remote render differs:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}

// TestDaemonSharesCellsAcrossClients: two clients asking overlapping
// grids compute the overlap once.
func TestDaemonSharesCellsAcrossClients(t *testing.T) {
	ctx := context.Background()
	s, c := newTestDaemon(t, Config{Workers: 4})
	if _, err := runGrid(ctx, c, testCfg, testSweep); err != nil {
		t.Fatal(err)
	}
	executed := s.Runner().Stats().Executed
	if _, err := runGrid(ctx, c, testCfg, testSweep); err != nil {
		t.Fatal(err)
	}
	st := s.Runner().Stats()
	if st.Executed != executed {
		t.Fatalf("identical second sweep executed %d new cells", st.Executed-executed)
	}
	if st.CacheHits == 0 {
		t.Fatalf("second sweep produced no cache hits: %+v", st)
	}
}

// TestDaemonStoreTier: a daemon restarted over the same store serves a
// repeat sweep from disk without executing anything.
func TestDaemonStoreTier(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, c1 := newTestDaemon(t, Config{Workers: 4, Store: st1})
	res1, err := runGrid(ctx, c1, testCfg, testSweep)
	if err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	s2, c2 := newTestDaemon(t, Config{Workers: 4, Store: st2})
	res2, err := runGrid(ctx, c2, testCfg, testSweep)
	if err != nil {
		t.Fatal(err)
	}
	if render(t, res1) != render(t, res2) {
		t.Fatal("store-served sweep differs from computed sweep")
	}
	rs := s2.Runner().Stats()
	if rs.Executed != 0 || rs.DiskHits == 0 {
		t.Fatalf("restarted daemon recomputed cells: %+v", rs)
	}

	// The stats endpoint reports the disk tier.
	stats, err := c2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runner.DiskHits != rs.DiskHits || stats.Store == nil || stats.Store.Records == 0 {
		t.Fatalf("stats endpoint: %+v", stats)
	}
}

// TestCellQuery: a persisted cell is queryable by its full
// configuration key and decodes to the exact metrics the grid
// returned for it.
func TestCellQuery(t *testing.T) {
	ctx := context.Background()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	_, c := newTestDaemon(t, Config{Workers: 2, Store: st})
	res, err := runGrid(ctx, c, testCfg, testSweep)
	if err != nil {
		t.Fatal(err)
	}
	keys := st.Keys()
	if len(keys) != len(res.Values) {
		t.Fatalf("store has %d keys for %d cells", len(keys), len(res.Values))
	}
	found := 0
	for _, key := range keys {
		v, err := c.Cell(ctx, key)
		if err != nil {
			t.Fatalf("Cell(%q): %v", key, err)
		}
		m, ok := v.(spec.Metrics)
		if !ok {
			t.Fatalf("Cell(%q) decoded to %T", key, v)
		}
		for _, v := range res.Values {
			if v == m {
				found++
				break
			}
		}
	}
	if found != len(keys) {
		t.Fatalf("only %d of %d cell queries matched a grid cell", found, len(keys))
	}
	if _, err := c.Cell(ctx, "no such key"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("absent key: %v", err)
	}
}

// TestEventsStream: an SSE subscriber sees the sweep's progress.
func TestEventsStream(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, c := newTestDaemon(t, Config{Workers: 2})

	var mu sync.Mutex
	kinds := map[string]int{}
	streamDone := make(chan error, 1)
	go func() {
		streamDone <- c.Events(ctx, func(ev wire.Event) {
			mu.Lock()
			kinds[ev.Kind]++
			mu.Unlock()
		})
	}()
	// Give the subscription a moment to attach before generating events.
	time.Sleep(50 * time.Millisecond)
	if _, err := runGrid(ctx, c, testCfg, testSweep); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		done := kinds["done"]
		mu.Unlock()
		if done > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("no done events seen: %v", kinds)
		case <-time.After(10 * time.Millisecond):
		}
	}
	cancel()
	if err := <-streamDone; err != nil {
		t.Fatalf("event stream: %v", err)
	}
}

// TestGracefulShutdown: cancelling the serve context stops the
// listener, ends event streams, and returns without error.
func TestGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := New(Config{Workers: 2})
	ready := make(chan string, 1)
	served := make(chan error, 1)
	go func() { served <- s.ListenAndServe(ctx, "127.0.0.1:0", ready, 5*time.Second) }()
	addr := <-ready
	c := client.New("http://"+addr, nil)
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}

	// An open SSE stream must not wedge shutdown.
	streamDone := make(chan error, 1)
	go func() { streamDone <- c.Events(context.Background(), func(wire.Event) {}) }()
	time.Sleep(50 * time.Millisecond)

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ListenAndServe: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	select {
	case <-streamDone:
	case <-time.After(5 * time.Second):
		t.Fatal("event stream did not end on shutdown")
	}
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("daemon still serving after shutdown")
	}
}

// TestSweepValidation: bad sweep grids fail fast with useful statuses.
func TestSweepValidation(t *testing.T) {
	ctx := context.Background()
	_, c := newTestDaemon(t, Config{Workers: 1, MaxCells: 4})
	cfg := expt.Config{Budget: 1000}
	badPolicy := expt.SweepSpec{}.GridSpec()
	badPolicy.Policies = []string{"warp-drive"}
	cases := []struct {
		cfg expt.Config
		gs  grid.Spec
	}{
		{expt.Config{Budget: 1000, Benchmarks: []string{"nope"}}, expt.SweepSpec{}.GridSpec()},
		{cfg, badPolicy},
		{cfg, expt.SweepSpec{TUs: []int{-1}}.GridSpec()},
		{cfg, expt.SweepSpec{}.GridSpec()}, // full default grid exceeds MaxCells=4
	}
	for i, tc := range cases {
		if _, err := runGrid(ctx, c, tc.cfg, tc.gs); err == nil {
			t.Errorf("case %d accepted: %+v", i, tc)
		}
	}
}

// TestRemoteGridByteIdentical: a grid executed remotely — by registered
// name AND as an inline ad-hoc spec — renders byte-identically to the
// local path, at 1 and 8 workers.
func TestRemoteGridByteIdentical(t *testing.T) {
	ctx := context.Background()
	cfg := expt.Config{Budget: 60_000, Benchmarks: []string{"swim", "compress"}, Parallel: 1}

	adhoc := grid.Spec{
		Kind:     "spec",
		Seeds:    []uint64{1, 2},
		TUs:      []int{2, 4},
		Policies: []string{"str"},
	}
	localRes, err := grid.Run(ctx, cfg, adhoc)
	if err != nil {
		t.Fatal(err)
	}
	wantAdhoc, err := grid.RenderResult(localRes)
	if err != nil {
		t.Fatal(err)
	}
	namedEntry, ok := grid.Lookup("table2")
	if !ok {
		t.Fatal("table2 not registered")
	}
	namedRes, err := grid.Run(ctx, cfg, namedEntry.Spec)
	if err != nil {
		t.Fatal(err)
	}
	wantNamed, err := grid.RenderResult(namedRes)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		_, c := newTestDaemon(t, Config{Workers: workers})
		req := wire.GridRequest{Spec: &adhoc, Budget: cfg.Budget, Benchmarks: cfg.Benchmarks}
		values, err := c.Grid(ctx, req)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		res, err := grid.ResultFrom(cfg, adhoc, values)
		if err != nil {
			t.Fatal(err)
		}
		got, err := grid.RenderResult(res)
		if err != nil || got != wantAdhoc {
			t.Fatalf("workers=%d: remote ad-hoc grid differs (%v):\n%s\nwant:\n%s", workers, err, got, wantAdhoc)
		}

		values, err = c.Grid(ctx, wire.GridRequest{Name: "table2", Budget: cfg.Budget, Benchmarks: cfg.Benchmarks})
		if err != nil {
			t.Fatalf("workers=%d named: %v", workers, err)
		}
		res, err = grid.ResultFrom(cfg, namedEntry.Spec, values)
		if err != nil {
			t.Fatal(err)
		}
		got, err = grid.RenderResult(res)
		if err != nil || got != wantNamed {
			t.Fatalf("workers=%d: remote named grid differs (%v):\n%s\nwant:\n%s", workers, err, got, wantNamed)
		}
	}
}

// TestGridsListingRoundTrip: the daemon's listing carries every
// registered spec, and a spec fetched from it resubmits inline to the
// same bytes as the named request — the full discover → fetch →
// execute loop.
func TestGridsListingRoundTrip(t *testing.T) {
	ctx := context.Background()
	_, c := newTestDaemon(t, Config{Workers: 4})
	infos, err := c.Grids(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(grid.Names()) {
		t.Fatalf("listing has %d grids, registry %d", len(infos), len(grid.Names()))
	}
	byName := map[string]wire.GridInfo{}
	for _, gi := range infos {
		byName[gi.Name] = gi
		if gi.Kind == "" || gi.Cells <= 0 {
			t.Fatalf("listing entry %+v incomplete", gi)
		}
	}
	gi, ok := byName["table1"]
	if !ok {
		t.Fatal("table1 missing from listing")
	}
	cfg := expt.Config{Budget: 60_000, Benchmarks: []string{"swim"}}
	named, err := c.Grid(ctx, wire.GridRequest{Name: "table1", Budget: cfg.Budget, Benchmarks: cfg.Benchmarks})
	if err != nil {
		t.Fatal(err)
	}
	fetched := gi.Spec
	inline, err := c.Grid(ctx, wire.GridRequest{Spec: &fetched, Budget: cfg.Budget, Benchmarks: cfg.Benchmarks})
	if err != nil {
		t.Fatal(err)
	}
	resA, err := grid.ResultFrom(cfg, gi.Spec, named)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := grid.ResultFrom(cfg, fetched, inline)
	if err != nil {
		t.Fatal(err)
	}
	a, errA := grid.RenderResult(resA)
	b, errB := grid.RenderResult(resB)
	if errA != nil || errB != nil || a != b || a == "" {
		t.Fatalf("listing round trip differs (%v %v):\n%s\nvs\n%s", errA, errB, a, b)
	}
}

// TestGridValidation: the daemon rejects malformed, oversized and
// unknown grid requests with errors, never panics.
func TestGridValidation(t *testing.T) {
	ctx := context.Background()
	_, c := newTestDaemon(t, Config{Workers: 1, MaxCells: 4})
	bad := []wire.GridRequest{
		{}, // neither name nor spec
		{Name: "nope"},
		{Spec: &grid.Spec{Kind: "bogus"}},
		{Spec: &grid.Spec{TUs: []int{-1}}},
		{Spec: &grid.Spec{Kind: "table1", Policies: []string{"str"}}},
		{Spec: &grid.Spec{}, Benchmarks: []string{"nope"}},
		{Name: "sweep", Budget: 1000}, // 360 cells > MaxCells=4
	}
	for i, req := range bad {
		if _, err := c.Grid(ctx, req); err == nil {
			t.Errorf("case %d accepted: %+v", i, req)
		}
	}
}
