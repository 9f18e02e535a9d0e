package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dynloop/internal/client"
	"dynloop/internal/expt"
	"dynloop/internal/grid"
	"dynloop/internal/store"
	"dynloop/internal/wire"
)

// warmTestGrid registers a tiny single-cell grid once per process for
// the warmer tests. It pins its own benchmark axis, so the warmer
// schedules it as exactly one unit.
var warmTestGrid = sync.OnceValue(func() string {
	grid.Register(grid.Entry{Spec: grid.Spec{
		Name:       "warm-test",
		Kind:       "spec",
		Benchmarks: []string{"swim"},
		Budgets:    []uint64{50_000},
		Policies:   []string{"str"},
		TUs:        []int{2},
	}})
	return "warm-test"
})

// waitWarmed polls until the warmer has finished every unit.
func waitWarmed(t *testing.T, s *Server) WarmerStats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ws, ok := s.WarmerStats()
		if !ok {
			t.Fatal("no warmer running")
		}
		if ws.UnitsDone == ws.Units {
			return ws
		}
		if time.Now().After(deadline) {
			t.Fatalf("warmer did not finish: %+v", ws)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWarmerWarmsStore: the background warmer precomputes a registered
// grid into the store, so a later client request for the same grid is
// served entirely from cache — zero new executions.
func TestWarmerWarmsStore(t *testing.T) {
	name := warmTestGrid()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })

	s, c := newTestDaemon(t, Config{Workers: 2, Store: st, Warm: []string{name}})
	cellsBefore := mWarmerCells.Value()
	if err := s.StartWarmer(ctx); err != nil {
		t.Fatal(err)
	}
	ws := waitWarmed(t, s)
	if ws.Cells == 0 {
		t.Fatalf("warmer finished with zero cells: %+v", ws)
	}
	if ws.Errors != 0 {
		t.Fatalf("warmer errored: %+v", ws)
	}
	if got := mWarmerCells.Value() - cellsBefore; got != ws.Cells {
		t.Fatalf("warmer_cells_total advanced by %d, stats say %d", got, ws.Cells)
	}
	if st.Stats().Puts == 0 {
		t.Fatal("warmer computed cells but the store saw no puts")
	}

	// The warmed grid must now be free: no new engine executions.
	executed := s.Runner().Stats().Executed
	if _, err := c.Grid(ctx, wire.GridRequest{Name: name}); err != nil {
		t.Fatal(err)
	}
	if after := s.Runner().Stats().Executed; after != executed {
		t.Fatalf("warmed grid still executed %d cells", after-executed)
	}

	// /v1/stats surfaces the warmer section.
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Warmer == nil {
		t.Fatal("stats has no warmer section")
	}
	if stats.Warmer.Cells != ws.Cells || stats.Warmer.UnitsDone != ws.UnitsDone {
		t.Fatalf("stats warmer %+v does not match %+v", stats.Warmer, ws)
	}
}

// TestWarmerYieldsToForeground: while a foreground request holds an
// inflight slot, the warmer pauses instead of competing; releasing the
// slot lets it finish.
func TestWarmerYieldsToForeground(t *testing.T) {
	name := warmTestGrid()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	s, _ := newTestDaemon(t, Config{Workers: 2, Warm: []string{name}})
	s.inflight <- struct{}{} // foreground load, as the handlers would take it
	if err := s.StartWarmer(ctx); err != nil {
		t.Fatal(err)
	}

	// Give the warmer several poll intervals to (incorrectly) start.
	time.Sleep(4 * warmPollInterval)
	ws, _ := s.WarmerStats()
	if ws.UnitsDone != 0 || ws.Cells != 0 {
		t.Fatalf("warmer worked under foreground load: %+v", ws)
	}
	if ws.Pauses == 0 {
		t.Fatalf("warmer never recorded a pause: %+v", ws)
	}

	<-s.inflight // foreground done
	ws = waitWarmed(t, s)
	if ws.Cells == 0 {
		t.Fatalf("warmer finished with zero cells after release: %+v", ws)
	}
}

// TestWarmerRejectsUnknownSpec: bad -warm names fail at startup, not
// silently in the background.
func TestWarmerRejectsUnknownSpec(t *testing.T) {
	s := New(Config{Workers: 1, Warm: []string{"no-such-grid"}})
	if err := s.StartWarmer(context.Background()); err == nil {
		t.Fatal("StartWarmer accepted an unknown grid name")
	}
}

// TestShedTypedError: both shed paths — oversized grids and expired
// queue waits — surface to the client as *client.ErrShed carrying the
// daemon's jittered Retry-After hint.
func TestShedTypedError(t *testing.T) {
	ctx := context.Background()

	// Oversized grid.
	_, c := newTestDaemon(t, Config{Workers: 1, MaxCells: 4})
	_, err := runGrid(ctx, c, expt.Config{Budget: 1000}, expt.SweepSpec{}.GridSpec())
	var shed *client.ErrShed
	if !errors.As(err, &shed) {
		t.Fatalf("oversized sweep returned %v, want *client.ErrShed", err)
	}
	if shed.RetryAfter < time.Second || shed.RetryAfter > 4*time.Second {
		t.Fatalf("Retry-After %v outside the 1-4s jitter window", shed.RetryAfter)
	}

	// Queue-wait timeout: one slot, held by a phantom foreground request.
	s2, c2 := newTestDaemon(t, Config{Workers: 1, MaxInflight: 1, QueueWait: 20 * time.Millisecond})
	s2.inflight <- struct{}{}
	_, err = runGrid(ctx, c2, testCfg, testSweep)
	shed = nil
	if !errors.As(err, &shed) {
		t.Fatalf("queued-out sweep returned %v, want *client.ErrShed", err)
	}
	<-s2.inflight
}
