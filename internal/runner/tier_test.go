package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// fakeCache is an in-memory runner.Cache with fault injection.
type fakeCache struct {
	mu      sync.Mutex
	m       map[string]any
	getErr  error
	putErr  error
	gets    int
	puts    int
	skipPut bool
}

func newFakeCache() *fakeCache { return &fakeCache{m: map[string]any{}} }

func (c *fakeCache) Get(key string) (any, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	if c.getErr != nil {
		return nil, false, c.getErr
	}
	v, ok := c.m[key]
	return v, ok, nil
}

func (c *fakeCache) Put(key string, v any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	if c.putErr != nil {
		return c.putErr
	}
	if !c.skipPut {
		c.m[key] = v
	}
	return nil
}

// intJob returns a job yielding v that counts its executions in ran;
// workers run jobs concurrently, so the count is atomic.
func intJob(key string, v int, ran *atomic.Int64) Job[int] {
	return Job[int]{Key: key, Run: func(context.Context) (int, error) {
		ran.Add(1)
		return v, nil
	}}
}

func TestMapWritesBackAndHitsDiskTier(t *testing.T) {
	c := newFakeCache()
	ctx := context.Background()

	var ran atomic.Int64
	r1 := New(Config{Workers: 2, Cache: c})
	out, err := Map(ctx, r1, []Job[int]{intJob("a", 1, &ran), intJob("b", 2, &ran)})
	if err != nil || out[0] != 1 || out[1] != 2 {
		t.Fatalf("first run: %v %v", out, err)
	}
	if ran.Load() != 2 {
		t.Fatalf("ran = %d, want 2", ran.Load())
	}
	if s := r1.Stats(); s.DiskPuts != 2 || s.DiskHits != 0 {
		t.Fatalf("first-run stats = %+v", s)
	}

	// A fresh runner sharing the cache serves both cells from the tier.
	r2 := New(Config{Workers: 2, Cache: c})
	out, err = Map(ctx, r2, []Job[int]{intJob("a", 99, &ran), intJob("b", 99, &ran)})
	if err != nil || out[0] != 1 || out[1] != 2 {
		t.Fatalf("second run: %v %v", out, err)
	}
	if ran.Load() != 2 {
		t.Fatalf("tier hit still executed: ran = %d", ran.Load())
	}
	if s := r2.Stats(); s.DiskHits != 2 || s.Executed != 0 {
		t.Fatalf("second-run stats = %+v", s)
	}

	// Same runner again: now the in-memory tier answers, not the disk.
	gets := c.gets
	out, err = Map(ctx, r2, []Job[int]{intJob("a", 99, &ran)})
	if err != nil || out[0] != 1 {
		t.Fatalf("third run: %v %v", out, err)
	}
	if c.gets != gets {
		t.Fatalf("memory hit consulted the disk tier (%d extra gets)", c.gets-gets)
	}
	if s := r2.Stats(); s.CacheHits != 1 {
		t.Fatalf("third-run stats = %+v", s)
	}
}

func TestMapGroupsHitsDiskTierPerCell(t *testing.T) {
	c := newFakeCache()
	ctx := context.Background()
	// Groups run on two workers, so the exec counter is atomic.
	exec := func(mul int, execs *atomic.Int64) func(context.Context, string, []int) ([]int, error) {
		return func(_ context.Context, _ string, idx []int) ([]int, error) {
			execs.Add(1)
			out := make([]int, len(idx))
			for j, i := range idx {
				out[j] = mul * (i + 1)
			}
			return out, nil
		}
	}
	jobs := []GroupJob[int]{
		{Key: "a", Group: "g1"},
		{Key: "b", Group: "g1"},
		{Key: "c", Group: "g2"},
	}

	var execs atomic.Int64
	r1 := New(Config{Workers: 2, Cache: c})
	out, err := MapGroups(ctx, r1, jobs, exec(10, &execs))
	if err != nil || out[0] != 10 || out[1] != 20 || out[2] != 30 {
		t.Fatalf("first run: %v %v", out, err)
	}
	if execs.Load() != 2 {
		t.Fatalf("group execs = %d, want 2", execs.Load())
	}
	if s := r1.Stats(); s.DiskPuts != 3 {
		t.Fatalf("first-run stats = %+v", s)
	}

	// Partially warm tier: only "b" missing → it runs as a singleton
	// group, a and c come from disk.
	c.mu.Lock()
	delete(c.m, "b")
	c.mu.Unlock()
	execs.Store(0)
	r2 := New(Config{Workers: 2, Cache: c})
	out, err = MapGroups(ctx, r2, jobs, exec(10, &execs))
	if err != nil || out[0] != 10 || out[1] != 20 || out[2] != 30 {
		t.Fatalf("second run: %v %v", out, err)
	}
	if execs.Load() != 1 {
		t.Fatalf("warm group execs = %d, want 1", execs.Load())
	}
	if s := r2.Stats(); s.DiskHits != 2 || s.Executed != 1 {
		t.Fatalf("second-run stats = %+v", s)
	}
}

func TestTierErrorsReadAsMisses(t *testing.T) {
	c := newFakeCache()
	c.getErr = errors.New("disk on fire")
	ctx := context.Background()
	var ran atomic.Int64
	r := New(Config{Workers: 1, Cache: c})
	out, err := Map(ctx, r, []Job[int]{intJob("a", 7, &ran)})
	if err != nil || out[0] != 7 || ran.Load() != 1 {
		t.Fatalf("run with failing tier: %v %v ran=%d", out, err, ran.Load())
	}
	s := r.Stats()
	if s.TierErrors == 0 {
		t.Fatalf("tier error not counted: %+v", s)
	}

	c2 := newFakeCache()
	c2.putErr = errors.New("disk full")
	r2 := New(Config{Workers: 1, Cache: c2})
	if _, err := Map(ctx, r2, []Job[int]{intJob("a", 7, &ran)}); err != nil {
		t.Fatalf("put failure must not fail the job: %v", err)
	}
	if s := r2.Stats(); s.TierErrors != 1 || s.DiskPuts != 0 {
		t.Fatalf("put-failure stats = %+v", s)
	}
}

func TestStaleTypeFromTier(t *testing.T) {
	ctx := context.Background()
	c := newFakeCache()
	c.m["k"] = "a string, not an int"

	// Map: self-invalidates — recomputes the cell and overwrites the
	// stale entry; the tier must never fail a job.
	var ran atomic.Int64
	r := New(Config{Workers: 1, Cache: c})
	out, err := Map(ctx, r, []Job[int]{intJob("k", 1, &ran)})
	if err != nil || out[0] != 1 || ran.Load() != 1 {
		t.Fatalf("Map with stale-typed tier value: %v %v ran=%d", out, err, ran.Load())
	}
	if v, _, _ := c.Get("k"); v != 1 {
		t.Fatalf("stale tier entry not overwritten by Map: %v", v)
	}
	if s := r.Stats(); s.TierErrors == 0 || s.DiskHits != 0 {
		t.Fatalf("Map stale-type stats = %+v", s)
	}
	c.m["k"] = "a string, not an int"

	// MapGroups: self-invalidates the same way.
	r2 := New(Config{Workers: 1, Cache: c})
	out, err = MapGroups(ctx, r2, []GroupJob[int]{{Key: "k", Group: "g"}},
		func(_ context.Context, _ string, idx []int) ([]int, error) {
			return []int{42}, nil
		})
	if err != nil || out[0] != 42 {
		t.Fatalf("MapGroups with stale-typed tier value: %v %v", out, err)
	}
	if v, _, _ := c.Get("k"); v != 42 {
		t.Fatalf("stale tier entry not overwritten: %v", v)
	}
	if s := r2.Stats(); s.TierErrors == 0 {
		t.Fatalf("stale type not counted as tier error: %+v", s)
	}
}

func TestDiskHitEmitsCachedEvent(t *testing.T) {
	ctx := context.Background()
	c := newFakeCache()
	c.m["k"] = 5
	var mu sync.Mutex
	var kinds []EventKind
	r := New(Config{Workers: 1, Cache: c, OnEvent: func(ev Event) {
		mu.Lock()
		kinds = append(kinds, ev.Kind)
		mu.Unlock()
	}})
	var ran atomic.Int64
	if _, err := Map(ctx, r, []Job[int]{intJob("k", 1, &ran)}); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 1 || kinds[0] != JobCached {
		t.Fatalf("events = %v, want one JobCached", kinds)
	}
	if ran.Load() != 0 {
		t.Fatal("disk hit still executed the job")
	}
}

func TestUncacheableJobsSkipTier(t *testing.T) {
	ctx := context.Background()
	c := newFakeCache()
	r := New(Config{Workers: 1, Cache: c})
	var ran atomic.Int64
	if _, err := Map(ctx, r, []Job[int]{intJob("", 3, &ran)}); err != nil {
		t.Fatal(err)
	}
	if c.gets != 0 || c.puts != 0 {
		t.Fatalf("empty-key job touched the tier: gets=%d puts=%d", c.gets, c.puts)
	}
}

func ExampleCache() {
	// A Runner with a Cache behind it survives its own lifetime: give a
	// fresh Runner the same Cache and previously computed cells are
	// served without executing.
	c := newFakeCache()
	for round := 1; round <= 2; round++ {
		r := New(Config{Workers: 1, Cache: c})
		executions := 0
		out, _ := Map(context.Background(), r, []Job[int]{{
			Key: "cell",
			Run: func(context.Context) (int, error) { executions++; return 42, nil },
		}})
		fmt.Printf("round %d: result %d, executed %d, disk hits %d\n",
			round, out[0], executions, r.Stats().DiskHits)
	}
	// Output:
	// round 1: result 42, executed 1, disk hits 0
	// round 2: result 42, executed 0, disk hits 1
}
