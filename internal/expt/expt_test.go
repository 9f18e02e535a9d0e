package expt

import (
	"context"
	"strings"
	"testing"

	"dynloop/internal/harness"
	"dynloop/internal/runner"
	"dynloop/internal/spec"
)

// The Config-default and cell-key tests live with the machinery in
// internal/grid now (grid_test.go); this file covers the drivers.

// TestFusionByteIdenticalAndFewerTraversals is the acceptance property
// of the fused pass pipeline: the full rendered report under fused
// multi-pass execution is byte-identical to the per-cell reference path
// (each cell traversing the stream alone), at 1 worker and at 8 — while
// using at least 3× fewer interpreter traversals.
func TestFusionByteIdenticalAndFewerTraversals(t *testing.T) {
	base := Config{Budget: 50_000, Benchmarks: []string{"m88ksim", "perl"}}
	render := func(parallel int, noFuse bool) (string, uint64) {
		cfg := base
		cfg.Parallel = parallel
		cfg.NoFuse = noFuse
		before := harness.Traversals()
		out, err := All(context.Background(), cfg)
		if err != nil {
			t.Fatalf("parallel=%d noFuse=%v: %v", parallel, noFuse, err)
		}
		return out, harness.Traversals() - before
	}
	ref, perCell := render(1, true)
	for _, parallel := range []int{1, 8} {
		fusedOut, fused := render(parallel, false)
		if fusedOut != ref {
			t.Fatalf("fused report (parallel=%d) differs from the per-cell reference:\n--- per-cell ---\n%s\n--- fused ---\n%s",
				parallel, ref, fusedOut)
		}
		if fused*3 > perCell {
			t.Errorf("parallel=%d: fused run used %d traversals, per-cell used %d — want >=3x fewer", parallel, fused, perCell)
		}
	}
}

// TestParallelEqualsSerial: a parallel Table1 run must equal a repeat of
// itself (each job owns its unit, so parallelism cannot leak).
func TestParallelEqualsSerial(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Budget: 60_000}
	a, err := Table1(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Table1(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d diverged:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestAllDriversParallelDeterminism is the acceptance property of the
// orchestrator: the full rendered report — every table, figure, baseline
// and ablation — is byte-identical at 1 worker and at 8.
func TestAllDriversParallelDeterminism(t *testing.T) {
	base := Config{Budget: 50_000, Benchmarks: []string{"m88ksim", "perl"}}
	render := func(parallel int) string {
		cfg := base
		cfg.Parallel = parallel
		out, err := All(context.Background(), cfg)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return out
	}
	seq, par := render(1), render(8)
	if seq != par {
		t.Fatalf("report diverges between -parallel 1 and -parallel 8:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "Table 1") || !strings.Contains(seq, "Figure 7") || !strings.Contains(seq, "oracle") {
		t.Fatalf("report is missing sections:\n%s", seq)
	}
}

// TestSharedRunnerDeduplicates: run Fig6 then Fig7 on one Runner — the
// STR column of Figure 7 is exactly Figure 6, so every one of those
// cells must come from the cache, and both figures must agree.
func TestSharedRunnerDeduplicates(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Budget: 50_000, Benchmarks: []string{"swim", "compress"}, Runner: runner.New(runner.Config{Workers: 4})}
	f6, err := Fig6(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after6 := cfg.Runner.Stats()
	f7, err := Fig7(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after7 := cfg.Runner.Stats()
	// Fig7 grid: 2 benches × 5 policies × 4 TUs = 40 cells, of which the
	// 8 STR cells already ran in Fig6.
	executedByFig7 := after7.Executed - after6.Executed
	if executedByFig7 != 32 {
		t.Fatalf("Fig7 executed %d cells, want 32 (8 STR cells cached)", executedByFig7)
	}
	hits := after7.CacheHits + after7.Coalesced - after6.CacheHits - after6.Coalesced
	if hits != 8 {
		t.Fatalf("Fig7 hit the cache %d times, want 8", hits)
	}
	// And the deduplicated numbers agree across the two figures.
	strAvg := map[int]float64{}
	for _, r := range f6 {
		for tus, tpc := range r.TPC {
			strAvg[tus] += tpc / float64(len(f6))
		}
	}
	for _, c := range f7 {
		if c.Policy != "STR" {
			continue
		}
		if got := strAvg[c.TUs]; got != c.AvgTPC {
			t.Fatalf("STR@%dTU: fig6 avg %v != fig7 avg %v", c.TUs, got, c.AvgTPC)
		}
	}
}

// TestDriverCancellation: a cancelled context aborts a driver with the
// context error.
func TestDriverCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Table1(ctx, Config{Budget: 50_000}); err == nil {
		t.Fatal("cancelled Table1 returned no error")
	}
	if _, err := All(ctx, Config{Budget: 50_000, Benchmarks: []string{"swim"}}); err == nil {
		t.Fatal("cancelled All returned no error")
	}
}

// TestSweepGrid covers the sweep driver: grid shape, defaults, render.
func TestSweepGrid(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Budget: 50_000, Benchmarks: []string{"swim", "li"}}
	rows, err := Sweep(ctx, cfg, SweepSpec{Policies: []spec.Policy{spec.STR(), spec.Idle()}, TUs: []int{2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*2*2 {
		t.Fatalf("grid size %d, want 8", len(rows))
	}
	if rows[0].Bench != "swim" || rows[0].Policy != "STR" || rows[0].TUs != 2 {
		t.Fatalf("unexpected first cell: %+v", rows[0])
	}
	for _, r := range rows {
		if r.M.TPC() < 1.0-1e-9 {
			t.Fatalf("cell %s/%s/%d has TPC %v < 1", r.Bench, r.Policy, r.TUs, r.M.TPC())
		}
	}
	if RenderSweep(rows) == "" {
		t.Fatal("empty sweep render")
	}
	gs := SweepSpec{}.GridSpec()
	if gs.Name != "sweep" {
		t.Fatalf("lowered spec named %q, want sweep", gs.Name)
	}
	n, err := gs.Size(cfg)
	if err != nil || n != 2*5*4 {
		t.Fatalf("default grid size = %d (%v), want 40", n, err)
	}
	if _, err := ParsePolicies([]string{"idle", "str3"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ParsePolicies([]string{"bogus"}); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// TestDriversSmoke exercises every table/figure/ablation driver on a
// small subset so the drivers themselves are covered in-package (the
// root integration tests exercise them through the facade).
func TestDriversSmoke(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Budget: 80_000, Benchmarks: []string{"m88ksim", "perl"}}
	if rows, err := Table1(ctx, cfg); err != nil || len(rows) != 2 {
		t.Fatalf("table1: %v", err)
	} else if RenderTable1(rows) == "" {
		t.Fatal("empty render")
	}
	if rows, err := Table2(ctx, cfg); err != nil || len(rows) != 2 {
		t.Fatalf("table2: %v", err)
	} else if RenderTable2(rows) == "" {
		t.Fatal("empty render")
	}
	if pts, err := Fig4(ctx, cfg); err != nil || RenderFig4(pts) == "" {
		t.Fatalf("fig4: %v", err)
	}
	if rows, err := Fig5(ctx, cfg); err != nil || RenderFig5(rows) == "" {
		t.Fatalf("fig5: %v", err)
	}
	if rows, err := Fig6(ctx, cfg); err != nil || RenderFig6(rows) == "" {
		t.Fatalf("fig6: %v", err)
	}
	if cells, err := Fig7(ctx, cfg); err != nil || RenderFig7(cells) == "" {
		t.Fatalf("fig7: %v", err)
	}
	if rows, avg, err := Fig8(ctx, cfg); err != nil || RenderFig8(rows, avg) == "" {
		t.Fatalf("fig8: %v", err)
	}
	if rows, err := BaselineBranchPred(ctx, cfg); err != nil || RenderBaseline(rows) == "" {
		t.Fatalf("baseline: %v", err)
	}
	if rows, err := BaselineTaskPred(ctx, cfg); err != nil || RenderTaskPred(rows) == "" {
		t.Fatalf("taskpred: %v", err)
	}
	if rows, err := AblationCLSSize(ctx, cfg, []int{4}); err != nil || RenderCLSSize(rows) == "" {
		t.Fatalf("cls: %v", err)
	}
	if rows, err := AblationLETCapacity(ctx, cfg, []int{4}); err != nil || RenderLETCapacity(rows) == "" {
		t.Fatalf("let: %v", err)
	}
	if rows, err := AblationReplacement(ctx, cfg, []int{4}); err != nil || RenderReplacement(rows) == "" {
		t.Fatalf("replacement: %v", err)
	}
	if rows, err := AblationOneShots(ctx, cfg); err != nil || RenderOneShots(rows) == "" {
		t.Fatalf("oneshots: %v", err)
	}
	if rows, err := AblationNestRule(ctx, cfg, []int{4}); err != nil || RenderNestRule(rows) == "" {
		t.Fatalf("nestrule: %v", err)
	}
	if rows, err := AblationExclusion(ctx, cfg, 0.85); err != nil || RenderExclusion(rows) == "" {
		t.Fatalf("exclusion: %v", err)
	}
	if rows, err := AblationOracle(ctx, cfg); err != nil || RenderOracle(rows) == "" {
		t.Fatalf("oracle: %v", err)
	}
}

// TestOracleBeatsBlindSTR: the oracle ablation's defining property.
func TestOracleBeatsBlindSTR(t *testing.T) {
	rows, err := AblationOracle(context.Background(), Config{Budget: 150_000, Benchmarks: []string{"applu"}})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.OracleHit < r.STRHit {
		t.Fatalf("oracle hit %.1f < STR hit %.1f", r.OracleHit, r.STRHit)
	}
	if r.OracleTPC+1e-9 < r.STRTPC {
		t.Fatalf("oracle TPC %.2f < STR TPC %.2f", r.OracleTPC, r.STRTPC)
	}
}
