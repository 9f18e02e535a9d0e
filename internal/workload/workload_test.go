package workload

import (
	"testing"

	"dynloop/internal/harness"
	"dynloop/internal/loopstats"
	"dynloop/internal/spec"
)

// TestRegistry checks the catalogue is complete and well-formed.
func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 18 {
		t.Fatalf("benchmarks = %d, want 18 (SPEC95)", len(all))
	}
	seen := map[string]bool{}
	for _, bm := range all {
		if seen[bm.Name] {
			t.Fatalf("duplicate benchmark %q", bm.Name)
		}
		seen[bm.Name] = true
		if bm.Suite != "int" && bm.Suite != "fp" {
			t.Fatalf("%s: bad suite %q", bm.Name, bm.Suite)
		}
		if bm.Build == nil || bm.Description == "" || bm.Paper.Loops == 0 {
			t.Fatalf("%s: incomplete registration", bm.Name)
		}
	}
	if _, err := ByName("swim"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Fatal("ByName must fail on unknown names")
	}
}

// TestAllBuildAndRun builds and runs every benchmark for a short budget,
// checking basic health: no machine errors, loops detected, CLS depth
// within the paper's 16-entry bound, deterministic traces.
func TestAllBuildAndRun(t *testing.T) {
	for _, bm := range All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			t.Parallel()
			u, err := bm.Build(1)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if err := u.Prog.Validate(); err != nil {
				t.Fatalf("validate: %v", err)
			}
			ls := loopstats.NewCollector()
			res, err := harness.Run(u, harness.Config{Budget: 300_000}, ls)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Executed < 300_000 && !res.Halted {
				t.Fatalf("stopped early: %d instrs", res.Executed)
			}
			s := ls.Summary()
			if s.StaticLoops < 5 {
				t.Fatalf("only %d static loops detected", s.StaticLoops)
			}
			ds := res.Detector.Stats()
			if ds.MaxDepth > 16 {
				t.Fatalf("CLS depth %d exceeds the paper's 16", ds.MaxDepth)
			}
			if s.ItersPerExec < 1 {
				t.Fatalf("iters/exec = %v", s.ItersPerExec)
			}
		})
	}
}

// TestDeterministicAcrossBuilds: building the same benchmark twice with
// the same seed gives byte-identical programs and identical dynamics.
func TestDeterministicAcrossBuilds(t *testing.T) {
	for _, name := range []string{"swim", "gcc", "perl"} {
		bm, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		run := func() (uint64, spec.Metrics) {
			u, err := bm.Build(7)
			if err != nil {
				t.Fatal(err)
			}
			e := spec.NewEngine(spec.Config{TUs: 4, Policy: spec.STR()})
			res, err := harness.Run(u, harness.Config{Budget: 150_000}, e)
			if err != nil {
				t.Fatal(err)
			}
			return res.Executed, e.Metrics()
		}
		n1, m1 := run()
		n2, m2 := run()
		if n1 != n2 || m1 != m2 {
			t.Fatalf("%s: nondeterministic: %d/%d %+v %+v", name, n1, n2, m1, m2)
		}
	}
}

// TestCalibration prints the Table-1-style comparison (run with -v).
// It asserts only the coarse qualitative shape; perfbench's
// paper_rel_err scores the full numbers against PaperRow.
func TestCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration is a long test")
	}
	type row struct {
		name string
		s    loopstats.Summary
		tpc  float64
		hit  float64
		p    PaperRow
	}
	var rows []row
	for _, bm := range All() {
		u, err := bm.Build(1)
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		ls := loopstats.NewCollector()
		e := spec.NewEngine(spec.Config{TUs: 4, Policy: spec.STRn(3)})
		if _, err := harness.Run(u, harness.Config{Budget: 4_000_000}, ls, e); err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		m := e.Metrics()
		rows = append(rows, row{bm.Name, ls.Summary(), m.TPC(), m.HitRatio(), bm.Paper})
	}
	t.Log("bench        loops(p)      it/ex(p)        in/it(p)        avgnl(p)     maxnl(p)  TPC4(p)      hit%(p)")
	for _, r := range rows {
		t.Logf("%-10s %5d(%4d) %7.2f(%6.2f) %7.1f(%6.1f) %5.2f(%4.2f) %3d(%2d) %5.2f(%4.2f) %6.1f(%6.2f)",
			r.name, r.s.StaticLoops, r.p.Loops,
			r.s.ItersPerExec, r.p.ItersPerExec,
			r.s.InstrPerIter, r.p.InstrPerIter,
			r.s.AvgNesting, r.p.AvgNL,
			r.s.MaxNesting, r.p.MaxNL,
			r.tpc, r.p.TPC4, r.hit, r.p.HitRatio)
	}
	// Coarse shape assertions that the reproduction must preserve.
	byName := map[string]row{}
	for _, r := range rows {
		byName[r.name] = r
	}
	if byName["swim"].s.ItersPerExec < 50 {
		t.Errorf("swim iter/exec = %.1f, want large (paper 188)", byName["swim"].s.ItersPerExec)
	}
	if byName["perl"].s.ItersPerExec > 8 {
		t.Errorf("perl iter/exec = %.1f, want small (paper 3.1)", byName["perl"].s.ItersPerExec)
	}
	if byName["gcc"].s.StaticLoops < 300 {
		t.Errorf("gcc static loops = %d, want many (paper 1229)", byName["gcc"].s.StaticLoops)
	}
	if byName["fpppp"].s.InstrPerIter < 700 {
		t.Errorf("fpppp instr/iter = %.0f, want huge (paper 3218)", byName["fpppp"].s.InstrPerIter)
	}
	// TPC ordering: the interpreters sit at the bottom, the regular
	// vector codes at the top.
	low := (byName["perl"].tpc + byName["go"].tpc + byName["li"].tpc) / 3
	high := (byName["swim"].tpc + byName["tomcatv"].tpc + byName["turb3d"].tpc + byName["wave5"].tpc) / 4
	if low >= high {
		t.Errorf("TPC ordering violated: interpreters %.2f >= vector codes %.2f", low, high)
	}
}

// TestSeedStability: the calibrated behaviour must be a property of the
// generator, not of one lucky seed — TPC and hit ratio stay in a band
// across seeds.
func TestSeedStability(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	for _, name := range []string{"swim", "perl", "gcc"} {
		bm, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var tpcs []float64
		for seed := uint64(1); seed <= 3; seed++ {
			u, err := bm.Build(seed)
			if err != nil {
				t.Fatal(err)
			}
			e := spec.NewEngine(spec.Config{TUs: 4, Policy: spec.STRn(3)})
			if _, err := harness.Run(u, harness.Config{Budget: 1_000_000}, e); err != nil {
				t.Fatal(err)
			}
			tpcs = append(tpcs, e.Metrics().TPC())
		}
		lo, hi := tpcs[0], tpcs[0]
		for _, v := range tpcs {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi-lo > 0.6 {
			t.Errorf("%s: TPC varies too much across seeds: %v", name, tpcs)
		}
	}
}
