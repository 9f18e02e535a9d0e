package grid

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dynloop/internal/spec"
	"dynloop/internal/workload"
)

// fmtCellKey is the fmt-based encoder cellKey replaced, kept as the
// oracle FuzzCellKey diffs it against.
func fmtCellKey(c Config, parts ...any) string {
	var b strings.Builder
	fmt.Fprintf(&b, "v%d|b%d|s%d|cls%d|ba%d", CellSchemaVersion, c.budget(), c.seed(), c.CLSCapacity, c.BatchSize)
	for _, p := range parts {
		s := fmt.Sprint(p)
		fmt.Fprintf(&b, "|%d:%s", len(s), s)
	}
	return b.String()
}

// fmtGroupKey is the fmt-based groupKey, with the NoFuse suffix when
// cell >= 0.
func fmtGroupKey(c Config, bench string, budget uint64, cell int) string {
	g := fmt.Sprintf("g|%d:%s|b%d|s%d|ba%d", len(bench), bench, budget, c.seed(), c.BatchSize)
	if cell >= 0 {
		g = fmt.Sprintf("%s|cell%d", g, cell)
	}
	return g
}

// fmtPolicyName is spec.Policy.String as it was written with fmt.
func fmtPolicyName(p spec.Policy) string {
	switch p.Kind {
	case spec.PolicyIdle:
		return "IDLE"
	case spec.PolicyStride:
		if p.NestLimit > 0 {
			return fmt.Sprintf("STR(%d)", p.NestLimit)
		}
		return "STR"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p.Kind))
	}
}

// FuzzCellKey diffs the append-built cell key, group key and policy
// name against their fmt renderings over every part type cells pass
// (plus one that takes the fmt fallback), across the whole Config
// header. Keys address the store and the wire, so any byte of
// difference is a bug.
func FuzzCellKey(f *testing.F) {
	type seed struct {
		budget, seed  uint64
		cls, batch    int
		s1, s2        string
		i             int
		on            bool
		fl            float64
		polKind       uint8
		nestLim, cell int
		nr            uint8
		u             uint64
	}
	for _, s := range []seed{
		{0, 0, 0, 0, "spec", "swim", 4, false, 0, 1, 3, 0, 0, 0},
		{4_000_000, 1, 16, 1024, "fig4", "m88ksim", 16, true, 0.35, 1, 0, 17, 1, 99},
		{1 << 40, math.MaxUint64, -1, -7, "a|b", "2:ab", -1, true, math.NaN(), 0, 12, 1115, 2, math.MaxUint64},
		{1, 2, math.MinInt, math.MaxInt, "", "|:|", math.MinInt, false, math.Inf(1), 7, -3, -1, 255, 1},
		{3, 3, 3, 3, "x:y", "", math.MaxInt, true, math.Inf(-1), 1, 1 << 20, 0, 0, 0},
		{5, 5, 0, 0, "ü", "日本", 0, false, math.Copysign(0, -1), 1, 100, 9, 0, 0},
		{7, 7, 0, 0, "s", "t", 0, false, 1e21, 0, 0, 0, 0, 0},
		{8, 8, 0, 0, "s", "t", 0, false, 1e-05, 0, 0, 0, 0, 0},
		{9, 9, 0, 0, "s", "t", 0, false, 0.1 + 0.2, 0, 0, 0, 0, 0},
		{9, 9, 0, 0, strings.Repeat("long|", 60), "t", 0, false, 1e20, 0, 0, 0, 0, 0},
		{9, 9, 0, 0, "s", "t", 0, false, 5e-324, 0, 0, 0, 0, 0},
		{9, 9, 0, 0, "s", "t", 0, false, math.MaxFloat64, 0, 0, 0, 0, 0},
	} {
		f.Add(s.budget, s.seed, s.cls, s.batch, s.s1, s.s2, s.i, s.on, s.fl, s.polKind, s.nestLim, s.cell, s.nr, s.u)
	}
	f.Fuzz(func(t *testing.T, budget, seed uint64, cls, batch int, s1, s2 string, i int, on bool,
		fl float64, polKind uint8, nestLim, cell int, nr uint8, u uint64) {
		cfg := Config{Budget: budget, Seed: seed, CLSCapacity: cls, BatchSize: batch}
		pol := spec.Policy{Kind: spec.PolicyKind(polKind % 4), NestLimit: nestLim}
		parts := []any{s1, s2, i, on, fl, pol, spec.NestRule(nr), u, -i}
		for n := 0; n <= len(parts); n++ {
			if got, want := cfg.cellKey(parts[:n]...), fmtCellKey(cfg, parts[:n]...); got != want {
				t.Fatalf("cellKey(%#v) =\n%q, fmt renders\n%q", parts[:n], got, want)
			}
		}
		if got, want := cfg.groupKey(s1, budget), fmtGroupKey(cfg, s1, budget, -1); got != want {
			t.Fatalf("groupKey = %q, fmt renders %q", got, want)
		}
		c := Cell{cfg: cfg, bench: workload.Benchmark{Name: s2}}
		if got, want := c.group(false, cell), fmtGroupKey(cfg, s2, cfg.budget(), -1); got != want {
			t.Fatalf("fused group = %q, fmt renders %q", got, want)
		}
		if cell >= 0 {
			if got, want := c.group(true, cell), fmtGroupKey(cfg, s2, cfg.budget(), cell); got != want {
				t.Fatalf("NoFuse group = %q, fmt renders %q", got, want)
			}
		}
		if got, want := pol.String(), fmtPolicyName(pol); got != want {
			t.Fatalf("%#v.String() = %q, fmt renders %q", pol, got, want)
		}
	})
}

// TestKeyEncodersAllocateOnce pins the encoders' cost: a spec cell's
// key, a group key and a NoFuse group key each allocate exactly one
// string. The parts are boxed outside the measured call — boxing a
// non-constant part is the caller's cost, not the encoder's.
func TestKeyEncodersAllocateOnce(t *testing.T) {
	cfg := Config{Budget: 4_000_000, Seed: 1, CLSCapacity: 16}
	parts := []any{"spec", "m88ksim", 4, spec.STRn(3), 0, spec.NestRuleStatic, true, 0.35, 8, 16}
	var sink string
	c := Cell{cfg: cfg, bench: workload.Benchmark{Name: "m88ksim"}}
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"cellKey", func() { sink = cfg.cellKey(parts...) }},
		{"groupKey", func() { sink = cfg.groupKey("m88ksim", 4_000_000) }},
		{"NoFuse group", func() { sink = c.group(true, 1115) }},
	} {
		if n := testing.AllocsPerRun(100, tc.f); n != 1 {
			t.Errorf("%s: %v allocs, want 1", tc.name, n)
		}
	}
	_ = sink
}
