package grid_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	_ "dynloop/internal/expt" // registers the paper's grids
	"dynloop/internal/grid"
)

// goldenKeysDigest is the SHA-256 of goldenKeyLines. Cell keys address
// the persistent store and the serving wire, so an encoder change that
// moves a single byte of a key, a label or a group key orphans every
// stored result: this digest must never change unless a deliberate
// CellSchemaVersion bump does it.
const goldenKeysDigest = "9dbd88d460bba798fb9aceb413004751f4272bd2e5ba8cfcae8fd122168f8fe5"

// tenth + fifth is 0.30000000000000004 at run time (constant arithmetic
// would fold it to exactly 0.3).
var tenth, fifth = 0.1, 0.2

// goldenKeyLines compiles every registered grid under three configs
// (the default; non-zero budget/seed/CLS/batch with a budget divisor;
// ad-hoc specs exercising STR(12), the static nest rule, fractional
// exclusion thresholds and the unbounded CLS) and writes one line per
// cell: key, label and fusion group.
func goldenKeyLines(t testing.TB, emit func(string)) int {
	type run struct {
		cfg   grid.Config
		specs []grid.Spec
	}
	registered := registeredSpecs()
	var divided []grid.Spec
	for _, s := range registered {
		if len(s.BudgetDivs) == 0 {
			s.BudgetDivs = []int{1, 3}
		}
		divided = append(divided, s)
	}
	adhoc := []grid.Spec{
		{Kind: "spec", Policies: []string{"str12", "idle", "str"}, TUs: []int{0, 3},
			LETCaps: []int{0, 32}, NestRules: []string{"static", "starvation"},
			CLS: []int{-1, 4}, Seeds: []uint64{0, 1009},
			Exclusion: []grid.ExclusionSpec{{},
				{Enabled: true, Threshold: 0.35, MinResolved: 3, Capacity: 5},
				{Enabled: true, Threshold: tenth + fifth},
				{Enabled: true, Threshold: 1e-05},
				{Enabled: true, Threshold: 1}}},
		{Kind: "fig4", TableSizes: []int{1, 3, 1 << 20}, Budgets: []uint64{0, 77}},
		{Kind: "replacement", TableSizes: []int{5}, Modes: []string{"nest"}, CLS: []int{-1}},
		{Kind: "clssize", CLS: []int{-1, 1, 65536}},
	}
	runs := []run{
		{grid.Config{}, registered},
		{grid.Config{Budget: 123_457, Seed: 7, CLSCapacity: 8, BatchSize: 64}, divided},
		{grid.Config{Budget: 99_999, Benchmarks: []string{"swim", "gcc", "li"}}, adhoc},
	}
	n := 0
	for ri, r := range runs {
		for si, s := range r.specs {
			cells, _, err := grid.Compile(r.cfg, s)
			if err != nil {
				t.Fatalf("run %d spec %d (%s): %v", ri, si, s.Name, err)
			}
			for _, c := range cells {
				emit(fmt.Sprintf("%d/%d\t%s\t%s\t%s\n", ri, si, c.Key, c.Label, grid.CellGroupKey(c)))
				n++
			}
		}
	}
	return n
}

// TestGoldenCellKeys pins every cell key, label and group key byte for
// byte (see goldenKeysDigest).
func TestGoldenCellKeys(t *testing.T) {
	h := sha256.New()
	var first []string
	n := goldenKeyLines(t, func(line string) {
		if len(first) < 3 {
			first = append(first, line)
		}
		h.Write([]byte(line))
	})
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenKeysDigest {
		t.Fatalf("cell key digest over %d cells = %s, want %s\nfirst lines: %q", n, got, goldenKeysDigest, first)
	}
}
