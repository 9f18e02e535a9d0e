package grid_test

import (
	"context"
	"testing"

	"dynloop/internal/expt"
	"dynloop/internal/grid"
	"dynloop/internal/harness"
	"dynloop/internal/interp"
	"dynloop/internal/trace"
)

// TestCtlOnlyCellPlanes pins which grid cells negotiate the control
// plane: every fusable cell of every registered grid reads only the
// control facet, except the §4 live-in study (kind fig8), whose
// collector reads register and memory values. This keeps the end-to-end
// plane-equivalence suite from passing vacuously with traversals on the
// full plane.
func TestCtlOnlyCellPlanes(t *testing.T) {
	cfg := grid.Config{Budget: 1000, Benchmarks: []string{"swim", "li"}}
	for _, name := range grid.Names() {
		e, _ := grid.Lookup(name)
		cells, rs, err := grid.Compile(cfg, e.Spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := trace.PlaneCtl
		if rs.Kind == "fig8" {
			want = trace.PlaneCtl | trace.PlaneData
		}
		for _, c := range cells {
			got, ok := grid.CellPlanes(c)
			if ok && got != want {
				t.Errorf("%s (kind %s) cell %s: planes = %v, want %v", name, rs.Kind, c.Label, got, want)
			}
		}
	}
}

// TestAllPlaneRuns counts the interpreter's negotiated planes over a
// whole report: only the fig8 traversals (one per benchmark) run on the
// full plane, every other traversal on the control plane.
func TestAllPlaneRuns(t *testing.T) {
	ctl0, full0 := interp.PlaneRuns()
	trav0 := harness.Traversals()
	cfg := expt.Config{Budget: 20_000, Benchmarks: []string{"swim", "li"}}
	if _, err := expt.All(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	ctl1, full1 := interp.PlaneRuns()
	trav := harness.Traversals() - trav0
	if full := full1 - full0; full != 2 {
		t.Errorf("full-plane runs = %d, want 2 (fig8 on 2 benchmarks)", full)
	}
	if ctl := ctl1 - ctl0; ctl != trav-2 {
		t.Errorf("ctl-plane runs = %d, want %d (traversals - 2)", ctl, trav-2)
	}
}
