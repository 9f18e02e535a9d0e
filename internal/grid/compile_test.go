package grid_test

import (
	"runtime"
	"testing"

	"dynloop/internal/grid"
)

// registeredSpecs returns every registered grid's spec, in name order.
func registeredSpecs() []grid.Spec {
	var specs []grid.Spec
	for _, name := range grid.Names() {
		e, _ := grid.Lookup(name)
		specs = append(specs, e.Spec)
	}
	return specs
}

// compiled keeps BenchmarkGridCompile's result live.
var compiled []grid.Cell

// BenchmarkGridCompile times cell compilation — spec resolution, axis
// expansion, cell keys and labels — over every registered grid at the
// default config, per cell. A warm report compiles every grid it
// serves on every render, so this layer is part of each warm render.
func BenchmarkGridCompile(b *testing.B) {
	specs := registeredSpecs()
	cells := 0
	for _, s := range specs {
		cs, _, err := grid.Compile(grid.Config{}, s)
		if err != nil {
			b.Fatal(err)
		}
		cells += len(cs)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for range b.N {
		for _, s := range specs {
			var err error
			if compiled, _, err = grid.Compile(grid.Config{}, s); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	n := float64(b.N) * float64(cells)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/cell")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/n, "allocs/cell")
	b.ReportMetric(float64(cells), "cells")
}

// TestCompileFig7Allocs pins cell compilation's allocations: Figure 7
// (360 spec cells at the default config) measured 5.37 allocations per
// cell — its key, its label, the boxed benchmark name and policy, and
// the pass closure — down from 27.4 with the fmt encoders.
func TestCompileFig7Allocs(t *testing.T) {
	e, _ := grid.Lookup("fig7")
	cells, _, err := grid.Compile(grid.Config{}, e.Spec)
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(20, func() { _, _, _ = grid.Compile(grid.Config{}, e.Spec) })
	if perCell := n / float64(len(cells)); perCell > 5.4 {
		t.Fatalf("Compile(fig7): %.2f allocs per cell (%v over %d cells), want <= 5.4", perCell, n, len(cells))
	}
}
