package server

import (
	"context"
	"net/http/httptest"
	"testing"

	"dynloop/internal/client"
	"dynloop/internal/expt"
	"dynloop/internal/spec"
	"dynloop/internal/store"
)

// BenchmarkHotSweep measures the daemon's hot path: a sweep whose every
// cell sits in the runner's memory tier — the millionth identical
// query. Cost = HTTP round trip + cells encode/decode; no traversal, no
// disk.
func BenchmarkHotSweep(b *testing.B) {
	benchHotSweep(b, Config{Workers: 4})
}

// BenchmarkHotSweepDiskTier is the same query against a daemon whose
// memory tier is cold but whose store is warm (a freshly restarted
// daemon): cost adds one store read + codec decode per cell, first
// iteration only.
func BenchmarkHotSweepDiskTier(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	benchHotSweep(b, Config{Workers: 4, Store: st})
}

func benchHotSweep(b *testing.B, cfg Config) {
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := client.New(hs.URL, hs.Client())
	ctx := context.Background()
	gcfg := testCfg
	gcfg.Budget = 200_000
	// Warm every tier before timing.
	res, err := runGrid(ctx, c, gcfg, testSweep)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(res.Values)), "cells/req")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runGrid(ctx, c, gcfg, testSweep); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCellQuery measures a single-cell store lookup end to end.
func BenchmarkCellQuery(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	s := New(Config{Workers: 2, Store: st})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := client.New(hs.URL, hs.Client())
	ctx := context.Background()
	one := expt.SweepSpec{Policies: []spec.Policy{spec.STRn(3)}, TUs: []int{4}}.GridSpec()
	if _, err := runGrid(ctx, c, expt.Config{Budget: 100_000, Benchmarks: []string{"swim"}}, one); err != nil {
		b.Fatal(err)
	}
	keys := st.Keys()
	if len(keys) == 0 {
		b.Fatal("no persisted cells")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Cell(ctx, keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}
