package client_test

import (
	"context"
	"fmt"
	"net/http/httptest"

	"dynloop/internal/client"
	"dynloop/internal/grid"
	"dynloop/internal/server"
	"dynloop/internal/spec"
	"dynloop/internal/wire"
)

// ExampleClient runs a small remote grid against an in-process daemon
// and pairs the returned values with the spec's deterministic cell
// expansion. Against a real deployment, replace the httptest server
// with the daemon's address: client.New("http://127.0.0.1:9090", nil).
func ExampleClient() {
	srv := server.New(server.Config{Workers: 1})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	c := client.New(hs.URL, hs.Client())
	cfg := grid.Config{Benchmarks: []string{"swim"}, Budget: 100_000}
	gs := grid.Spec{Kind: "spec", Policies: []string{"STR(3)"}, TUs: []int{4}}
	values, err := c.Grid(context.Background(), wire.GridRequest{
		Spec:       &gs,
		Benchmarks: cfg.Benchmarks,
		Budget:     cfg.Budget,
	})
	if err != nil {
		fmt.Println("grid:", err)
		return
	}
	res, err := grid.ResultFrom(cfg, gs, values)
	if err != nil {
		fmt.Println("grid:", err)
		return
	}
	for i, cell := range res.Cells {
		m := res.Values[i].(spec.Metrics)
		fmt.Printf("%s %s/%d TUs: TPC %.2f, hit %.1f%%\n",
			cell.Coord.Bench, cell.Coord.Policy, cell.Coord.TUs, m.TPC(), m.HitRatio())
	}
	// Output:
	// swim STR(3)/4 TUs: TPC 3.50, hit 84.8%
}
