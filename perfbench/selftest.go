package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// tinySize shrinks every phase so the self-test takes seconds.
var tinySize = sizing{budget: 20_000, probeBudget: 20_000, fixture: 20_000, coldBudget: 5_000,
	reports: 2, warmRenders: 20, burst: 200, setups: 2}

const tinySeconds = 1.5

// benchmarkSpec is the part of BENCHMARK.json the self-test checks
// runs against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// selfTest runs every workload untraced and traced at a tiny size and
// asserts that each prints every metric BENCHMARK.json names with its
// unit, that both modes print the same end-to-end names, and that a
// tampered report digest counts as a failure. It prints the tracing
// overhead: each end-to-end metric traced over untraced, minus one.
func selfTest() error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bs benchmarkSpec
	if err := json.Unmarshal(b, &bs); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var problems []error
	overhead := map[string]map[string]float64{}
	for _, w := range bs.Workloads {
		plain, err := tinyRun(w.Name, false, false)
		if err != nil {
			return fmt.Errorf("%s untraced: %w", w.Name, err)
		}
		traced, err := tinyRun(w.Name, true, false)
		if err != nil {
			return fmt.Errorf("%s traced: %w", w.Name, err)
		}
		problems = append(problems, hasMetrics(w.Name+" untraced", plain.res.Metrics, bs.EndToEnd)...)
		problems = append(problems, hasMetrics(w.Name+" traced", traced.res.Metrics, bs.PerLayer)...)
		tracedE2E, _ := traced.info["end_to_end"].(metricSet)
		if len(tracedE2E) != len(plain.res.Metrics) {
			problems = append(problems, fmt.Errorf("%s: traced run printed %d end-to-end metrics, untraced %d", w.Name, len(tracedE2E), len(plain.res.Metrics)))
		}
		overhead[w.Name] = map[string]float64{}
		for name, m := range plain.res.Metrics {
			t, ok := tracedE2E[name]
			if !ok {
				problems = append(problems, fmt.Errorf("%s: traced run lacks end-to-end metric %s", w.Name, name))
				continue
			}
			if m.Value != 0 {
				overhead[w.Name][name] = t.Value/m.Value - 1
			}
		}
		for _, e := range []*env{plain, traced} {
			if e.res.Failed != 0 {
				problems = append(problems, fmt.Errorf("%s: %d of %d checks failed", w.Name, e.res.Failed, e.res.Attempted))
			}
		}
	}
	tampered, err := tinyRun("paper-interpret", false, true)
	if err != nil {
		return fmt.Errorf("tampered run: %w", err)
	}
	if tampered.res.Failed == 0 {
		problems = append(problems, errors.New("a tampered report digest was not counted as a failure"))
	}
	out, _ := json.Marshal(map[string]any{"tracing_overhead": overhead, "tampered_failures": tampered.res.Failed})
	fmt.Println(string(out))
	if err := errors.Join(problems...); err != nil {
		return err
	}
	fmt.Println("self-test passed")
	return nil
}

func tinyRun(wl string, traced, tamper bool) (*env, error) {
	e, err := newEnv(wl, 7, tinySeconds, traced, tinySize)
	if err != nil {
		return nil, err
	}
	e.tamper = tamper
	return e, e.run()
}

// hasMetrics reports every expected metric that is missing or carries
// another unit.
func hasMetrics(what string, got metricSet, want []specMetric) []error {
	var errs []error
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("%s: metric %s not printed", what, w.Name))
		case m.Unit != w.Unit:
			errs = append(errs, fmt.Errorf("%s: metric %s has unit %q, want %q", what, w.Name, m.Unit, w.Unit))
		}
	}
	if len(got) != len(want) {
		errs = append(errs, fmt.Errorf("%s: printed %d metrics, BENCHMARK.json names %d", what, len(got), len(want)))
	}
	return errs
}
