// Command perfbench is dynloop's end-to-end benchmark. It drives the
// paper's evaluation (`experiment all`) interpreted and replayed, and an
// open-loop request mix against `dynloop serve`, through the public
// functions of the repository's internal packages. It checks every
// output it measures and prints one JSON result line.
//
// Usage (perfbench/run.sh builds it and the daemon, then runs it from the
// repository root):
//
//	perfbench --workload paper-interpret --seed 1 --seconds 20 --trace 0
//	perfbench --selftest
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run records spans around every layer call it makes and
// the result carries the per-layer metrics instead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *env) error{
	"paper-interpret": runPaperInterpret,
	"paper-replay":    runPaperReplay,
	"serve-mixed":     runServeMixed,
}

// env is one benchmark run: its settings, inputs, checks and results.
type env struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	rng      *rand.Rand
	// root is the repository checkout; work is this run's scratch
	// directory under .bench_build, removed when the run ends.
	root, work string
	daemonBin  string
	src        string // sourceDigest of the checkout
	// size scales every phase; the self-test shrinks it.
	size sizing

	res    result
	info   map[string]any // workload metrics and notes printed before the result
	spans  *spanLog       // nil when untraced
	layers metricSet      // per-layer metrics (traced runs)
	inproc *inProcess     // the traced serve run's server
	// tamper corrupts the report digest, so the self-test can see a
	// failed check counted.
	tamper bool
}

// sizing holds the knobs the self-test shrinks.
type sizing struct {
	budget      uint64 // paper report budget per benchmark
	probeBudget uint64 // layer-probe traversal budget
	fixture     uint64 // serve fixture grid budget
	coldBudget  uint64 // serve cold-write grid budget
	reports     int    // paper reports per run (median reported)
	warmRenders int    // paper-interpret warm re-renders (paper-replay: half)
	burst       int    // serve closed-loop burst requests
	setups      int    // set-ups per run (median reported), for set-ups that take milliseconds
}

var fullSize = sizing{budget: 4_000_000, probeBudget: 1_000_000, fixture: 1_000_000, coldBudget: 25_000,
	reports: 3, warmRenders: 600, burst: 5_000, setups: 25}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// check counts one checked operation and reports it when it fails.
func (e *env) check(ok bool, format string, args ...any) {
	e.res.Attempted++
	if !ok {
		e.res.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// fail counts an operation that errored.
func (e *env) fail(err error) {
	e.res.Attempted++
	e.res.Failed++
	fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
}

func main() {
	wl := flag.String("workload", "", "workload: paper-interpret, paper-replay or serve-mixed")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	traced := flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
	selftest := flag.Bool("selftest", false, "run the short self-test and exit")
	flag.Parse()

	if *selftest {
		if err := selfTest(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: self-test:", err)
			os.Exit(1)
		}
		return
	}
	e, err := newEnv(*wl, *seed, *seconds, *traced == 1, fullSize)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := e.run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	e.print(os.Stdout)
}

// newEnv prepares a run from the repository root, the working
// directory run.sh starts the benchmark in.
func newEnv(wl string, seed uint64, seconds float64, traced bool, size sizing) (*env, error) {
	if _, ok := workloads[wl]; !ok {
		return nil, fmt.Errorf("unknown workload %q", wl)
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	e := &env{
		workload:  wl,
		seed:      seed,
		seconds:   seconds,
		traced:    traced,
		rng:       rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
		root:      root,
		src:       sourceDigest(root),
		daemonBin: filepath.Join(root, ".bench_build", "dynloop"),
		size:      size,
		res:       result{Metrics: metricSet{}},
		info:      map[string]any{},
		layers:    metricSet{},
	}
	if traced {
		e.spans = newSpanLog()
	}
	return e, nil
}

// run executes the workload in a fresh scratch directory and fills the
// result. Errors that stop the run are returned; failed checks are
// counted instead.
func (e *env) run() error {
	base := filepath.Join(e.root, ".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(base, e.workload+"-")
	if err != nil {
		return err
	}
	e.work = work
	defer os.RemoveAll(work)

	ctx := context.Background()
	if err := workloads[e.workload](ctx, e); err != nil {
		return err
	}
	// Calibrate after the measured phases, so it cannot disturb them.
	host := hostStamp(e.root, e.src)
	ref, err := e.refNsPerInstr()
	if err != nil {
		return err
	}
	host["ref_ns_per_instr"] = ref
	e.info["host"] = host
	e.layers.set("host.ref_ns_per_instr", "ns", ref)
	if e.traced {
		if err := e.writeSpans(); err != nil {
			return err
		}
		e.info["end_to_end"] = e.res.Metrics
		e.res.Metrics = e.layers
	}
	e.res.Correct = e.res.Failed == 0
	return nil
}

// print writes the informational lines, then the result line last.
func (e *env) print(f *os.File) {
	for _, k := range sortedKeys(e.info) {
		b, err := json.Marshal(e.info[k])
		if err != nil {
			b = []byte(fmt.Sprintf("%q", fmt.Sprint(e.info[k])))
		}
		fmt.Fprintf(f, "# %s: %s\n", k, b)
	}
	b, err := json.Marshal(e.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(f, string(b))
}

// tampered returns d, corrupted when the self-test asks for it: its
// first hex digit always changes.
func (e *env) tampered(d string) string {
	if !e.tamper {
		return d
	}
	if d[0] == '0' {
		return "f" + d[1:]
	}
	return "0" + d[1:]
}
