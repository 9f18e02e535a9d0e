package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dynloop/internal/client"
	"dynloop/internal/codec"
	"dynloop/internal/expt"
	"dynloop/internal/grid"
	"dynloop/internal/harness"
	"dynloop/internal/interp"
	"dynloop/internal/runner"
	"dynloop/internal/server"
	"dynloop/internal/store"
	"dynloop/internal/wire"
	"dynloop/internal/workload"
)

// The serve-mixed load, fixed once for the benchmark (README.md says
// how). The open loops have Poisson arrivals at fixed shares of the
// capacity the closed-loop burst just before them measured; the p99
// limit decides max_rps.
const (
	lowShare    = 0.25
	highShare   = 0.50
	p99LimitMS  = 20.0
	serveConns  = 2    // generator connections (and daemon workers)
	openRounds  = 8    // rounds of burst, low and high
	phaseShare  = 0.25 // of --seconds, each of low and high over all rounds
	searchShare = 0.30 // the max_rps search, split over its steps
	searchSteps = 4
	cellShare   = 0.85 // GET /v1/cell
	readShare   = 0.14 // warm POST /v1/grid; the rest are cold writes
	writeSample = 3    // every writeSample-th cold write is recomputed locally
)

// fixtureGrids are the registered grids whose cells fill the serve
// fixture store and answer the warm grid reads.
var fixtureGrids = []string{"table1", "table2", "fig4"}

// request classes, as the handler and client metrics name them.
const (
	classCell  = "cell"
	classRead  = "read_grid"
	classWrite = "write_grid"
)

var classes = []string{classCell, classRead, classWrite}

// fixture is the serve workload's store content and the local values
// every response is checked against.
type fixture struct {
	dir     string
	keys    []string
	frames  map[string][]byte // key -> codec frame
	results map[string]*grid.Result
	budget  uint64
	seed    uint64
}

// buildFixture computes the fixture grids and writes their cells into
// a fresh store at dir.
func (e *env) buildFixture(ctx context.Context, dir string) (*fixture, error) {
	r := runner.New(runner.Config{Workers: paperWorkers})
	results := map[string]*grid.Result{}
	for _, name := range fixtureGrids {
		ent, _ := grid.Lookup(name)
		res, err := grid.Run(ctx, expt.Config{Budget: e.size.fixture, Seed: e.seed, Runner: r}, ent.Spec)
		if err != nil {
			return nil, fmt.Errorf("fixture %s: %w", name, err)
		}
		results[name] = res
	}
	fx, err := newFixture(results, e.size.fixture, e.seed)
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	for _, k := range fx.keys {
		if err := st.Put(k, fx.frames[k]); err != nil {
			st.Close()
			return nil, err
		}
	}
	fx.dir = dir
	return fx, st.Close()
}

// newFixture indexes grid results by cell key, as the store and the
// cell route hold them.
func newFixture(results map[string]*grid.Result, budget, seed uint64) (*fixture, error) {
	fx := &fixture{frames: map[string][]byte{}, results: results, budget: budget, seed: seed}
	for _, name := range sortedKeys(results) {
		res := results[name]
		for i, c := range res.Cells {
			f, err := codec.Encode(res.Values[i])
			if err != nil {
				return nil, fmt.Errorf("fixture %s: %w", name, err)
			}
			if _, dup := fx.frames[c.Key]; !dup {
				fx.keys = append(fx.keys, c.Key)
			}
			fx.frames[c.Key] = f
		}
	}
	return fx, nil
}

// daemon is a `dynloop serve` child process.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once stderr is drained
}

// startDaemon launches the daemon on a free loopback port and returns
// once /healthz answers.
func startDaemon(ctx context.Context, bin, storeDir string) (*daemon, error) {
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-parallel", fmt.Sprint(serveConns), "-store", storeDir)
	// The daemon must not outlive the benchmark, even if it crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, u, ok := strings.Cut(sc.Text(), "serving on "); ok {
				addr <- strings.Fields(u)[0]
			}
		}
	}()
	select {
	case d.url = <-addr:
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, errors.New("daemon did not report its address")
	}
	if err := waitHealthy(ctx, d.url); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop interrupts the daemon for a graceful shutdown and waits for it.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(os.Interrupt) // it may already have exited
	exited := make(chan error, 1)
	go func() { exited <- d.cmd.Wait() }()
	select {
	case err := <-exited:
		<-d.done
		return err
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill() // it ignored the interrupt
		<-exited
		<-d.done
		return errors.New("daemon ignored the interrupt and was killed")
	}
}

func waitHealthy(ctx context.Context, base string) error {
	c := client.New(base, &http.Client{Timeout: time.Second})
	deadline := time.Now().Add(60 * time.Second)
	for {
		err := c.Health(ctx)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not healthy: %w", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// inProcess is the traced run's server: server.Handler wrapped by the
// timing handler, on a loopback listener in this process.
type inProcess struct {
	srv  *server.Server
	st   *store.Store
	http *http.Server
	url  string
	done chan error
}

func startInProcess(ctx context.Context, storeDir string, log *spanLog, jobs *jobRecorder) (*inProcess, error) {
	st, err := store.Open(storeDir, store.Options{})
	if err != nil {
		return nil, err
	}
	cfg := server.Config{Workers: serveConns, Store: st}
	if jobs != nil {
		cfg.OnEvent = jobs.onEvent
	}
	p := &inProcess{srv: server.New(cfg), st: st, done: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	p.url = "http://" + ln.Addr().String()
	p.http = &http.Server{Handler: timingHandler{inner: p.srv.Handler(), log: log}}
	go func() { p.done <- p.http.Serve(ln) }()
	if err := waitHealthy(ctx, p.url); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

func (p *inProcess) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := p.http.Shutdown(ctx)
	if serr := <-p.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := p.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// call is one generated request.
type call struct {
	class     string
	due       time.Duration // since the phase began
	key       string        // cell
	grid      wire.GridRequest
	id        int64         // draw order, which picks the sampled cold writes
	span      int64         // client span id (0 untraced)
	lat       time.Duration // from due (open loop) or send (closed loop) to the decoded response
	late      time.Duration // how late it was sent: waiting for a connection plus overshoot
	overshoot time.Duration // the generator's own timer error: sent minus when it could first be sent
	rtt       time.Duration // send to last response byte
	values    []any
	failed    bool
	shedded   bool
}

// gen draws the mixed load from the run's seeded RNG.
type gen struct {
	e        *env
	fx       *fixture
	coldNext atomic.Uint64
	nextID   atomic.Int64
}

func (g *gen) next(due time.Duration) *call {
	c := &call{due: due, id: g.nextID.Add(1)}
	names := workload.Names()
	switch p := g.e.rng.Float64(); {
	case p < cellShare:
		c.class = classCell
		c.key = g.fx.keys[g.e.rng.IntN(len(g.fx.keys))]
	case p < cellShare+readShare:
		c.class = classRead
		n := 1 + g.e.rng.IntN(3)
		var bms []string
		for _, i := range g.e.rng.Perm(len(names))[:n] {
			bms = append(bms, names[i])
		}
		c.grid = wire.GridRequest{Name: fixtureGrids[g.e.rng.IntN(len(fixtureGrids))],
			Benchmarks: bms, Budget: g.fx.budget, Seed: g.fx.seed}
	default:
		c.class = classWrite
		// A seed no earlier request used, so the daemon interprets and
		// stores a new cell.
		seed := 1_000_000 + g.e.seed*100_000 + g.coldNext.Add(1)
		c.grid = wire.GridRequest{Name: "table2", Benchmarks: []string{names[g.e.rng.IntN(len(names))]},
			Budget: g.e.size.coldBudget, Seed: seed}
	}
	return c
}

// schedule draws a Poisson open-loop schedule at rate rps for d.
func (g *gen) schedule(rps float64, d time.Duration) []*call {
	var out []*call
	t := time.Duration(0)
	for {
		t += time.Duration(g.e.rng.ExpFloat64() / rps * float64(time.Second))
		if t >= d {
			return out
		}
		out = append(out, g.next(t))
	}
}

// loadClient sends requests through client.Client over at most
// serveConns connections.
type loadClient struct {
	c  *client.Client
	hc *http.Client
}

func newLoadClient(base string, log *spanLog) *loadClient {
	tr := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true}
	hc := &http.Client{Transport: callTransport{inner: tr, log: log}, Timeout: 60 * time.Second}
	return &loadClient{c: client.New(base, hc), hc: hc}
}

func (lc *loadClient) close() { lc.hc.CloseIdleConnections() }

// callKey carries a request's *call in its context to callTransport.
type callKey struct{}

// callTransport tags each request with its client span id and class for
// the timing handler, and times it from send to the last response byte.
type callTransport struct {
	inner http.RoundTripper
	log   *spanLog
}

func (t callTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c := req.Context().Value(callKey{}).(*call) // send always sets it
	c.span = t.log.id()
	req = req.Clone(req.Context())
	req.Header.Set(reqIDHeader, strconv.FormatInt(c.span, 10))
	req.Header.Set(classHeader, c.class)
	start := time.Now()
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		end := time.Now()
		c.rtt = end.Sub(start)
		t.log.record(c.span, 0, c.span, "client", c.class, start, end)
	}}
	return resp, nil
}

// timedBody calls done once, at the end of the body or when it is
// closed, whichever comes first.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// send makes one call through the client, which decodes the response
// through codec or wire.
func (lc *loadClient) send(ctx context.Context, c *call) error {
	ctx = context.WithValue(ctx, callKey{}, c)
	var err error
	if c.class == classCell {
		var v any
		v, err = lc.c.Cell(ctx, c.key)
		c.values = []any{v}
	} else {
		c.values, err = lc.c.Grid(ctx, c.grid)
	}
	var shed *client.ErrShed
	c.shedded = errors.As(err, &shed)
	return err
}

// run sends calls in schedule order from serveConns workers. In an open
// loop each call waits for its due time and its latency counts from
// then; closed, every call is due at once and latency is its round
// trip.
func (lc *loadClient) run(ctx context.Context, calls []*call, open bool) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := start // when this worker's connection last became free
			for {
				i := int(next.Add(1) - 1)
				if i >= len(calls) {
					return
				}
				c := calls[i]
				due := start.Add(c.due)
				if open {
					sleepUntil(due)
				}
				sent := time.Now()
				c.late, c.overshoot = sent.Sub(due), sent.Sub(latest(due, free))
				err := lc.send(ctx, c)
				free = time.Now()
				if open {
					c.lat = free.Sub(due)
				} else {
					c.lat = free.Sub(sent)
				}
				if err != nil {
					c.failed = true
					fmt.Fprintln(os.Stderr, "perfbench: request failed:", err)
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

func latest(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// prSetTimerslack is prctl's PR_SET_TIMERSLACK.
const prSetTimerslack = 29

// sleepUntil blocks until t. time.Sleep rounds waits shorter than a
// millisecond up to about a millisecond on Linux, which would put the
// generator's own timer into every open-loop latency, so the wait is a
// nanosleep on a thread whose timer slack is 1 ns (a few microseconds
// late at the median).
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// Should prctl fail, the sleep is only less precise.
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// verify checks every response against the fixture and queues a seeded
// sample of the cold writes for local recomputation.
func (g *gen) verify(calls []*call, pending *[]*call) {
	e := g.e
	for _, c := range calls {
		if c.failed {
			e.res.Attempted++
			e.res.Failed++
			continue
		}
		switch c.class {
		case classCell:
			f, err := codec.Encode(c.values[0])
			e.check(err == nil && string(f) == string(g.fx.frames[c.key]), "serve: cell %q differs from the fixture", c.key)
		case classRead:
			e.check(g.matchesFixture(c), "serve: warm %s grid for %v differs from the local run", c.grid.Name, c.grid.Benchmarks)
		case classWrite:
			if c.id%writeSample == 0 {
				*pending = append(*pending, c)
			} else {
				e.check(len(c.values) == 1, "serve: cold write returned %d cells", len(c.values))
			}
		}
	}
}

func (g *gen) matchesFixture(c *call) bool {
	ent, _ := grid.Lookup(c.grid.Name)
	cells, _, err := grid.Compile(expt.Config{Budget: c.grid.Budget, Seed: c.grid.Seed, Benchmarks: c.grid.Benchmarks}, ent.Spec)
	if err != nil || len(cells) != len(c.values) {
		return false
	}
	for i, cell := range cells {
		f, err := codec.Encode(c.values[i])
		if err != nil || string(f) != string(g.fx.frames[cell.Key]) {
			return false
		}
	}
	return true
}

// checkWrites recomputes the sampled cold writes with a local grid.Run.
func (e *env) checkWrites(ctx context.Context, pending []*call) {
	for _, c := range pending {
		ent, _ := grid.Lookup(c.grid.Name)
		res, err := grid.Run(ctx, expt.Config{Budget: c.grid.Budget, Seed: c.grid.Seed,
			Benchmarks: c.grid.Benchmarks, Parallel: 1}, ent.Spec)
		if err != nil {
			e.fail(err)
			continue
		}
		e.check(sameValues(res.Values, c.values), "serve: cold write %v seed %d differs from the local run", c.grid.Benchmarks, c.grid.Seed)
	}
}

// phaseStats summarises one open-loop rate over its rounds.
type phaseStats struct {
	rps                       float64
	p50, p90, p99             float64 // ms, all classes; p50 and p90 the median of the rounds'
	writeP99                  float64
	lateP50, lateP99, lateMax float64 // ms
	overP50, overP99          float64 // ms, the generator's timer overshoot
	tailLate                  float64 // ms, worst p99 lateness over a round's last tenth
	failed                    int
}

func summarize(rps float64, rounds [][]*call) phaseStats {
	var lat, wlat, late, over, p50s, p90s []float64
	s := phaseStats{rps: rps}
	for _, calls := range rounds {
		var rlat, tail []float64
		for i, c := range calls {
			if c.failed {
				s.failed++
				rlat = append(rlat, math.Inf(1)) // a failure misses every limit
				continue
			}
			rlat = append(rlat, ms(c.lat))
			late = append(late, ms(max(c.late, 0)))
			over = append(over, ms(max(c.overshoot, 0)))
			if c.class == classWrite {
				wlat = append(wlat, ms(c.lat))
			}
			if i >= len(calls)*9/10 {
				tail = append(tail, ms(max(c.late, 0)))
			}
		}
		lat = append(lat, rlat...)
		p50s, p90s = append(p50s, quantile(rlat, 0.5)), append(p90s, quantile(rlat, 0.9))
		s.tailLate = max(s.tailLate, quantile(tail, 0.99))
	}
	s.p50, s.p90, s.p99 = median(p50s), median(p90s), quantile(lat, 0.99)
	s.writeP99 = quantile(wlat, 0.99)
	s.lateP50, s.lateP99 = quantile(late, 0.5), quantile(late, 0.99)
	s.overP50, s.overP99 = quantile(over, 0.5), quantile(over, 0.99)
	for _, l := range late {
		s.lateMax = max(s.lateMax, l)
	}
	return s
}

// meets reports whether a phase met the p99 limit without failures or
// a backlog still growing at its end.
func (s phaseStats) meets() bool {
	return s.failed == 0 && s.p99 <= p99LimitMS && s.tailLate <= p99LimitMS
}

func runServeMixed(ctx context.Context, e *env) error {
	fx, err := e.buildFixture(ctx, filepath.Join(e.work, "fixture"))
	if err != nil {
		return err
	}
	relErr, _, err := paperRelErr(fx.results["table1"], fx.results["table2"])
	if err != nil {
		return err
	}

	// Set-up: daemon launch to healthy, several times; the last stays.
	var jobs *jobRecorder
	var stopServer func() error
	var base string
	var daemonPID int
	if err := e.timeSetups(e.size.setups, func(i int) error {
		if stopServer != nil {
			if err := stopServer(); err != nil {
				return err
			}
		}
		if e.traced {
			jobs = &jobRecorder{log: e.spans}
			p, err := startInProcess(ctx, fx.dir, e.spans, jobs)
			if err != nil {
				return err
			}
			stopServer, base = p.stop, p.url
			e.inproc = p
			return nil
		}
		d, err := startDaemon(ctx, e.daemonBin, fx.dir)
		if err != nil {
			return err
		}
		stopServer, base, daemonPID = d.stop, d.url, d.cmd.Process.Pid
		return nil
	}); err != nil {
		if stopServer != nil {
			stopServer()
		}
		return err
	}
	trav0, rep0, instr0 := harness.Traversals(), harness.Replays(), interp.Instructions()
	lc := newLoadClient(base, e.spans)
	g := &gen{e: e, fx: fx}
	var pending []*call
	var all []*call
	rss := startRSS()

	round := func(rps, share float64) []*call {
		calls := g.schedule(rps, secs(share*e.seconds))
		lc.run(ctx, calls, true)
		g.verify(calls, &pending)
		all = append(all, calls...)
		return calls
	}
	// Rounds of a closed-loop burst (a fixed batch of the mix over both
	// connections), then the low and the high rate, each a share of that
	// burst's capacity: the shared host's speed swings from run to run
	// and within one, and fixed absolute rates would swing the load with
	// it. A stall lands in a few rounds rather than in a whole phase.
	loadStart := time.Now()
	var bursts, lowRates, highRates []float64
	var burstCalls []*call
	var lowRounds, highRounds [][]*call
	for r := 0; r < openRounds; r++ {
		burst := make([]*call, e.size.burst)
		for i := range burst {
			burst[i] = g.next(0)
		}
		wall := lc.run(ctx, burst, false).Seconds()
		bursts = append(bursts, wall)
		g.verify(burst, &pending)
		burstCalls = append(burstCalls, burst...)
		capacity := float64(len(burst)) / wall
		lowRates, highRates = append(lowRates, lowShare*capacity), append(highRates, highShare*capacity)
		lowRounds = append(lowRounds, round(lowRates[r], phaseShare/openRounds))
		highRounds = append(highRounds, round(highRates[r], phaseShare/openRounds))
	}
	all = append(all, burstCalls...)
	burstWall := median(bursts)
	capacity := float64(e.size.burst) / burstWall
	low, high := summarize(median(lowRates), lowRounds), summarize(median(highRates), highRounds)

	// max_rps: bisect between the higher rate that met the limit and
	// above the bursts' capacity.
	lo, hi := 0.0, capacity*1.2
	for _, s := range []phaseStats{low, high} {
		if s.meets() {
			lo = s.rps
		}
	}
	var steps []map[string]float64
	for i := 0; i < searchSteps; i++ {
		rate := (lo + hi) / 2
		s := summarize(rate, [][]*call{round(rate, searchShare/searchSteps)})
		steps = append(steps, map[string]float64{"rps": rate, "p99_ms": s.p99, "tail_late_ms": s.tailLate})
		if s.meets() {
			lo = rate
		} else {
			hi = rate
		}
	}
	loadWall := time.Since(loadStart)
	serverRSS := rss.Stop()
	if daemonPID != 0 {
		serverRSS = rssMiB(daemonPID, "VmHWM")
	}
	var storeStats store.Stats
	if e.traced {
		storeStats = e.inproc.st.Stats()
	}
	lc.close()
	if err := stopServer(); err != nil {
		e.fail(fmt.Errorf("server shutdown: %w", err))
	}
	trav, reps, instrs := harness.Traversals()-trav0, harness.Replays()-rep0, interp.Instructions()-instr0
	e.checkWrites(ctx, pending)

	e.res.Metrics.set("wall_s", "s", burstWall)
	e.res.Metrics.set("lat_p50_ms", "ms", high.p50)
	e.res.Metrics.set("peak_rss_mb", "MiB", serverRSS)
	e.res.Metrics.set("paper_rel_err", "ratio", relErr)
	wm := map[string]any{
		"lat_p50_ms.low":        metric{low.p50, "ms"},
		"lat_p99_ms.low":        metric{low.p99, "ms"},
		"lat_p50_ms.high":       metric{high.p50, "ms"},
		"lat_p90_ms.high":       metric{high.p90, "ms"},
		"lat_p99_ms.high":       metric{high.p99, "ms"},
		"write_lat_p99_ms.high": metric{high.writeP99, "ms"},
		"max_rps":               metric{lo, "1/s"},
		"burst_rps":             metric{capacity, "1/s"},
		"burst_class_ms":        classLatency(burstCalls),
		"requests":              len(all),
		"generator_late_ms": map[string]any{
			"low":  lateness(low),
			"high": lateness(high),
		},
		"max_rps_search": steps,
		"rates": map[string]float64{"low_share": lowShare, "low_rps": low.rps, "high_share": highShare,
			"high_rps": high.rps, "p99_limit_ms": p99LimitMS},
	}
	e.info["workload_metrics"] = wm
	if !e.traced {
		return nil
	}
	e.layers.set("harness.traversals", "count", float64(trav))
	e.layers.set("harness.replays", "count", float64(reps))
	e.layers.set("interp.instructions", "count", float64(instrs))
	e.runnerLayers(e.inproc.srv.Runner(), jobs, loadWall)
	e.layers.set("store.gets", "count", float64(storeStats.Gets))
	e.layers.set("store.puts", "count", float64(storeStats.Puts))
	e.serverLayers(all)
	units, err := e.probeUnitsFrom(workload.Names())
	if err != nil {
		return err
	}
	return e.probeLayers(ctx, units, fx.results, true)
}

// classLatency gives each request class's share of the calls and its
// p50 and p99 latency in ms.
func classLatency(calls []*call) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, cl := range classes {
		var lat []float64
		for _, c := range calls {
			if c.class == cl && !c.failed {
				lat = append(lat, ms(c.lat))
			}
		}
		out[cl] = map[string]float64{"share": float64(len(lat)) / float64(max(len(calls), 1)),
			"p50": quantile(lat, 0.5), "p99": quantile(lat, 0.99)}
	}
	return out
}

// lateness is how late the generator sent a phase's requests, beside
// the phase's p50 latency, which counts from the due time and so
// includes it. Waiting for a busy connection is the load's queueing;
// overshoot is the generator's own timer error.
func lateness(s phaseStats) map[string]float64 {
	return map[string]float64{"lat_p50": s.p50, "p50": s.lateP50, "p99": s.lateP99, "max": s.lateMax,
		"overshoot_p50": s.overP50, "overshoot_p99": s.overP99}
}

// serverLayers derives the handler, transport and client metrics from
// the calls and the server and client spans.
func (e *env) serverLayers(calls []*call) {
	handler := map[int64]time.Duration{}
	for _, s := range e.spans.snapshot() {
		if s.Layer == "server" && s.Req != 0 {
			handler[s.Req] = s.dur()
		}
	}
	var transport []float64
	shed := 0
	for _, cl := range classes {
		var h, rtt []float64
		for _, c := range calls {
			if c.class != cl {
				continue
			}
			if c.shedded {
				shed++
			}
			if c.failed {
				continue
			}
			rtt = append(rtt, ms(c.rtt))
			if d, ok := handler[c.span]; ok {
				h = append(h, ms(d))
				transport = append(transport, ms(c.rtt-d))
			}
		}
		e.layers.set("server.handler_ms."+cl+".p50", "ms", quantile(h, 0.5))
		e.layers.set("server.handler_ms."+cl+".p99", "ms", quantile(h, 0.99))
		e.layers.set("client.rtt_ms."+cl+".p99", "ms", quantile(rtt, 0.99))
	}
	e.layers.set("server.transport_ms.p99", "ms", quantile(transport, 0.99))
	e.layers.set("server.shed", "count", float64(shed))
}
