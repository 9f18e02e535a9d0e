// Package server is the grid-serving daemon behind `dynloop serve`: a
// long-lived HTTP front end over one shared Runner and one persistent
// result store. Every client grid fans into the same bounded worker
// semaphore and the same memory→disk cache hierarchy, so concurrent
// clients asking overlapping questions — the normal shape of a shared
// configuration grid — cost one execution per distinct cell, and a
// fully warm cell costs one store lookup with no traversal at all.
//
// Endpoints:
//
//	POST /v1/grid    JSON wire.GridRequest (named or inline grid.Spec)
//	                 → binary wire cells payload, in canonical cell order
//	GET  /v1/grids   JSON listing of the registered grid specs
//	GET  /v1/cell    ?key= → the cell's stored codec frame (octet-stream)
//	GET  /v1/events  Server-Sent Events stream of runner progress
//	GET  /v1/stats   JSON wire.Stats (runner, store, traversal counters)
//	GET  /healthz    liveness probe
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"dynloop/internal/expt"
	"dynloop/internal/grid"
	"dynloop/internal/harness"
	"dynloop/internal/interp"
	"dynloop/internal/obs"
	"dynloop/internal/runner"
	"dynloop/internal/store"
	"dynloop/internal/tracefile"
	"dynloop/internal/wire"
)

// Config parametrises a Server.
type Config struct {
	// Workers bounds the shared Runner's concurrently executing cells;
	// 0 selects GOMAXPROCS.
	Workers int
	// Store, when non-nil, is the persistent result tier. The server
	// does not close it.
	Store *store.Store
	// MaxInflight bounds concurrently computed grid requests (each may
	// expand to many cells; the cells themselves additionally ride the
	// worker semaphore). 0 selects 2×workers. Excess requests queue
	// until a slot frees or the client gives up.
	MaxInflight int
	// MaxCells rejects grid requests expanding to more cells than
	// this, protecting the daemon from accidental mega-grids.
	// 0 selects DefaultMaxCells.
	MaxCells int
	// OnEvent, when non-nil, additionally receives every runner
	// progress event in-process (SSE subscribers get them regardless).
	OnEvent func(runner.Event)
	// Traces, when non-nil, is the replay tier: cells that miss both
	// the memory cache and the store replay the archived trace of their
	// (benchmark, seed) group instead of interpreting, recording it on
	// first contact. The server does not close it.
	Traces *harness.Traces
	// Logger, when non-nil, receives one structured log record per
	// request (id, endpoint, status, duration, cells, tier deltas).
	Logger *slog.Logger
	// Warm lists registered grid specs for the background warmer; the
	// single entry "all" selects every registered grid. The warmer
	// precomputes each spec through the shared runner (and so into the
	// store tier) whenever no foreground request is in flight. Empty
	// disables warming.
	Warm []string
	// WarmBenchmarks narrows warming to these workloads for specs that
	// do not pin their own benchmark axis (nil = all).
	WarmBenchmarks []string
	// QueueWait bounds how long a request may queue for an inflight
	// slot before the daemon sheds it with 422 + Retry-After rather
	// than letting the queue grow unboundedly. 0 selects
	// DefaultQueueWait; negative waits forever (the pre-timeout
	// behavior).
	QueueWait time.Duration
}

// DefaultMaxCells bounds the grid size of one grid request.
const DefaultMaxCells = 100_000

// DefaultQueueWait bounds how long a request queues for an inflight
// slot before being shed.
const DefaultQueueWait = 30 * time.Second

// Server owns the shared Runner, the optional store and the progress
// fan-out. Create one with New.
type Server struct {
	cfg       Config
	runner    *runner.Runner
	inflight  chan struct{}
	maxCells  int
	queueWait time.Duration
	warm      *warmer // nil when warming is off

	hub *hub
}

// New builds a Server and its shared Runner (wired to the store tier
// and the progress hub).
func New(cfg Config) *Server {
	s := &Server{cfg: cfg, hub: newHub()}
	onEvent := s.hub.publish
	if cfg.OnEvent != nil {
		onEvent = func(ev runner.Event) {
			s.hub.publish(ev)
			cfg.OnEvent(ev)
		}
	}
	rc := runner.Config{Workers: cfg.Workers, OnEvent: onEvent}
	if cfg.Store != nil {
		rc.Cache = store.NewCache(cfg.Store)
	}
	s.runner = runner.New(rc)
	inflight := cfg.MaxInflight
	if inflight <= 0 {
		inflight = 2 * s.runner.Workers()
	}
	s.inflight = make(chan struct{}, inflight)
	s.maxCells = cfg.MaxCells
	if s.maxCells <= 0 {
		s.maxCells = DefaultMaxCells
	}
	s.queueWait = cfg.QueueWait
	if s.queueWait == 0 {
		s.queueWait = DefaultQueueWait
	}
	return s
}

// StartWarmer resolves Config.Warm and launches the background grid
// warmer; it runs until every unit is done or ctx ends.
// ListenAndServe calls this when warming is configured; tests may call
// it directly. Unknown spec names error out before anything runs.
func (s *Server) StartWarmer(ctx context.Context) error {
	w, err := newWarmer(s, s.cfg.Warm, s.cfg.WarmBenchmarks)
	if err != nil {
		return err
	}
	s.warm = w
	go w.run(ctx)
	return nil
}

// WarmerStats snapshots the warmer's progress; ok=false when no warmer
// is configured.
func (s *Server) WarmerStats() (WarmerStats, bool) {
	if s.warm == nil {
		return WarmerStats{}, false
	}
	return s.warm.stats(), true
}

// inflightNow is the number of foreground requests holding (or
// occupying) inflight slots; the warmer yields while it is non-zero.
func (s *Server) inflightNow() int { return len(s.inflight) }

// Runner exposes the shared runner (for stats lines and tests).
func (s *Server) Runner() *runner.Runner { return s.runner }

// Handler returns the daemon's routes, each wrapped in the metrics
// (and, when configured, request-logging) middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/grid", s.instrument("/v1/grid", s.handleGrid))
	mux.HandleFunc("GET /v1/grids", s.instrument("/v1/grids", s.handleGrids))
	mux.HandleFunc("GET /v1/cell", s.instrument("/v1/cell", s.handleCell))
	mux.HandleFunc("GET /v1/events", s.instrument("/v1/events", s.handleEvents))
	mux.HandleFunc("GET /v1/stats", s.instrument("/v1/stats", s.handleStats))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", obs.Handler().ServeHTTP))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}))
	return mux
}

// ListenAndServe runs the daemon until ctx is cancelled, then shuts
// down gracefully: the listener closes, in-flight requests get grace
// to finish, and the progress hub's event streams end (so SSE clients
// see EOF rather than a hang). ready, when non-nil, receives the bound
// address once the listener is up (useful with ":0") and is closed.
func (s *Server) ListenAndServe(ctx context.Context, addr string, ready chan<- string, grace time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr().String()
		close(ready)
	}
	if grace <= 0 {
		grace = 10 * time.Second
	}
	// Requests outlive the serve ctx through the grace window: they are
	// cancelled only after Shutdown has had its chance to drain them,
	// so a SIGINT lets in-flight sweeps finish (and their cells land in
	// the store) instead of wasting the work already done.
	reqCtx, cancelReqs := context.WithCancel(context.WithoutCancel(ctx))
	defer cancelReqs()
	if len(s.cfg.Warm) > 0 {
		// The warmer dies with the serve ctx: shutdown stops background
		// work immediately, only foreground requests get grace.
		if err := s.StartWarmer(ctx); err != nil {
			ln.Close()
			return err
		}
	}
	hs := &http.Server{
		Handler:     s.Handler(),
		BaseContext: func(net.Listener) context.Context { return reqCtx },
	}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	select {
	case err := <-done:
		s.hub.close()
		return err
	case <-ctx.Done():
	}
	// The SSE streams must end first — Shutdown waits for active
	// handlers, and an open event stream is an active handler.
	s.hub.close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err = hs.Shutdown(shutdownCtx)
	// Grace expired (or Shutdown failed): hard-cancel whatever is left.
	cancelReqs()
	if serveErr := <-done; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// shed rejects a request with 422 plus a jittered Retry-After, so a
// fleet of retrying clients spreads out instead of stampeding back in
// lockstep. The metrics middleware counts the 422 as shed load.
func shed(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Retry-After", fmt.Sprint(1+rand.IntN(4)))
	httpError(w, http.StatusUnprocessableEntity, format, args...)
}

// errQueueFull reports an acquire that timed out waiting for an
// inflight slot; the handler sheds the request.
var errQueueFull = errors.New("server: inflight queue wait exceeded")

// acquire takes one inflight slot, queueing up to the configured wait.
// A timed-out wait returns errQueueFull for the handler to shed; an
// abandoned wait (client hung up) counts as shed load directly, since
// no response status will ever be written.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.inflight <- struct{}{}:
		return nil
	default:
	}
	var timeout <-chan time.Time
	if s.queueWait > 0 {
		t := time.NewTimer(s.queueWait)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case s.inflight <- struct{}{}:
		return nil
	case <-timeout:
		return errQueueFull
	case <-ctx.Done():
		mHTTPShed.Inc()
		return ctx.Err()
	}
}

// handleGrid executes one declarative grid — a registered spec by name
// or an inline ad-hoc spec — on the shared runner and streams the cell
// values back as codec frames in canonical cell order. The client
// rebuilds the cells from the same deterministic spec expansion, so a
// remote grid renders byte-identically to a local run.
func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	var req wire.GridRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	var gs grid.Spec
	switch {
	case req.Name != "":
		e, ok := grid.Lookup(req.Name)
		if !ok {
			httpError(w, http.StatusNotFound, "no registered grid %q (see GET /v1/grids)", req.Name)
			return
		}
		gs = e.Spec
	case req.Spec != nil:
		gs = *req.Spec
	default:
		httpError(w, http.StatusBadRequest, "grid request needs a name or an inline spec")
		return
	}
	cfg := expt.Config{
		Budget:     req.Budget,
		Seed:       req.Seed,
		Benchmarks: req.Benchmarks,
		BatchSize:  req.BatchSize,
		Runner:     s.runner,
		Traces:     s.cfg.Traces,
	}
	if err := gs.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cells, err := gs.Size(cfg)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if cells > s.maxCells {
		shed(w, "grid of %d cells exceeds the daemon's limit of %d", cells, s.maxCells)
		return
	}
	if err := s.acquire(r.Context()); err != nil {
		if errors.Is(err, errQueueFull) {
			shed(w, "daemon at max inflight for %v; retry shortly", s.queueWait)
		}
		return // otherwise the client went away while queued
	}
	defer func() { <-s.inflight }()
	res, err := grid.Run(r.Context(), cfg, gs)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			httpError(w, http.StatusServiceUnavailable, "grid canceled: %v", err)
			return
		}
		httpError(w, http.StatusInternalServerError, "grid failed: %v", err)
		return
	}
	body, err := wire.AppendCells(nil, res.Values)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding cells: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Dynloop-Cells", fmt.Sprint(len(res.Values)))
	w.Write(body)
}

// handleGrids lists the registered grids with their canonical specs, so
// clients can discover, fetch, tweak and resubmit them.
func (s *Server) handleGrids(w http.ResponseWriter, r *http.Request) {
	names := grid.Names()
	out := make([]wire.GridInfo, 0, len(names))
	for _, name := range names {
		e, ok := grid.Lookup(name)
		if !ok {
			continue
		}
		cells, err := e.Spec.Size(expt.Config{})
		if err != nil {
			cells = 0
		}
		out = append(out, wire.GridInfo{
			Name:  name,
			Title: e.Spec.Title,
			Kind:  e.Spec.Kind,
			Cells: cells,
			Spec:  e.Spec,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		httpError(w, http.StatusServiceUnavailable, "daemon runs without a persistent store")
		return
	}
	key, err := url.QueryUnescape(r.URL.Query().Get("key"))
	if err != nil || key == "" {
		httpError(w, http.StatusBadRequest, "missing or malformed ?key=")
		return
	}
	frame, ok, err := s.cfg.Store.Get(key)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "store: %v", err)
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, "no result for key %q", key)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(frame)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	rs := s.runner.Stats()
	ictl, ifull := interp.PlaneRuns()
	rctl, rfull := tracefile.ReplayPlaneRuns()
	reqs, shed, inflight := HTTPTotals()
	st := wire.Stats{
		Workers:    uint64(s.runner.Workers()),
		Traversals: harness.Traversals(),
		Replays:    harness.Replays(),
		Planes: wire.PlaneStats{
			InterpCtl:  ictl,
			InterpFull: ifull,
			ReplayCtl:  rctl,
			ReplayFull: rfull,
		},
		Server: wire.ServerStats{Requests: reqs, Shed: shed, InFlight: inflight},
		Runner: wire.RunnerStats{
			Submitted:  rs.Submitted,
			Executed:   rs.Executed,
			CacheHits:  rs.CacheHits,
			Coalesced:  rs.Coalesced,
			Failures:   rs.Failures,
			GroupRuns:  rs.GroupRuns,
			DiskHits:   rs.DiskHits,
			DiskPuts:   rs.DiskPuts,
			TierErrors: rs.TierErrors,
			ReplayRuns: rs.ReplayRuns,
			RecordRuns: rs.RecordRuns,
		},
	}
	if s.cfg.Store != nil {
		ss := s.cfg.Store.Stats()
		st.Store = &wire.StoreStats{
			Records:          ss.Records,
			Segments:         ss.Segments,
			Bytes:            ss.Bytes,
			DeadBytes:        ss.DeadBytes,
			Puts:             ss.Puts,
			Gets:             ss.Gets,
			Hits:             ss.Hits,
			TruncatedTail:    ss.TruncatedTail,
			SidecarHits:      ss.SidecarHits,
			SidecarRebuilds:  ss.SidecarRebuilds,
			Compactions:      ss.Compactions,
			ReclaimedBytes:   ss.ReclaimedBytes,
			LastCompactError: ss.LastCompactError,
		}
	}
	if ws, ok := s.WarmerStats(); ok {
		st.Warmer = &wire.WarmerStats{
			Units:     ws.Units,
			UnitsDone: ws.UnitsDone,
			Cells:     ws.Cells,
			Pauses:    ws.Pauses,
			Errors:    ws.Errors,
			LastError: ws.LastError,
			Running:   ws.Running,
		}
	}
	if s.cfg.Traces != nil {
		ts := s.cfg.Traces.Stats()
		st.Traces = &wire.TraceStats{
			Replays:   ts.Replays,
			Records:   ts.Records,
			Fallbacks: ts.Fallbacks,
		}
		as := s.cfg.Traces.Archive().Stats()
		st.Archive = &wire.ArchiveStats{
			Recordings:    as.Recordings,
			Records:       as.Records,
			Invalidated:   as.Invalidated,
			SchemaSkips:   as.SchemaSkips,
			TruncatedTail: as.TruncatedTail,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	ch, cancel := s.hub.subscribe()
	defer cancel()
	enc := json.NewEncoder(w)
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return // hub closed: daemon shutting down
			}
			fmt.Fprint(w, "data: ")
			if err := enc.Encode(ev); err != nil {
				return
			}
			fmt.Fprint(w, "\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// hub fans runner progress events out to any number of SSE
// subscribers. Slow subscribers drop events rather than stall the
// workers: progress is advisory, results are not.
type hub struct {
	mu     sync.Mutex
	subs   map[int]chan wire.Event
	next   int
	closed bool
}

func newHub() *hub { return &hub{subs: map[int]chan wire.Event{}} }

func (h *hub) publish(ev runner.Event) {
	wev := wire.Event{
		Kind:      ev.Kind.String(),
		Key:       ev.Key,
		Label:     ev.Label,
		ElapsedMS: ev.Elapsed.Milliseconds(),
		Completed: ev.Completed,
	}
	if ev.Err != nil {
		wev.Err = ev.Err.Error()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, ch := range h.subs {
		select {
		case ch <- wev:
		default:
		}
	}
}

func (h *hub) subscribe() (<-chan wire.Event, func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	id := h.next
	h.next++
	ch := make(chan wire.Event, 256)
	if h.closed {
		close(ch)
		return ch, func() {}
	}
	h.subs[id] = ch
	return ch, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[id]; ok {
			delete(h.subs, id)
		}
	}
}

func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for id, ch := range h.subs {
		close(ch)
		delete(h.subs, id)
	}
}
