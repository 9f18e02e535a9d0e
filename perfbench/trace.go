package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dynloop/internal/runner"
)

// span is one timed call into a layer. Parent links a span to the span
// that caused it (0 = none); Req groups the spans of one request.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log began
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced runs pay one nil check per call.
type spanLog struct {
	t0   time.Time
	next atomic.Int64
	// phase is the open end-to-end span: spans recorded without a
	// parent while it is open become its children.
	phase atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// id reserves a span identifier, so children can name a parent that
// has not ended yet.
func (l *spanLog) id() int64 {
	if l == nil {
		return 0
	}
	return l.next.Add(1)
}

// open reserves an end-to-end span id and makes it the parent of the
// parentless spans recorded until it is closed with record.
func (l *spanLog) open() int64 {
	id := l.id()
	if l != nil {
		l.phase.Store(id)
	}
	return id
}

// record stores a finished span under a reserved id, closing it if it
// is the open end-to-end span.
func (l *spanLog) record(id, parent, req int64, layer, name string, start, end time.Time) {
	if l == nil {
		return
	}
	closing := l.phase.CompareAndSwap(id, 0)
	if parent == 0 && !closing {
		parent = l.phase.Load()
	}
	s := span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds()}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// add records a span that has no children of its own.
func (l *spanLog) add(parent, req int64, layer, name string, start, end time.Time) {
	l.record(l.id(), parent, req, layer, name, start, end)
}

// snapshot copies the spans recorded so far.
func (l *spanLog) snapshot() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// selfTimes returns each layer's self time in seconds: its spans'
// durations minus the part of each span's interval its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		covered := coveredNs(s, children[s.ID])
		out[s.Layer] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// coveredNs is the length of the union of the children's intervals,
// clipped to the parent's interval.
func coveredNs(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
			continue
		}
		curB = max(curB, v[1])
	}
	return total + curB - curA
}

// writeSpans writes the span log to .bench_build/spans and records the
// per-layer self times as an informational line.
func (e *env) writeSpans() error {
	spans := e.spans.snapshot()
	dir := filepath.Join(e.root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", e.workload, e.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	e.info["self_time_s"] = selfTimes(spans)
	e.info["spans"] = map[string]any{"file": filepath.Join(".bench_build", "spans", filepath.Base(path)), "count": len(spans)}
	return nil
}

// jobRecorder turns runner progress events into job spans: a JobDone
// carries the job's execution time, so its span ends at the event and
// starts Elapsed earlier.
type jobRecorder struct {
	log  *spanLog
	mu   sync.Mutex
	durs []time.Duration // feed runner.job_busy_s and job_p99_ms
}

func (j *jobRecorder) onEvent(ev runner.Event) {
	if ev.Kind != runner.JobDone && ev.Kind != runner.JobFailed {
		return
	}
	end := time.Now()
	j.log.add(0, 0, "runner", "job", end.Add(-ev.Elapsed), end)
	j.mu.Lock()
	j.durs = append(j.durs, ev.Elapsed)
	j.mu.Unlock()
}

func (j *jobRecorder) durations() []time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]time.Duration(nil), j.durs...)
}

// timingCache wraps a runner.Cache (the store tier) and times each
// lookup and write-back.
type timingCache struct {
	inner      runner.Cache
	log        *spanLog
	gets, puts atomic.Int64
}

func (c *timingCache) Get(key string) (any, bool, error) {
	start := time.Now()
	v, ok, err := c.inner.Get(key)
	c.log.add(0, 0, "store", "get", start, time.Now())
	c.gets.Add(1)
	return v, ok, err
}

func (c *timingCache) Put(key string, v any) error {
	start := time.Now()
	err := c.inner.Put(key, v)
	c.log.add(0, 0, "store", "put", start, time.Now())
	c.puts.Add(1)
	return err
}

// reqIDHeader carries the generator's client span id to the timing
// handler, so a request's server span is the child of its client span
// and both share it as their request id.
const reqIDHeader = "X-Perfbench-Req"

// classHeader carries the request's class, which tells cold grid
// writes from warm grid reads on the same route.
const classHeader = "X-Perfbench-Class"

// timingHandler wraps the daemon's handler and records one server span
// per request, named by route.
type timingHandler struct {
	inner http.Handler
	log   *spanLog
}

func (h timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.inner.ServeHTTP(w, r)
	var req int64
	fmt.Sscan(r.Header.Get(reqIDHeader), &req)
	h.log.add(req, req, "server", routeName(r), start, time.Now())
}

// routeName maps a request to the benchmark's request classes.
func routeName(r *http.Request) string {
	switch {
	case r.URL.Path == "/v1/cell":
		return classCell
	case r.URL.Path == "/v1/grid" && r.Header.Get(classHeader) == classWrite:
		return classWrite
	case r.URL.Path == "/v1/grid":
		return classRead
	}
	return r.URL.Path
}
