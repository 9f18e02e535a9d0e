package loopdet

import (
	"fmt"
	"strings"
	"testing"

	"dynloop/internal/isa"
	"dynloop/internal/trace"
)

// recObs records loop events as strings for compact assertions.
type recObs struct {
	events []string
}

func (r *recObs) ExecStart(x *Exec) {
	r.events = append(r.events, fmt.Sprintf("start T=%d B=%d", x.T, x.B))
}

func (r *recObs) IterStart(x *Exec, index uint64) {
	r.events = append(r.events, fmt.Sprintf("iter T=%d n=%d", x.T, x.Iters))
}

func (r *recObs) ExecEnd(x *Exec, reason EndReason, index uint64) {
	r.events = append(r.events, fmt.Sprintf("end T=%d iters=%d %s", x.T, x.Iters, reason))
}

func (r *recObs) OneShot(t, b isa.Addr, index uint64) {
	r.events = append(r.events, fmt.Sprintf("oneshot T=%d B=%d", t, b))
}

// step is a hand-written dynamic instruction.
type step struct {
	pc    isa.Addr
	in    isa.Instr
	taken bool
}

// feed pushes steps through a detector.
func feed(d *Detector, steps []step) {
	var ev trace.Event
	for i, s := range steps {
		in := s.in
		ev = trace.Event{Index: uint64(i), PC: s.pc, Instr: &in, Taken: s.taken}
		if in.Kind == isa.KindJump || in.Kind == isa.KindCall || in.Kind == isa.KindRet {
			ev.Taken = true
		}
		if ev.Taken {
			ev.Target = in.Target
		}
		d.Consume(&ev)
	}
}

// br builds a backward/forward branch step.
func br(pc, target isa.Addr, taken bool) step {
	return step{pc: pc, in: isa.Branch(isa.CondNEZ, 2, target), taken: taken}
}

func jmp(pc, target isa.Addr) step { return step{pc: pc, in: isa.Jump(target)} }
func call(pc, target isa.Addr) step {
	return step{pc: pc, in: isa.Call(target)}
}
func ret(pc isa.Addr) step { return step{pc: pc, in: isa.Ret()} }
func op(pc isa.Addr) step  { return step{pc: pc, in: isa.Nop()} }

func wantEvents(t *testing.T, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("events mismatch\ngot:\n  %s\nwant:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestSimpleLoop checks detection of a 3-iteration loop: one execution,
// detected at iteration 2, ended by the not-taken closing branch.
func TestSimpleLoop(t *testing.T) {
	d := New(Config{Capacity: 16})
	obs := &recObs{}
	d.AddObserver(obs)
	// T=1, closing branch at 3. Three iterations.
	feed(d, []step{
		op(0),
		op(1), op(2), br(3, 1, true), // iter 1 ends, detection
		op(1), op(2), br(3, 1, true), // iter 2 ends
		op(1), op(2), br(3, 1, false), // iter 3 ends, exec ends
		op(4),
	})
	wantEvents(t, obs.events, []string{
		"start T=1 B=3",
		"iter T=1 n=2",
		"iter T=1 n=3",
		"end T=1 iters=3 backedge",
	})
	if d.Depth() != 0 {
		t.Fatalf("CLS not empty: depth=%d", d.Depth())
	}
}

// TestOneShot checks that a single-iteration execution is reported
// without entering the CLS.
func TestOneShot(t *testing.T) {
	d := New(Config{Capacity: 16})
	obs := &recObs{}
	d.AddObserver(obs)
	feed(d, []step{
		op(0), op(1), op(2), br(3, 1, false), op(4),
	})
	wantEvents(t, obs.events, []string{"oneshot T=1 B=3"})
	if s := d.Stats(); s.OneShots != 1 || s.Pushes != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestNestedLoops checks figure-2(a/b) behaviour: the inner execution is
// detected once per outer iteration, and outer iteration boundaries pop
// nothing extra because the inner execution already ended.
func TestNestedLoops(t *testing.T) {
	d := New(Config{Capacity: 16})
	obs := &recObs{}
	d.AddObserver(obs)
	inner := func(trip int) []step {
		var s []step
		for i := 0; i < trip; i++ {
			s = append(s, op(2), op(3), br(4, 2, i < trip-1))
		}
		return s
	}
	var steps []step
	outerTrip := 2
	for o := 0; o < outerTrip; o++ {
		steps = append(steps, op(1))
		steps = append(steps, inner(3)...)
		steps = append(steps, op(5), br(6, 1, o < outerTrip-1))
	}
	feed(d, steps)
	wantEvents(t, obs.events, []string{
		"start T=2 B=4",
		"iter T=2 n=2",
		"iter T=2 n=3",
		"end T=2 iters=3 backedge",
		"start T=1 B=6",
		"iter T=1 n=2",
		"start T=2 B=4",
		"iter T=2 n=2",
		"iter T=2 n=3",
		"end T=2 iters=3 backedge",
		"end T=1 iters=2 backedge",
	})
}

// TestOuterIterationPopsInner checks the paper's first "not at the top"
// situation: an inner loop whose termination was never observed (control
// fell past its known closing branches) is popped with reason EndOuter
// when the enclosing loop iterates.
func TestOuterIterationPopsInner(t *testing.T) {
	d := New(Config{Capacity: 16})
	obs := &recObs{}
	d.AddObserver(obs)
	feed(d, []step{
		// Outer loop T=1..B=8; inner T=3 with closing branches at 4 and 7.
		op(1), op(2), br(8, 1, true), // outer detected
		op(3), op(4), br(7, 3, true), // inner detected, B=7
		op(3), br(4, 3, true), // inner iterates via the low branch
		op(3), br(4, 3, false), // not taken below B=7: no action
		op(5), op(6), // control falls past 7 without executing it
		br(8, 1, true),         // outer iterates: stale inner popped (EndOuter)
		op(1), br(8, 1, false), // outer ends at B
	})
	wantEvents(t, obs.events, []string{
		"start T=1 B=8",
		"iter T=1 n=2",
		"start T=3 B=7",
		"iter T=3 n=2",
		"iter T=3 n=3",
		"end T=3 iters=3 outer",
		"iter T=1 n=3",
		"end T=1 iters=3 backedge",
	})
}

// TestExitBranch checks the break rule: a taken forward branch from
// inside the body to outside ends the execution.
func TestExitBranch(t *testing.T) {
	d := New(Config{Capacity: 16})
	obs := &recObs{}
	d.AddObserver(obs)
	feed(d, []step{
		op(1), op(2), br(3, 1, true), // detection
		op(1), br(2, 9, true), // break: target 9 outside [1,3]
		op(9),
	})
	wantEvents(t, obs.events, []string{
		"start T=1 B=3",
		"iter T=1 n=2",
		"end T=1 iters=2 exit",
	})
}

// TestReturnInsideLoop checks that a return inside the body ends the
// execution, while a return in a called subroutine (outside the body)
// does not.
func TestReturnInsideLoop(t *testing.T) {
	d := New(Config{Capacity: 16})
	obs := &recObs{}
	d.AddObserver(obs)
	feed(d, []step{
		// Loop T=2..B=6 inside a function; subroutine at 10..11.
		op(2), op(3), br(6, 2, true), // detection
		op(2), call(3, 10), op(10), ret(11), // call out and back: no effect
		op(4), br(6, 2, true), // iter 3
		op(2), ret(5), // early return from inside body
	})
	wantEvents(t, obs.events, []string{
		"start T=2 B=6",
		"iter T=2 n=2",
		"iter T=2 n=3",
		"end T=2 iters=3 return",
	})
}

// TestBGrowth checks that B grows when a higher closing branch appears,
// and that a not-taken branch below B does not end the execution.
func TestBGrowth(t *testing.T) {
	d := New(Config{Capacity: 16})
	obs := &recObs{}
	d.AddObserver(obs)
	feed(d, []step{
		op(1), op(2), br(3, 1, true), // detection via the low branch, B=3
		op(1), op(2), op(4), br(5, 1, true), // higher closing branch taken: B grows to 5
		op(1), br(3, 1, false), // below B: no action
		op(4), br(5, 1, false), // not taken at B=5: end
	})
	wantEvents(t, obs.events, []string{
		"start T=1 B=3",
		"iter T=1 n=2",
		"iter T=1 n=3", // taken at 5
		"end T=1 iters=3 backedge",
	})
}

// TestSelfLoop checks a one-instruction loop (branch targeting itself).
func TestSelfLoop(t *testing.T) {
	d := New(Config{Capacity: 16})
	obs := &recObs{}
	d.AddObserver(obs)
	feed(d, []step{
		br(2, 2, true), br(2, 2, true), br(2, 2, false),
	})
	wantEvents(t, obs.events, []string{
		"start T=2 B=2",
		"iter T=2 n=2",
		"iter T=2 n=3",
		"end T=2 iters=3 backedge",
	})
}

// TestOverlappedLoops reproduces figure 2(c/d): T1 < T2 and B1 < B2. The
// backward branch to T1 from inside T2's body exits T2 (target outside
// its body).
func TestOverlappedLoops(t *testing.T) {
	d := New(Config{Capacity: 16})
	obs := &recObs{}
	d.AddObserver(obs)
	// T1=1, B1=4; T2=3, B2=6.
	feed(d, []step{
		op(1), op(2), op(3), br(4, 1, true), // loop1 detected (B1=4)
		op(1), op(2), op(3), br(4, 1, false), // loop1's last iteration falls through
		op(5), br(6, 3, true), // loop2 detected: T2=3, B2=6
		op(3), br(4, 1, true), // back to T1: exits loop2 (1 outside [3,6]), new exec of T1
		op(1), op(2), op(3), br(4, 1, false), // T1 ends
		op(5), br(6, 3, false), // oneshot for T2? no: T2 not in CLS, not taken -> oneshot
	})
	wantEvents(t, obs.events, []string{
		"start T=1 B=4",
		"iter T=1 n=2",
		"end T=1 iters=2 backedge",
		"start T=3 B=6",
		"iter T=3 n=2",
		"end T=3 iters=2 exit",
		"start T=1 B=4",
		"iter T=1 n=2",
		"end T=1 iters=2 backedge",
		"oneshot T=3 B=6",
	})
}

// TestEviction checks that CLS overflow drops the deepest entry.
func TestEviction(t *testing.T) {
	d := New(Config{Capacity: 2})
	obs := &recObs{}
	d.AddObserver(obs)
	feed(d, []step{
		// Three nested loops: T=10 (B=90), T=20 (B=80), T=30 (B=70).
		br(90, 10, true),
		br(80, 20, true),
		br(70, 30, true), // overflow: T=10 evicted
	})
	wantEvents(t, obs.events, []string{
		"start T=10 B=90",
		"iter T=10 n=2",
		"start T=20 B=80",
		"iter T=20 n=2",
		"end T=10 iters=2 evicted",
		"start T=30 B=70",
		"iter T=30 n=2",
	})
	if s := d.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
}

// TestFlush checks that Flush empties the CLS innermost-first.
func TestFlush(t *testing.T) {
	d := New(Config{Capacity: 16})
	obs := &recObs{}
	d.AddObserver(obs)
	feed(d, []step{
		br(90, 10, true),
		br(80, 20, true),
	})
	d.Flush()
	wantEvents(t, obs.events, []string{
		"start T=10 B=90",
		"iter T=10 n=2",
		"start T=20 B=80",
		"iter T=20 n=2",
		"end T=20 iters=2 flush",
		"end T=10 iters=2 flush",
	})
	if d.Depth() != 0 {
		t.Fatalf("depth after flush = %d", d.Depth())
	}
}

// TestRecursionMerging reproduces the paper's recursive-subroutine
// example (§2.2): re-entering loop T1 through recursion is treated as a
// new iteration of the same execution, popping the inner T2.
func TestRecursionMerging(t *testing.T) {
	d := New(Config{Capacity: 16})
	obs := &recObs{}
	d.AddObserver(obs)
	// T1=10..B1=15 and T2=20..B2=25 in the two arms of a recursive
	// subroutine.
	feed(d, []step{
		op(10), br(15, 10, true), // T1 detected
		op(10), call(12, 5), // recursive call
		op(20), br(25, 20, true), // T2 detected (nested under T1)
		op(20), call(22, 5), // recurse again
		op(10), br(15, 10, true), // T1 found: new iteration; T2 popped
	})
	wantEvents(t, obs.events, []string{
		"start T=10 B=15",
		"iter T=10 n=2",
		"start T=20 B=25",
		"iter T=20 n=2",
		"end T=20 iters=2 outer",
		"iter T=10 n=3",
	})
}

// TestMultiExitJumpPopsSeveral checks that one jump can terminate several
// nested executions at once (break out of a nest).
func TestMultiExitJumpPopsSeveral(t *testing.T) {
	d := New(Config{Capacity: 16})
	obs := &recObs{}
	d.AddObserver(obs)
	feed(d, []step{
		br(90, 10, true), // outer [10,90]
		br(50, 20, true), // inner [20,50]
		jmp(30, 99),      // jump beyond both bodies
	})
	wantEvents(t, obs.events, []string{
		"start T=10 B=90",
		"iter T=10 n=2",
		"start T=20 B=50",
		"iter T=20 n=2",
		"end T=20 iters=2 exit",
		"end T=10 iters=2 exit",
	})
}

// TestCallNeverExits checks that a call to a target outside every body
// pops nothing.
func TestCallNeverExits(t *testing.T) {
	d := New(Config{Capacity: 16})
	obs := &recObs{}
	d.AddObserver(obs)
	feed(d, []step{
		br(90, 10, true),
		call(30, 200),
	})
	if d.Depth() != 1 {
		t.Fatalf("depth = %d, want 1 (call must not pop)", d.Depth())
	}
	wantEvents(t, obs.events, []string{
		"start T=10 B=90",
		"iter T=10 n=2",
	})
}

// TestStreamObserverOrder checks that raw instruction events precede the
// loop events they trigger, and that run counts reach a RunObserver in
// the same order on every consume path: for one stream fed through
// Consume, ConsumeBatch, ConsumeBatchSegmented and ConsumeCtlBatch at
// several batch sizes (and with the periodic flush armed, which keeps
// the detector off the control plane), the observer must have counted
// exactly the instructions up to and including the trigger at every
// loop callback, and the same total at the end.
type orderObs struct {
	recObs
}

func (o *orderObs) Instr(ev *trace.Event) {
	o.events = append(o.events, fmt.Sprintf("instr %d", ev.PC))
}

// runObs is a RunObserver that logs, at every loop callback, how many
// instructions it has been delivered so far and the index of the last.
// Runs must be non-empty and contiguous from index 0.
type runObs struct {
	t     *testing.T
	total uint64
	last  uint64
	log   []string
}

func (o *runObs) InstrRun(n, last uint64) {
	if n == 0 || last+1 != o.total+n {
		o.t.Fatalf("run of %d ending at %d does not follow %d counted instructions", n, last, o.total)
	}
	o.total += n
	o.last = last
}

// note logs a loop callback triggered by the instruction at idx; the
// run holding that instruction must already have been delivered. A
// flush ends executions at the index after the last consumed one.
func (o *runObs) note(what string, idx uint64, flush bool) {
	want := idx + 1
	if flush {
		want = idx
	}
	if o.total != want {
		o.t.Fatalf("%s @%d after %d counted instructions, want %d", what, idx, o.total, want)
	}
	o.log = append(o.log, fmt.Sprintf("%s @%d last=%d", what, idx, o.last))
}

func (o *runObs) ExecStart(x *Exec) { o.note(fmt.Sprintf("start %d", x.ID), x.StartIndex, false) }
func (o *runObs) IterStart(x *Exec, i uint64) {
	o.note(fmt.Sprintf("iter %d.%d", x.ID, x.Iters), i, false)
}
func (o *runObs) ExecEnd(x *Exec, r EndReason, i uint64) {
	o.note(fmt.Sprintf("end %d %s", x.ID, r), i, r == EndFlush)
}
func (o *runObs) OneShot(t, b isa.Addr, i uint64) {
	o.note(fmt.Sprintf("oneshot %d-%d", t, b), i, false)
}

func TestStreamObserverOrder(t *testing.T) {
	d := New(Config{Capacity: 16})
	obs := &orderObs{}
	d.AddObserver(obs)
	d.AddObserver(&runObs{t: t})
	feed(d, []step{op(1), br(2, 1, true)})
	wantEvents(t, obs.events, []string{
		"instr 1",
		"instr 2",
		"start T=1 B=2",
		"iter T=1 n=2",
	})

	if got := trace.PlanesOf(newRunDetector(t, 0)); got != trace.PlaneCtl {
		t.Fatalf("run-observed detector planes = %v, want ctl-only", got)
	}

	chunked := func(evs []trace.Event, chunk int, f func([]trace.Event)) {
		for i := 0; i < len(evs); i += chunk {
			f(evs[i:min(i+chunk, len(evs))])
		}
	}
	for _, flush := range []uint64{0, 97} {
		for seed := uint64(1); seed <= 3; seed++ {
			evs := randomStream(seed*2654435761, 5000)
			ref := newRunDetector(t, flush)
			for i := range evs {
				ev := evs[i]
				ref.Consume(&ev)
			}
			ref.Flush()
			want := ref.obs[0].(*runObs)
			if want.total != uint64(len(evs)) {
				t.Fatalf("flush=%d seed=%d: Consume counted %d instructions, want %d", flush, seed, want.total, len(evs))
			}

			for _, chunk := range []int{1, 7, 4096} {
				paths := map[string]func(d *Detector, evs []trace.Event){
					"batch":     func(d *Detector, evs []trace.Event) { d.ConsumeBatch(evs) },
					"segmented": func(d *Detector, evs []trace.Event) { d.ConsumeBatchSegmented(evs, segmentIndices(evs)) },
				}
				if flush == 0 {
					paths["ctl"] = consumeCtl
				}
				for name, consume := range paths {
					d := newRunDetector(t, flush)
					chunked(evs, chunk, func(b []trace.Event) { consume(d, b) })
					d.Flush()
					got := d.obs[0].(*runObs)
					if got.total != want.total {
						t.Fatalf("flush=%d seed=%d %s chunk=%d: counted %d instructions, want %d",
							flush, seed, name, chunk, got.total, want.total)
					}
					if strings.Join(got.log, "\n") != strings.Join(want.log, "\n") {
						t.Fatalf("flush=%d seed=%d %s chunk=%d: loop callbacks differ from Consume", flush, seed, name, chunk)
					}
					if d.Stats() != ref.Stats() {
						t.Fatalf("flush=%d seed=%d %s chunk=%d: stats %+v, want %+v",
							flush, seed, name, chunk, d.Stats(), ref.Stats())
					}
				}
			}
		}
	}
}

// newRunDetector returns a detector whose only observer is a runObs.
func newRunDetector(t *testing.T, flush uint64) *Detector {
	d := New(Config{Capacity: 8, FlushInterval: flush})
	d.AddObserver(&runObs{t: t})
	return d
}

// TestPeriodicFlush checks the §2.2 safety valve: the CLS is emptied
// every FlushInterval instructions and active loops are re-detected.
func TestPeriodicFlush(t *testing.T) {
	d := New(Config{Capacity: 16, FlushInterval: 8})
	obs := &recObs{}
	d.AddObserver(obs)
	// A loop iterating well past the flush interval: 3 instructions per
	// iteration.
	var steps []step
	for i := 0; i < 6; i++ {
		steps = append(steps, op(1), op(2), br(3, 1, true))
	}
	feed(d, steps)
	flushes := 0
	redetections := 0
	for _, e := range obs.events {
		if strings.Contains(e, "flush") {
			flushes++
		}
		if strings.HasPrefix(e, "start") {
			redetections++
		}
	}
	if flushes < 2 {
		t.Fatalf("flushes = %d, want >= 2\n%v", flushes, obs.events)
	}
	if redetections != flushes+1 {
		t.Fatalf("re-detections = %d for %d flushes", redetections, flushes)
	}
}
