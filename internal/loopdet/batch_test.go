package loopdet

import (
	"fmt"
	"testing"

	"dynloop/internal/isa"
	"dynloop/internal/trace"
)

// logObs records every observer callback as a string, to compare
// delivery orders between the scalar and batch paths exactly.
type logObs struct {
	log []string
	// batch switches raw-stream delivery to InstrBatch.
	batch bool
}

func (o *logObs) ExecStart(x *Exec) { o.log = append(o.log, fmt.Sprintf("start %d T%d", x.ID, x.T)) }
func (o *logObs) IterStart(x *Exec, i uint64) {
	o.log = append(o.log, fmt.Sprintf("iter %d.%d @%d", x.ID, x.Iters, i))
}
func (o *logObs) ExecEnd(x *Exec, r EndReason, i uint64) {
	o.log = append(o.log, fmt.Sprintf("end %d %s @%d iters=%d", x.ID, r, i, x.Iters))
}
func (o *logObs) OneShot(t, b isa.Addr, i uint64) {
	o.log = append(o.log, fmt.Sprintf("oneshot %d-%d @%d", t, b, i))
}
func (o *logObs) Instr(ev *trace.Event) {
	o.log = append(o.log, fmt.Sprintf("instr @%d pc%d", ev.Index, ev.PC))
}
func (o *logObs) InstrBatch(evs []trace.Event) {
	if !o.batch {
		panic("InstrBatch on scalar observer")
	}
	for i := range evs {
		o.Instr(&evs[i])
	}
}

// scalarObs forwards to a logObs without embedding it, so InstrBatch is
// not promoted into its method set and the detector must fall back to
// per-event Instr delivery.
type scalarObs struct{ o *logObs }

func (s scalarObs) ExecStart(x *Exec)                      { s.o.ExecStart(x) }
func (s scalarObs) IterStart(x *Exec, i uint64)            { s.o.IterStart(x, i) }
func (s scalarObs) ExecEnd(x *Exec, r EndReason, i uint64) { s.o.ExecEnd(x, r, i) }
func (s scalarObs) OneShot(t, b isa.Addr, i uint64)        { s.o.OneShot(t, b, i) }
func (s scalarObs) Instr(ev *trace.Event)                  { s.o.Instr(ev) }

// randomStream builds an arbitrary control-flow event stream with stable
// Instr pointers (events in a batch all alias the same backing program).
func randomStream(seed uint64, n int) []trace.Event {
	r := seed | 1
	next := func(m uint64) uint64 {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return r % m
	}
	// A small pool of instructions the stream draws from.
	pool := make([]isa.Instr, 0, 48)
	for i := 0; i < 16; i++ {
		pool = append(pool, isa.Branch(isa.CondNEZ, 1, isa.Addr(next(64))))
		pool = append(pool, isa.Jump(isa.Addr(next(64))))
		pool = append(pool, isa.Nop())
	}
	pool = append(pool, isa.Ret())
	evs := make([]trace.Event, n)
	for i := range evs {
		in := &pool[next(uint64(len(pool)))]
		ev := trace.Event{Index: uint64(i), PC: isa.Addr(next(64)), Instr: in}
		if in.Kind.IsControl() && (in.Kind != isa.KindBranch || next(2) == 0) {
			ev.Taken = true
			ev.Target = in.Target
		}
		evs[i] = ev
	}
	return evs
}

// TestConsumeBatchMatchesConsume: for arbitrary streams, any batch
// chunking must produce exactly the callback sequence of per-event
// Consume — for scalar stream observers, batch stream observers, and
// with the periodic-flush safety valve armed.
func TestConsumeBatchMatchesConsume(t *testing.T) {
	for _, flush := range []uint64{0, 97} {
		for _, chunk := range []int{1, 2, 3, 7, 64, 1000} {
			for seed := uint64(1); seed <= 5; seed++ {
				evs := randomStream(seed*2654435761, 1000)

				ref := New(Config{Capacity: 8, FlushInterval: flush})
				refObs := &logObs{}
				ref.AddObserver(scalarObs{refObs})
				for i := range evs {
					ev := evs[i] // copy: Consume pointees may be reused
					ref.Consume(&ev)
				}
				ref.Flush()

				for _, batchObs := range []bool{false, true} {
					got := New(Config{Capacity: 8, FlushInterval: flush})
					gotObs := &logObs{batch: batchObs}
					if batchObs {
						got.AddObserver(gotObs)
					} else {
						got.AddObserver(scalarObs{gotObs})
					}
					for i := 0; i < len(evs); i += chunk {
						end := i + chunk
						if end > len(evs) {
							end = len(evs)
						}
						got.ConsumeBatch(evs[i:end])
					}
					got.Flush()

					if len(refObs.log) != len(gotObs.log) {
						t.Fatalf("flush=%d chunk=%d seed=%d batch=%v: %d callbacks, want %d",
							flush, chunk, seed, batchObs, len(gotObs.log), len(refObs.log))
					}
					for i := range refObs.log {
						if refObs.log[i] != gotObs.log[i] {
							t.Fatalf("flush=%d chunk=%d seed=%d batch=%v: callback %d = %q, want %q",
								flush, chunk, seed, batchObs, i, gotObs.log[i], refObs.log[i])
						}
					}
					if ref.Stats() != got.Stats() {
						t.Fatalf("flush=%d chunk=%d seed=%d batch=%v: stats %+v, want %+v",
							flush, chunk, seed, batchObs, got.Stats(), ref.Stats())
					}
				}
			}
		}
	}
}

// segmentIndices computes the ctl side channel a producer would deliver
// for a batch: the ascending indices of its run-boundary events.
func segmentIndices(evs []trace.Event) []int32 {
	var ctl []int32
	for i := range evs {
		if evs[i].Instr.Kind.EndsRun() {
			ctl = append(ctl, int32(i))
		}
	}
	return ctl
}

// consumeCtl feeds a non-empty slice of a full stream to d the way a
// control-plane producer would: the transfers only, over the slice's
// dynamic index range.
func consumeCtl(d *Detector, evs []trace.Event) {
	var xs []trace.CtlEvent
	for _, ev := range evs {
		if ev.Instr.Kind.EndsRun() {
			xs = append(xs, trace.CtlEvent{Index: ev.Index, PC: ev.PC, Instr: ev.Instr,
				Taken: ev.Taken, Target: ev.Target})
		}
	}
	d.ConsumeCtlBatch(xs, evs[0].Index, evs[len(evs)-1].Index+1)
}

// TestConsumeCtlBatchMatchesBatch pins the control-plane contract on the
// detector: an observer-free detector declares itself control-only, and
// fed sparse control-plane batches (transfers over an index range) it must
// end with exactly the stats of the full-Event batch path, for arbitrary
// streams and chunkings. A detector with a stream observer (or periodic
// flush armed) must demand the data plane instead.
func TestConsumeCtlBatchMatchesBatch(t *testing.T) {
	for _, chunk := range []int{1, 3, 64, 1000} {
		for seed := uint64(1); seed <= 5; seed++ {
			evs := randomStream(seed*2654435761, 1000)

			ref := New(Config{Capacity: 8})
			ctl := New(Config{Capacity: 8})
			if got := trace.PlanesOf(ctl); got != trace.PlaneCtl {
				t.Fatalf("observer-free detector planes = %v", got)
			}

			for i := 0; i < len(evs); i += chunk {
				end := i + chunk
				if end > len(evs) {
					end = len(evs)
				}
				ref.ConsumeBatch(evs[i:end])
				consumeCtl(ctl, evs[i:end])
			}
			ref.Flush()
			ctl.Flush()

			if ref.Stats() != ctl.Stats() {
				t.Fatalf("chunk=%d seed=%d: stats %+v, want %+v",
					chunk, seed, ctl.Stats(), ref.Stats())
			}
			if ref.Depth() != ctl.Depth() {
				t.Fatalf("chunk=%d seed=%d: CLS depth %d, want %d",
					chunk, seed, ctl.Depth(), ref.Depth())
			}
		}
	}

	withObs := New(Config{Capacity: 8})
	withObs.AddObserver(&logObs{batch: true})
	if got := trace.PlanesOf(withObs); got != trace.PlaneCtl|trace.PlaneData {
		t.Fatalf("observed detector planes = %v", got)
	}
	withFlush := New(Config{Capacity: 8, FlushInterval: 64})
	if got := trace.PlanesOf(withFlush); got != trace.PlaneCtl|trace.PlaneData {
		t.Fatalf("periodic-flush detector planes = %v", got)
	}
}

// TestConsumeBatchSegmentedMatchesBatch pins the SegmentedBatchConsumer
// contract on the detector: fed producer-computed control indices, it
// must emit exactly the callback sequence and stats of the plain batch
// path, for arbitrary streams and chunkings.
func TestConsumeBatchSegmentedMatchesBatch(t *testing.T) {
	for _, chunk := range []int{1, 3, 64, 1000} {
		for seed := uint64(1); seed <= 5; seed++ {
			evs := randomStream(seed*2654435761, 1000)

			ref := New(Config{Capacity: 8})
			refObs := &logObs{batch: true}
			ref.AddObserver(refObs)
			seg := New(Config{Capacity: 8})
			segObs := &logObs{batch: true}
			seg.AddObserver(segObs)

			for i := 0; i < len(evs); i += chunk {
				end := i + chunk
				if end > len(evs) {
					end = len(evs)
				}
				ref.ConsumeBatch(evs[i:end])
				seg.ConsumeBatchSegmented(evs[i:end], segmentIndices(evs[i:end]))
			}
			ref.Flush()
			seg.Flush()

			if len(refObs.log) != len(segObs.log) {
				t.Fatalf("chunk=%d seed=%d: %d callbacks, want %d",
					chunk, seed, len(segObs.log), len(refObs.log))
			}
			for i := range refObs.log {
				if refObs.log[i] != segObs.log[i] {
					t.Fatalf("chunk=%d seed=%d: callback %d = %q, want %q",
						chunk, seed, i, segObs.log[i], refObs.log[i])
				}
			}
			if ref.Stats() != seg.Stats() {
				t.Fatalf("chunk=%d seed=%d: stats %+v, want %+v",
					chunk, seed, seg.Stats(), ref.Stats())
			}
		}
	}
}
