// Package trace defines the dynamic instruction event model that connects
// the interpreter (the producer) to the loop detector, statistics
// collectors and speculation engine (the consumers).
//
// The interpreter retires instructions into a reusable batch buffer and
// flushes it through the BatchConsumer interface; one ConsumeBatch call
// replaces thousands of per-instruction interface dispatches. The older
// per-event Consumer interface remains for callers that genuinely want
// one event at a time; AsBatch adapts such a consumer to the batch
// pipeline.
//
// # Batch lifetime
//
// The batch slice passed to ConsumeBatch — like the pointee passed to
// Consume — is owned by the producer and reused for the next batch as
// soon as the call returns. Consumers must copy any event (or field)
// they want to keep beyond the callback; retaining the slice itself is
// never safe. Event.Instr pointers are the exception: they point into
// the program image and stay valid for the lifetime of the program.
// TestBatchBufferIsReused and the -race CI job enforce these rules.
package trace

import "dynloop/internal/isa"

// Event describes one retired dynamic instruction.
type Event struct {
	// Index is the 0-based dynamic instruction number.
	Index uint64
	// PC is the address of the instruction.
	PC isa.Addr
	// Instr points at the static instruction. The pointer stays valid for
	// the lifetime of the program; only the Event struct itself is reused.
	Instr *isa.Instr
	// Taken reports the branch outcome; it is true for jumps, calls and
	// returns.
	Taken bool
	// Target is the resolved control-transfer destination when Taken
	// (for returns it is the popped return address). Zero otherwise.
	Target isa.Addr

	// The data facet, used by the §4 live-in statistics.

	// WroteReg/WrittenReg/WrittenVal describe the register write, if any.
	WroteReg   bool
	WrittenReg isa.Reg
	WrittenVal int64
	// MemAddr is the effective address of a load or store.
	MemAddr uint64
	// MemVal is the value loaded or stored.
	MemVal int64
}

// Consumer receives retired-instruction events one at a time.
type Consumer interface {
	// Consume processes one event. The pointee is reused by the producer
	// after the call returns.
	Consume(ev *Event)
}

// BatchConsumer receives retired-instruction events in batches. This is
// the pipeline's native delivery interface: producers (the interpreter,
// the trace-file replayer) fill a reusable buffer and flush it here.
type BatchConsumer interface {
	// ConsumeBatch processes evs in stream order. The slice and its
	// backing array are reused by the producer after the call returns;
	// consumers must copy anything they keep (see the package comment).
	ConsumeBatch(evs []Event)
}

// SegmentedBatchConsumer is a BatchConsumer that can additionally accept
// producer-computed stream segmentation. ctl holds the ascending indices
// into evs of the control-transfer events that end loop-detector runs —
// exactly the events whose Instr.Kind.EndsRun() (branch, jump, ret;
// calls are not run boundaries, §2.1 of the paper). Producers that
// already know where those events are (the interpreter's dispatch, the
// trace-file block decoder) hand the indices over so consumers skip
// their own per-event kind scan; ConsumeBatchSegmented(evs, ctl) must be
// observably identical to ConsumeBatch(evs). ctl, like evs, is reused by
// the producer after the call returns.
type SegmentedBatchConsumer interface {
	BatchConsumer
	ConsumeBatchSegmented(evs []Event, ctl []int32)
}

// ConsumerFunc adapts a function to the Consumer interface.
type ConsumerFunc func(ev *Event)

// Consume calls f(ev).
func (f ConsumerFunc) Consume(ev *Event) { f(ev) }

// ConsumeBatch calls f for each event in order.
func (f ConsumerFunc) ConsumeBatch(evs []Event) {
	for i := range evs {
		f(&evs[i])
	}
}

// BatchConsumerFunc adapts a function to the BatchConsumer interface.
type BatchConsumerFunc func(evs []Event)

// ConsumeBatch calls f(evs).
func (f BatchConsumerFunc) ConsumeBatch(evs []Event) { f(evs) }

// batchAdapter delivers a batch to a per-event consumer.
type batchAdapter struct{ c Consumer }

func (a batchAdapter) ConsumeBatch(evs []Event) {
	for i := range evs {
		a.c.Consume(&evs[i])
	}
}

// AsBatch adapts a legacy per-event consumer to the batch interface.
// Consumers that already implement BatchConsumer (every consumer in this
// module does) are returned unwrapped, so their native batch fast path
// is used.
func AsBatch(c Consumer) BatchConsumer {
	if bc, ok := c.(BatchConsumer); ok {
		return bc
	}
	return batchAdapter{c}
}

// Tee fans one event stream out to several per-event consumers in order.
type Tee []Consumer

// Consume forwards ev to every consumer in order.
func (t Tee) Consume(ev *Event) {
	for _, c := range t {
		c.Consume(ev)
	}
}

// ConsumeBatch forwards the batch to every consumer, using each
// consumer's native batch path when it has one. Batch-capable members
// see whole batches; per-event members see the events one at a time, in
// order.
func (t Tee) ConsumeBatch(evs []Event) {
	for _, c := range t {
		if bc, ok := c.(BatchConsumer); ok {
			bc.ConsumeBatch(evs)
			continue
		}
		for i := range evs {
			c.Consume(&evs[i])
		}
	}
}

// BatchTee fans one batch stream out to several batch consumers in
// order. It is the fully batch-native composition the harness builds.
type BatchTee []BatchConsumer

// ConsumeBatch forwards the batch to every consumer in order.
func (t BatchTee) ConsumeBatch(evs []Event) {
	for _, c := range t {
		c.ConsumeBatch(evs)
	}
}

// NeedPlanes reports the union of the members' facet needs, so a tee is
// control-only exactly when every member is.
func (t BatchTee) NeedPlanes() Planes {
	var p Planes
	for _, c := range t {
		p |= PlanesOf(c)
	}
	if p == 0 {
		p = PlaneCtl
	}
	return p
}

// ConsumeCtlBatch forwards a control-plane batch to every consumer.
// Producers only deliver here when NeedPlanes() == PlaneCtl, which
// guarantees every member implements CtlBatchConsumer.
func (t BatchTee) ConsumeCtlBatch(xs []CtlEvent, first, end uint64) {
	for _, c := range t {
		c.(CtlBatchConsumer).ConsumeCtlBatch(xs, first, end)
	}
}

// Counter counts retired instructions by kind, so it reads every event
// and is a full-plane consumer. The zero value is ready to use.
type Counter struct {
	// Total is the number of events seen.
	Total uint64
	// ByKind counts events per instruction kind.
	ByKind [16]uint64
	// TakenBranches counts taken conditional branches.
	TakenBranches uint64
	// Branches counts all conditional branches.
	Branches uint64
}

// Consume tallies the event.
func (c *Counter) Consume(ev *Event) {
	c.Total++
	c.ByKind[ev.Instr.Kind]++
	if ev.Instr.Kind == isa.KindBranch {
		c.Branches++
		if ev.Taken {
			c.TakenBranches++
		}
	}
}

// ConsumeBatch tallies every event in the batch.
func (c *Counter) ConsumeBatch(evs []Event) {
	c.Total += uint64(len(evs))
	for i := range evs {
		ev := &evs[i]
		c.ByKind[ev.Instr.Kind]++
		if ev.Instr.Kind == isa.KindBranch {
			c.Branches++
			if ev.Taken {
				c.TakenBranches++
			}
		}
	}
}

// Recorder stores copies of every event; it is a test helper.
type Recorder struct {
	// Events holds the copied events in order.
	Events []Event
}

// Consume appends a copy of the event.
func (r *Recorder) Consume(ev *Event) { r.Events = append(r.Events, *ev) }

// ConsumeBatch appends a copy of every event in the batch.
func (r *Recorder) ConsumeBatch(evs []Event) { r.Events = append(r.Events, evs...) }

// Hash is a 64-bit FNV-1a accumulator over the stream's control
// transfers (isa.Kind.EndsRun): each transfer's Index, PC, taken bit and
// target. Given the program these fix every PC of the stream, so one
// hash witnesses the full plane and the sparse control plane alike. Two
// runs with the same seed must produce the same hash; determinism tests
// rely on it.
type Hash struct {
	// Sum is the running hash; read it after the run.
	Sum uint64
}

// NewHash returns a Hash with the standard FNV-1a offset basis.
func NewHash() *Hash { return &Hash{Sum: 14695981039346656037} }

const fnvPrime = 1099511628211

// fold folds one transfer into the running sum s.
func fold(s, index uint64, pc isa.Addr, taken bool, target isa.Addr) uint64 {
	s = (s ^ index) * fnvPrime
	s = (s ^ uint64(pc)) * fnvPrime
	t := uint64(0)
	if taken {
		t = 1
	}
	s = (s ^ t) * fnvPrime
	return (s ^ uint64(target)) * fnvPrime
}

// Consume folds the event into the hash if it is a control transfer.
func (h *Hash) Consume(ev *Event) {
	if ev.Instr.Kind.EndsRun() {
		h.Sum = fold(h.Sum, ev.Index, ev.PC, ev.Taken, ev.Target)
	}
}

// ConsumeBatch folds the batch's control transfers into the hash,
// keeping the running sum in a register across the loop.
func (h *Hash) ConsumeBatch(evs []Event) {
	s := h.Sum
	for i := range evs {
		if ev := &evs[i]; ev.Instr.Kind.EndsRun() {
			s = fold(s, ev.Index, ev.PC, ev.Taken, ev.Target)
		}
	}
	h.Sum = s
}

// ConsumeCtlBatch folds a control-plane batch into the hash: the batch
// carries exactly the transfers ConsumeBatch would fold.
func (h *Hash) ConsumeCtlBatch(xs []CtlEvent, _, _ uint64) {
	s := h.Sum
	for i := range xs {
		ev := &xs[i]
		s = fold(s, ev.Index, ev.PC, ev.Taken, ev.Target)
	}
	h.Sum = s
}
