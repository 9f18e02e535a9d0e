package trace

import "dynloop/internal/isa"

// CtlEvent is one control transfer on the control plane: a retired
// branch, jump or ret (isa.Kind.EndsRun; calls are not transfers here),
// with the five fields a control-flow consumer (loop detector, branch
// predictor, stream hash) reads. The control plane is sparse: every
// other instruction reaches a consumer only as part of the dynamic
// index range a batch covers, so producers do work per transfer, not
// per instruction, and the archive decoder never touches the value
// plane at all.
//
// The batch-lifetime rules of Event apply unchanged: the slice passed to
// ConsumeCtlBatch is owned by the producer and reused after the call
// returns; Instr pointers stay valid for the lifetime of the program.
type CtlEvent struct {
	// Index is the 0-based dynamic instruction number.
	Index uint64
	// PC is the address of the instruction.
	PC isa.Addr
	// Instr points at the static instruction.
	Instr *isa.Instr
	// Taken reports the branch outcome; it is true for jumps and
	// returns.
	Taken bool
	// Target is the resolved control-transfer destination when Taken
	// (for returns it is the popped return address). Zero otherwise.
	Target isa.Addr
}

// Planes is a bitmask of the event facets a consumer reads.
type Planes uint8

const (
	// PlaneCtl is the control facet: Index, PC, Instr, Taken, Target.
	PlaneCtl Planes = 1 << iota
	// PlaneData is the data facet: WroteReg, WrittenReg, WrittenVal,
	// MemAddr, MemVal.
	PlaneData
)

// CtlBatchConsumer receives control-plane batches. A batch covers the
// dynamic indices [first, end) and xs holds exactly the control
// transfers retired in that range (branch, jump, ret — not call), in
// stream order; everything else in the range is straight-line work the
// consumer sees only as a count. Batches are contiguous: each first
// equals the previous batch's end. A batch may carry no transfer at
// all, and producers never deliver an empty range.
//
// Producers deliver here only when the sink implements this interface
// AND PlanesOf(sink) == PlaneCtl; a consumer that implements
// ConsumeCtlBatch must produce results observably identical to its
// ConsumeBatch given the same stream.
type CtlBatchConsumer interface {
	ConsumeCtlBatch(xs []CtlEvent, first, end uint64)
}

// PlaneDeclarer lets a consumer state which facets it reads, overriding
// the structural default of PlanesOf. Composite consumers (Broadcast,
// BatchTee) implement it to report the union of their members' needs,
// and conditional consumers (loopdet.Detector) implement it to demand
// the data facet only when an attached observer needs it.
type PlaneDeclarer interface {
	NeedPlanes() Planes
}

// PlanesOf reports the facets a consumer needs. A PlaneDeclarer answers
// for itself; otherwise a consumer that implements CtlBatchConsumer is
// control-only, and anything else needs both facets. Producers call this
// to pick the narrowest plane they may deliver.
func PlanesOf(c any) Planes {
	if d, ok := c.(PlaneDeclarer); ok {
		if p := d.NeedPlanes(); p != 0 {
			return p
		}
		return PlaneCtl
	}
	if _, ok := c.(CtlBatchConsumer); ok {
		return PlaneCtl
	}
	return PlaneCtl | PlaneData
}

// fullPlaneSink hides a consumer's control-plane capability so producers
// fall back to full-facet delivery; fullPlaneSegSink does the same while
// keeping the segmented fast path visible. Neither implements
// CtlBatchConsumer or PlaneDeclarer — that is the point.
type fullPlaneSink struct{ s BatchConsumer }

func (w fullPlaneSink) ConsumeBatch(evs []Event) { w.s.ConsumeBatch(evs) }

type fullPlaneSegSink struct{ s SegmentedBatchConsumer }

func (w fullPlaneSegSink) ConsumeBatch(evs []Event) { w.s.ConsumeBatch(evs) }
func (w fullPlaneSegSink) ConsumeBatchSegmented(evs []Event, ctl []int32) {
	w.s.ConsumeBatchSegmented(evs, ctl)
}

// ForceFullPlane wraps a consumer so PlanesOf reports both facets,
// forcing producers onto full-Event delivery regardless of the
// consumer's own capabilities. Equivalence tests use it to run the same
// consumer stack over both planes and compare results; the segmented
// fast path is preserved through the wrapper.
func ForceFullPlane(s BatchConsumer) BatchConsumer {
	if sc, ok := s.(SegmentedBatchConsumer); ok {
		return fullPlaneSegSink{sc}
	}
	return fullPlaneSink{s}
}
