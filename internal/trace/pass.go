package trace

import "sync"

// Pass is one complete analysis lifecycle over an event stream: Init is
// called once before the first batch of a traversal, ConsumeBatch for
// every batch in stream order, Finalize once after the last batch. It is
// the unit the broadcast fan-out and harness.MultiRun schedule: any
// number of passes share a single traversal of the stream, each one as
// isolated as if it had run alone.
//
// The batch-lifetime rules of BatchConsumer apply unchanged: the slice
// passed to ConsumeBatch is owned by the producer, is reused for the
// next batch (the next "epoch", see Broadcast) as soon as every pass has
// returned, and must be treated as read-only — a pass that wrote to the
// shared buffer would corrupt its sibling passes.
type Pass interface {
	// Init is called once, before the first batch.
	Init()
	BatchConsumer
	// Finalize is called once, after the last batch of a completed
	// traversal (it is skipped when the traversal aborts on error).
	Finalize()
}

// passAdapter lifts a plain BatchConsumer into a Pass with no-op
// lifecycle hooks.
type passAdapter struct{ BatchConsumer }

func (passAdapter) Init()     {}
func (passAdapter) Finalize() {}

// segPassAdapter is passAdapter for segmentation-capable consumers; the
// embedded interface keeps ConsumeBatchSegmented visible through the
// Pass so Broadcast's segmented delivery reaches the consumer.
type segPassAdapter struct{ SegmentedBatchConsumer }

func (segPassAdapter) Init()     {}
func (segPassAdapter) Finalize() {}

// ctlPassAdapter and ctlSegPassAdapter are the control-plane-capable
// variants: they keep ConsumeCtlBatch (and the consumer's declared
// planes) visible through the Pass, so Broadcast's facet negotiation
// still sees the wrapped consumer's capabilities. Distinct adapter types
// matter here — a single adapter that always implemented
// CtlBatchConsumer would make every wrapped consumer look control-only.
type ctlPassAdapter struct {
	BatchConsumer
	ctl CtlBatchConsumer
}

func (ctlPassAdapter) Init()     {}
func (ctlPassAdapter) Finalize() {}
func (a ctlPassAdapter) ConsumeCtlBatch(xs []CtlEvent, first, end uint64) {
	a.ctl.ConsumeCtlBatch(xs, first, end)
}
func (a ctlPassAdapter) NeedPlanes() Planes { return PlanesOf(a.BatchConsumer) }

type ctlSegPassAdapter struct {
	SegmentedBatchConsumer
	ctl CtlBatchConsumer
}

func (ctlSegPassAdapter) Init()     {}
func (ctlSegPassAdapter) Finalize() {}
func (a ctlSegPassAdapter) ConsumeCtlBatch(xs []CtlEvent, first, end uint64) {
	a.ctl.ConsumeCtlBatch(xs, first, end)
}
func (a ctlSegPassAdapter) NeedPlanes() Planes { return PlanesOf(a.SegmentedBatchConsumer) }

// AsPass adapts a plain batch consumer to the Pass interface with no-op
// Init/Finalize. Consumers that already implement Pass are returned
// unwrapped; segmentation-capable and control-plane-capable consumers
// keep those methods visible through the adapter.
func AsPass(c BatchConsumer) Pass {
	if p, ok := c.(Pass); ok {
		return p
	}
	sc, segOK := c.(SegmentedBatchConsumer)
	cc, ctlOK := c.(CtlBatchConsumer)
	switch {
	case segOK && ctlOK:
		return ctlSegPassAdapter{sc, cc}
	case ctlOK:
		return ctlPassAdapter{c, cc}
	case segOK:
		return segPassAdapter{sc}
	}
	return passAdapter{c}
}

// Broadcast fans one event stream out to any number of passes, so a
// single traversal of the stream (one interpreter run, one trace-file
// replay) feeds every registered analysis at once.
//
// # Buffer epochs
//
// The producer owns the batch buffer and reuses it for the next batch as
// soon as ConsumeBatch returns; each delivery is therefore one buffer
// "epoch". Broadcast's contract is that it never lets an epoch escape:
// ConsumeBatch returns — and the producer may overwrite the buffer —
// only after every pass, on every shard, has finished consuming the
// batch. With Shards <= 1 that is trivially true (passes run inline, in
// registration order); with Shards > 1 each batch is a barrier: the
// shard goroutines all consume the epoch concurrently (each pass still
// sees every batch in stream order, on its home shard) and ConsumeBatch
// blocks until the last shard is done. Epochs() counts deliveries.
//
// Passes never interact, so sharding changes wall-clock only, never
// results. Init and Finalize always run inline in registration order.
//
// Broadcast negotiates event facets for the whole fan-out: NeedPlanes
// reports the union of the passes' needs, and when every pass is
// control-only a producer may deliver sparse control-plane batches (the
// transfers of an index range, see CtlBatchConsumer) through
// ConsumeCtlBatch instead of full Events.
type Broadcast struct {
	passes []Pass
	shards [][]Pass
	work   []chan shardEpoch
	wg     sync.WaitGroup
	epochs uint64
}

// shardEpoch is one delivery to a shard worker: a full-plane batch
// (optionally with its segmentation indices) or a control-plane batch
// (xs over [first, end)).
type shardEpoch struct {
	evs        []Event
	ctl        []int32
	seg        bool // ctl holds segmentation indices for evs
	ctlPlane   bool // the epoch is xs over [first, end)
	xs         []CtlEvent
	first, end uint64
}

// NewBroadcast returns a broadcast over the passes. shards <= 1 delivers
// inline; shards > 1 spreads the passes round-robin over that many
// goroutines (capped at the pass count), started by Init and stopped by
// Finalize or Stop.
func NewBroadcast(shards int, passes ...Pass) *Broadcast {
	b := &Broadcast{passes: passes}
	if shards > len(passes) {
		shards = len(passes)
	}
	if shards > 1 {
		b.shards = make([][]Pass, shards)
		for i, p := range passes {
			b.shards[i%shards] = append(b.shards[i%shards], p)
		}
	}
	return b
}

// Epochs returns the number of batches delivered so far.
func (b *Broadcast) Epochs() uint64 { return b.epochs }

// NeedPlanes reports the union of the passes' facet needs: control-only
// exactly when every pass is control-only. It is computed on demand so
// passes added after construction are counted.
func (b *Broadcast) NeedPlanes() Planes {
	var p Planes
	for _, pass := range b.passes {
		p |= PlanesOf(pass)
	}
	if p == 0 {
		p = PlaneCtl
	}
	return p
}

// Init initialises every pass in registration order, then starts the
// shard workers (if sharded).
func (b *Broadcast) Init() {
	for _, p := range b.passes {
		p.Init()
	}
	if b.shards == nil {
		return
	}
	b.work = make([]chan shardEpoch, len(b.shards))
	for i, shard := range b.shards {
		ch := make(chan shardEpoch)
		b.work[i] = ch
		go func(shard []Pass, ch <-chan shardEpoch) {
			for e := range ch {
				switch {
				case e.ctlPlane:
					for _, p := range shard {
						p.(CtlBatchConsumer).ConsumeCtlBatch(e.xs, e.first, e.end)
					}
				case e.seg:
					for _, p := range shard {
						if sp, ok := p.(SegmentedBatchConsumer); ok {
							sp.ConsumeBatchSegmented(e.evs, e.ctl)
							continue
						}
						p.ConsumeBatch(e.evs)
					}
				default:
					for _, p := range shard {
						p.ConsumeBatch(e.evs)
					}
				}
				b.wg.Done()
			}
		}(shard, ch)
	}
}

// ConsumeBatch delivers one epoch to every pass and returns once all of
// them are done with it, so the producer may safely reuse the buffer.
func (b *Broadcast) ConsumeBatch(evs []Event) {
	b.epochs++
	if b.work == nil {
		for _, p := range b.passes {
			p.ConsumeBatch(evs)
		}
		return
	}
	b.barrier(shardEpoch{evs: evs})
}

// ConsumeBatchSegmented delivers one epoch with its producer-computed
// control-transfer indices. Passes that implement
// SegmentedBatchConsumer receive the indices and skip their own kind
// scan; other passes get a plain ConsumeBatch. Sharded delivery forwards
// the indices to each shard worker — the batch barrier keeps the ctl
// slice (reused by the producer, like evs) safe to share.
func (b *Broadcast) ConsumeBatchSegmented(evs []Event, ctl []int32) {
	b.epochs++
	if b.work == nil {
		for _, p := range b.passes {
			if sp, ok := p.(SegmentedBatchConsumer); ok {
				sp.ConsumeBatchSegmented(evs, ctl)
				continue
			}
			p.ConsumeBatch(evs)
		}
		return
	}
	b.barrier(shardEpoch{evs: evs, ctl: ctl, seg: true})
}

// ConsumeCtlBatch delivers one control-plane epoch. Producers call it
// only when NeedPlanes() == PlaneCtl, which guarantees every pass
// implements CtlBatchConsumer.
func (b *Broadcast) ConsumeCtlBatch(xs []CtlEvent, first, end uint64) {
	b.epochs++
	if b.work == nil {
		for _, p := range b.passes {
			p.(CtlBatchConsumer).ConsumeCtlBatch(xs, first, end)
		}
		return
	}
	b.barrier(shardEpoch{ctlPlane: true, xs: xs, first: first, end: end})
}

// barrier sends one epoch to every shard worker and blocks until all of
// them are done, so the producer may safely reuse its buffers.
func (b *Broadcast) barrier(e shardEpoch) {
	b.wg.Add(len(b.work))
	for _, ch := range b.work {
		ch <- e
	}
	b.wg.Wait()
}

// Finalize stops the shard workers and finalises every pass in
// registration order.
func (b *Broadcast) Finalize() {
	b.Stop()
	for _, p := range b.passes {
		p.Finalize()
	}
}

// Stop shuts the shard workers down without finalising the passes; use
// it on the error path of an aborted traversal (Finalize calls it).
// Calling Stop or Finalize more than once is safe.
func (b *Broadcast) Stop() {
	for _, ch := range b.work {
		close(ch)
	}
	b.work = nil
}
