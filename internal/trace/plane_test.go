package trace

import (
	"testing"

	"dynloop/internal/isa"
)

// ctlPass is a segPass that additionally accepts control-plane batches,
// recording them separately so tests can tell which plane delivered.
type ctlPass struct {
	segPass
	ctlBatches int
	ctlSum     uint64
	// ranges logs each control-plane batch's [first, end).
	ranges [][2]uint64
}

func (p *ctlPass) ConsumeCtlBatch(xs []CtlEvent, first, end uint64) {
	p.ctlBatches++
	p.ranges = append(p.ranges, [2]uint64{first, end})
	for i := range xs {
		p.ctlSum += uint64(xs[i].PC)
	}
}

// declarerPass overrides the structural default with an explicit answer.
type declarerPass struct {
	ctlPass
	planes Planes
}

func (p *declarerPass) NeedPlanes() Planes { return p.planes }

// TestPlanesOf pins the negotiation rules: a declarer answers for itself
// (with 0 normalised to PlaneCtl), an undeclared CtlBatchConsumer is
// control-only, and anything else needs both facets.
func TestPlanesOf(t *testing.T) {
	both := PlaneCtl | PlaneData
	cases := []struct {
		name string
		c    any
		want Planes
	}{
		{"plain", &lifecyclePass{}, both},
		{"segmented", &segPass{}, both},
		{"ctl-capable", &ctlPass{}, PlaneCtl},
		{"counter", &Counter{}, both},
		{"hash", NewHash(), PlaneCtl},
		{"declares-both", &declarerPass{planes: both}, both},
		{"declares-ctl", &declarerPass{planes: PlaneCtl}, PlaneCtl},
		{"declares-zero", &declarerPass{planes: 0}, PlaneCtl},
		{"forced-full", ForceFullPlane(&ctlPass{}), both},
		{"forced-full-plain", ForceFullPlane(&lifecyclePass{}), both},
	}
	for _, tc := range cases {
		if got := PlanesOf(tc.c); got != tc.want {
			t.Errorf("PlanesOf(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestForceFullPlaneKeepsSegmented: the wrapper hides the control plane
// but must not cost the segmented fast path.
func TestForceFullPlaneKeepsSegmented(t *testing.T) {
	in := isa.Instr{Kind: isa.KindNop}
	evs := []Event{{PC: 1, Instr: &in}, {PC: 2, Instr: &in}}

	sp := &ctlPass{}
	w := ForceFullPlane(sp)
	if _, ok := w.(CtlBatchConsumer); ok {
		t.Fatal("ForceFullPlane left ConsumeCtlBatch visible")
	}
	sw, ok := w.(SegmentedBatchConsumer)
	if !ok {
		t.Fatal("ForceFullPlane hid ConsumeBatchSegmented")
	}
	sw.ConsumeBatchSegmented(evs, []int32{0})
	if sp.segBatches != 1 || sp.ctlBatches != 0 || sp.sum != 3 {
		t.Fatalf("wrapper delivery: %+v", sp)
	}

	pp := &lifecyclePass{}
	wp := ForceFullPlane(pp)
	if _, ok := wp.(SegmentedBatchConsumer); ok {
		t.Fatal("plain wrapper invented ConsumeBatchSegmented")
	}
	wp.ConsumeBatch(evs)
	if pp.batches != 1 || pp.sum != 3 {
		t.Fatalf("plain wrapper delivery: %+v", pp)
	}
}

// TestAsPassKeepsCtlVisible: the adapters must keep both the
// control-plane method and the wrapped consumer's declared planes
// visible, without making non-ctl consumers look control-only.
func TestAsPassKeepsCtlVisible(t *testing.T) {
	in := isa.Instr{Kind: isa.KindBranch}
	cevs := []CtlEvent{{PC: 7, Instr: &in, Taken: true, Target: 3}}

	cp := &ctlPass{}
	p := AsPass(cp)
	if PlanesOf(p) != PlaneCtl {
		t.Fatalf("adapted ctl consumer planes = %v", PlanesOf(p))
	}
	p.(CtlBatchConsumer).ConsumeCtlBatch(cevs, 0, 8)
	if cp.ctlBatches != 1 || cp.ctlSum != 7 || cp.ranges[0] != [2]uint64{0, 8} {
		t.Fatalf("ctl delivery through adapter: %+v", cp)
	}
	if _, ok := p.(SegmentedBatchConsumer); !ok {
		t.Fatal("adapter hid ConsumeBatchSegmented")
	}

	// A Hash is ctl-capable but not segmentation-capable.
	h := NewHash()
	ph := AsPass(h)
	if PlanesOf(ph) != PlaneCtl {
		t.Fatalf("adapted Hash planes = %v", PlanesOf(ph))
	}
	ph.(CtlBatchConsumer).ConsumeCtlBatch(cevs, 0, 8)
	if h.Sum == NewHash().Sum {
		t.Fatal("Hash through adapter folded nothing")
	}

	// A Counter reads every instruction, so it stays full-plane.
	if _, ok := AsPass(&Counter{}).(CtlBatchConsumer); ok {
		t.Fatal("Counter adapter offers ConsumeCtlBatch")
	}

	// A plain consumer must NOT gain ctl capability from the adapter.
	if _, ok := AsPass(&struct{ BatchConsumer }{}).(CtlBatchConsumer); ok {
		t.Fatal("plain adapter invented ConsumeCtlBatch")
	}

	// Forcing full planes downgrades an adapted ctl consumer to both.
	if got := PlanesOf(AsPass(ForceFullPlane(cp))); got != PlaneCtl|PlaneData {
		t.Fatalf("forced-full adapted planes = %v", got)
	}
}

// TestBroadcastPlaneNegotiation: the broadcast is control-only exactly
// when every pass is.
func TestBroadcastPlaneNegotiation(t *testing.T) {
	both := PlaneCtl | PlaneData
	if got := NewBroadcast(0, AsPass(&ctlPass{}), AsPass(NewHash())).NeedPlanes(); got != PlaneCtl {
		t.Fatalf("all-ctl broadcast planes = %v", got)
	}
	if got := NewBroadcast(0, AsPass(&ctlPass{}), &lifecyclePass{}).NeedPlanes(); got != both {
		t.Fatalf("mixed broadcast planes = %v", got)
	}
	if got := NewBroadcast(0).NeedPlanes(); got != PlaneCtl {
		t.Fatalf("empty broadcast planes = %v", got)
	}
	if got := (BatchTee{&ctlPass{}, NewHash()}).NeedPlanes(); got != PlaneCtl {
		t.Fatalf("all-ctl tee planes = %v", got)
	}
	if got := (BatchTee{NewHash(), &Counter{}}).NeedPlanes(); got != both {
		t.Fatalf("mixed tee planes = %v", got)
	}
}

// TestBroadcastCtlDelivery: control-plane batches reach every pass with
// the producer's index range, inline and sharded, and the sharded path
// is safe against the producer reusing its buffers (the batch barrier).
// Batches with no transfer are delivered like any other.
func TestBroadcastCtlDelivery(t *testing.T) {
	br := isa.Instr{Kind: isa.KindBranch}
	run := func(shards int) (uint64, uint64) {
		a, b := &ctlPass{}, &ctlPass{}
		bc := NewBroadcast(shards, AsPass(a), AsPass(b))
		if bc.NeedPlanes() != PlaneCtl {
			t.Fatalf("shards=%d: planes = %v", shards, bc.NeedPlanes())
		}
		bc.Init()
		buf := make([]CtlEvent, 32)
		pc, first := uint64(0), uint64(0)
		for epoch := 0; epoch < 50; epoch++ {
			n := epoch % len(buf) // epoch 0 carries no transfer
			for i := 0; i < n; i++ {
				pc++
				buf[i] = CtlEvent{Index: first + uint64(i), PC: isa.Addr(pc), Instr: &br, Taken: i%2 == 0}
			}
			end := first + uint64(n) + 3
			bc.ConsumeCtlBatch(buf[:n], first, end)
			first = end
		}
		bc.Finalize()
		if a.ctlBatches != 50 || b.ctlBatches != 50 || a.batches != 0 || a.segBatches != 0 {
			t.Fatalf("shards=%d: a=%+v b=%+v", shards, a, b)
		}
		if a.ranges[0] != [2]uint64{0, 3} || a.ranges[3] != [2]uint64{12, 18} || b.ranges[49] != a.ranges[49] {
			t.Fatalf("shards=%d: ranges %v", shards, a.ranges[:4])
		}
		if bc.Epochs() != 50 {
			t.Fatalf("shards=%d: epochs = %d", shards, bc.Epochs())
		}
		return a.ctlSum, b.ctlSum
	}
	ia, ib := run(0)
	for _, shards := range []int{2, 3} {
		sa, sb := run(shards)
		if sa != ia || sb != ib {
			t.Fatalf("shards=%d: sums %d/%d != inline %d/%d", shards, sa, sb, ia, ib)
		}
	}
}

// TestCtlConsumerEquivalence: Hash must produce identical results from
// a control-plane batch (the transfers only) and from the equivalent
// full-Event batch — the contract ConsumeCtlBatch implementations
// promise — and must fold every transfer field it claims to.
func TestCtlConsumerEquivalence(t *testing.T) {
	br := isa.Instr{Kind: isa.KindBranch, Target: 4}
	add := isa.Instr{Kind: isa.KindALU}
	full := []Event{
		{Index: 0, PC: 1, Instr: &add, WroteReg: true, WrittenReg: 3, WrittenVal: 99, MemAddr: 8, MemVal: 7},
		{Index: 1, PC: 2, Instr: &br, Taken: true, Target: 4},
		{Index: 2, PC: 4, Instr: &br},
		{Index: 3, PC: 5, Instr: &add},
	}
	var xs []CtlEvent
	for _, ev := range full {
		if ev.Instr.Kind.EndsRun() {
			xs = append(xs, CtlEvent{Index: ev.Index, PC: ev.PC, Instr: ev.Instr, Taken: ev.Taken, Target: ev.Target})
		}
	}

	hf, hc := NewHash(), NewHash()
	hf.ConsumeBatch(full)
	hc.ConsumeCtlBatch(xs, 0, 4)
	if hf.Sum != hc.Sum {
		t.Fatalf("Hash: full %#x != ctl %#x", hf.Sum, hc.Sum)
	}
	shifted := append([]CtlEvent(nil), xs...)
	shifted[0].Index++
	hs := NewHash()
	hs.ConsumeCtlBatch(shifted, 0, 4)
	if hs.Sum == hc.Sum {
		t.Fatal("Hash ignores the transfer index")
	}

	// BatchTee forwards the control plane to every member.
	ht, hu := NewHash(), NewHash()
	tee := BatchTee{ht, hu}
	tee.ConsumeCtlBatch(xs, 0, 4)
	if ht.Sum != hc.Sum || hu.Sum != hc.Sum {
		t.Fatalf("tee ctl delivery diverged: %#x %#x", ht.Sum, hu.Sum)
	}
}
