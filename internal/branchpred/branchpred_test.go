package branchpred

import (
	"testing"

	"dynloop/internal/isa"
	"dynloop/internal/trace"
)

func branchEv(pc, target isa.Addr, taken bool) *trace.Event {
	in := isa.Branch(isa.CondNEZ, 1, target)
	ev := &trace.Event{PC: pc, Instr: &in, Taken: taken}
	if taken {
		ev.Target = target
	}
	return ev
}

// TestBTFN: backward predicted taken, forward not taken; never updated.
func TestBTFN(t *testing.T) {
	var p BTFN
	if !p.Predict(10, 5) {
		t.Fatal("backward branch must predict taken")
	}
	if p.Predict(10, 20) {
		t.Fatal("forward branch must predict not taken")
	}
}

// TestBimodalLearns: after two taken outcomes a cold (weakly-not-taken
// boundary) counter predicts taken and holds through one glitch.
func TestBimodalLearns(t *testing.T) {
	p := NewBimodal(4)
	pc, tgt := isa.Addr(7), isa.Addr(3)
	p.Update(pc, tgt, false)
	p.Update(pc, tgt, false)
	if p.Predict(pc, tgt) {
		t.Fatal("trained not-taken, predicts taken")
	}
	p.Update(pc, tgt, true)
	p.Update(pc, tgt, true)
	if !p.Predict(pc, tgt) {
		t.Fatal("retrained taken, predicts not-taken")
	}
	p.Update(pc, tgt, true) // saturate
	p.Update(pc, tgt, false)
	if !p.Predict(pc, tgt) {
		t.Fatal("one glitch flipped a saturated counter")
	}
}

// TestGShareUsesHistory: gshare separates a branch whose outcome depends
// on the previous branch — a bimodal cannot exceed ~50% on a strict
// alternation, gshare learns it perfectly.
func TestGShareUsesHistory(t *testing.T) {
	g := NewGShare(8)
	b := NewBimodal(8)
	pc, tgt := isa.Addr(9), isa.Addr(2)
	taken := false
	var gHits, bHits, n int
	for i := 0; i < 400; i++ {
		taken = !taken // strict alternation
		if g.Predict(pc, tgt) == taken {
			gHits++
		}
		if b.Predict(pc, tgt) == taken {
			bHits++
		}
		g.Update(pc, tgt, taken)
		b.Update(pc, tgt, taken)
		n++
	}
	if float64(gHits)/float64(n) < 0.9 {
		t.Fatalf("gshare on alternation: %d/%d", gHits, n)
	}
	if float64(bHits)/float64(n) > 0.6 {
		t.Fatalf("bimodal should not learn alternation: %d/%d", bHits, n)
	}
}

// TestCollectorScoresBackwardSeparately: the loop-closing-branch
// population is isolated.
func TestCollectorScoresBackwardSeparately(t *testing.T) {
	c := NewCollector(BTFN{})
	// 3 backward taken (loop iterations), 1 backward not-taken (exit),
	// 2 forward not-taken.
	for i := 0; i < 3; i++ {
		c.Consume(branchEv(10, 5, true))
	}
	c.Consume(branchEv(10, 5, false))
	c.Consume(branchEv(4, 20, false))
	c.Consume(branchEv(4, 20, false))
	r := c.Results()[0]
	if r.Branches != 6 || r.BackwardBranches != 4 {
		t.Fatalf("population: %+v", r)
	}
	// BTFN: hits = 3 backward taken + 2 forward not-taken = 5.
	if r.Hits != 5 || r.BackwardHits != 3 {
		t.Fatalf("scores: %+v", r)
	}
	if r.Accuracy() < 83 || r.Accuracy() > 84 {
		t.Fatalf("accuracy: %v", r.Accuracy())
	}
	if r.BackwardAccuracy() != 75 {
		t.Fatalf("backward accuracy: %v", r.BackwardAccuracy())
	}
}

// TestNonBranchesIgnored: only conditional branches are scored.
func TestNonBranchesIgnored(t *testing.T) {
	c := DefaultSuite()
	in := isa.Jump(3)
	c.Consume(&trace.Event{PC: 9, Instr: &in, Taken: true, Target: 3})
	for _, r := range c.Results() {
		if r.Branches != 0 {
			t.Fatalf("jump scored as branch: %+v", r)
		}
	}
}

// TestConsumeCtlBatchMatchesBatch: the collector is control-only, and a
// control-plane batch (the stream's transfers over its index range) must
// score exactly like the full-Event path over the same stream.
func TestConsumeCtlBatchMatchesBatch(t *testing.T) {
	full := DefaultSuite()
	ctl := DefaultSuite()
	if got := trace.PlanesOf(ctl); got != trace.PlaneCtl {
		t.Fatalf("collector planes = %v", got)
	}
	br := isa.Branch(isa.CondNEZ, 1, 5)
	fwd := isa.Branch(isa.CondEQZ, 2, 40)
	jmp := isa.Jump(3)
	nop := isa.Nop()
	var evs []trace.Event
	for i := 0; i < 200; i++ {
		evs = append(evs,
			trace.Event{PC: 8, Instr: &nop},
			trace.Event{PC: 10, Instr: &br, Taken: i%3 != 0, Target: 5},
			trace.Event{PC: 20, Instr: &fwd, Taken: i%7 == 0, Target: 40},
			trace.Event{PC: 30, Instr: &jmp, Taken: true, Target: 3},
		)
	}
	var xs []trace.CtlEvent
	for i := range evs {
		evs[i].Index = uint64(i)
		if ev := evs[i]; ev.Instr.Kind.EndsRun() {
			xs = append(xs, trace.CtlEvent{Index: ev.Index, PC: ev.PC, Instr: ev.Instr,
				Taken: ev.Taken, Target: ev.Target})
		}
	}
	full.ConsumeBatch(evs)
	ctl.ConsumeCtlBatch(xs, 0, uint64(len(evs)))
	fr, cr := full.Results(), ctl.Results()
	if len(fr) != len(cr) {
		t.Fatalf("result counts differ: %d vs %d", len(fr), len(cr))
	}
	for i := range fr {
		if fr[i] != cr[i] {
			t.Fatalf("predictor %d diverged:\nfull %+v\nctl  %+v", i, fr[i], cr[i])
		}
	}
}
