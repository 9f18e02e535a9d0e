package interp

import (
	"errors"
	"reflect"
	"testing"

	"dynloop/internal/isa"
	"dynloop/internal/program"
	"dynloop/internal/trace"
)

// fusionProg builds a program that exercises every superinstruction
// pattern (each pair commented), plus branches both ways, call/ret,
// jump, seq, and halt. The loop body runs five times, so fused pairs
// retire repeatedly before the program falls through to the call tail.
func fusionProg() *program.Program {
	return prog(
		isa.MovI(1, 0),                  // 0
		isa.MovI(3, 1000),               // 1
		isa.AddI(1, 1, 1),               // 2: loop head (branch target)
		isa.AddI(4, 1, 2),               // 3:   addi+addi
		isa.ALU(isa.OpAdd, 5, 1, 4),     // 4
		isa.ALU(isa.OpAdd, 6, 5, 1),     // 5:   add+add
		isa.ALU(isa.OpAdd, 7, 5, 6),     // 6
		isa.AddI(7, 7, 3),               // 7:   add+addi
		isa.AddI(8, 7, 1),               // 8
		isa.ALU(isa.OpAdd, 8, 8, 1),     // 9:   addi+add
		isa.MovI(9, 7),                  // 10
		isa.Store(3, 0, 9),              // 11:  movi+st
		isa.Load(10, 3, 0),              // 12
		isa.AddI(10, 10, 1),             // 13: ld+addi
		isa.Load(11, 3, 8),              // 14
		isa.ALU(isa.OpAdd, 11, 11, 1),   // 15: ld+add
		isa.Store(3, 8, 11),             // 16
		isa.Branch(isa.CondEQZ, 12, 19), // 17: st+br, always taken
		isa.Nop(),                       // 18: skipped
		isa.Seq(13, 0),                  // 19: branch target
		isa.AddI(14, 1, -5),             // 20
		isa.Branch(isa.CondLTZ, 14, 2),  // 21: addi+br back edge
		isa.Call(25),                    // 22
		isa.Jump(26),                    // 23: return address
		isa.Nop(),                       // 24
		isa.Ret(),                       // 25
		isa.Halt(),                      // 26
	)
}

func newFusionCPU(reference bool) *CPU {
	c := New(fusionProg())
	c.SetReference(reference)
	c.BindSeq(0, Counter(100, 3))
	return c
}

// TestPredecodeFusionApplied pins that the patterns in fusionProg
// actually predecode to fused micro-ops — without this the equivalence
// tests could pass vacuously against an unfused array.
func TestPredecodeFusionApplied(t *testing.T) {
	ops := predecode(fusionProg(), true)
	want := map[uint64]uint8{
		2: opFuseAddIAddI, 4: opFuseAddAdd, 6: opFuseAddAddI,
		8: opFuseAddIAdd, 10: opFuseMovISt, 12: opFuseLoadAddI,
		14: opFuseLoadAdd, 16: opFuseStBr, 20: opFuseAddIBr,
	}
	for pc, op := range want {
		if ops[pc].op != op {
			t.Errorf("ops[%d].op = %d, want fused op %d", pc, ops[pc].op, op)
		}
		if ops[pc+1].op >= opFuseFirst {
			t.Errorf("ops[%d] fused: pairs must not overlap", pc+1)
		}
	}
}

// TestPredecodeLeadersBlockFusion pins the fusion-safety rule: a pair is
// never formed across a control-flow leader, because the second half
// must not be reachable except by falling out of the first.
func TestPredecodeLeadersBlockFusion(t *testing.T) {
	p := prog(
		isa.AddI(1, 1, 1), // 0
		isa.AddI(2, 2, 1), // 1: jump target — fusing (0,1) would be wrong
		isa.Jump(1),       // 2
	)
	ops := predecode(p, true)
	if ops[0].op >= opFuseFirst {
		t.Fatalf("ops[0] fused across the leader at 1 (op=%d)", ops[0].op)
	}
	// Same shape without the jump: the pair must fuse.
	p2 := prog(isa.AddI(1, 1, 1), isa.AddI(2, 2, 1), isa.Halt())
	if ops2 := predecode(p2, true); ops2[0].op != opFuseAddIAddI {
		t.Fatalf("unguarded pair did not fuse (op=%d)", ops2[0].op)
	}
	// A pair may START at a leader — control entering at the pair's head
	// executes it whole, so only the second slot must not be one. The
	// return address after a call is such a head here.
	p3 := prog(
		isa.Call(3),       // 0
		isa.AddI(1, 1, 1), // 1: return address, head of a legal pair
		isa.AddI(2, 2, 1), // 2
		isa.Ret(),         // 3
	)
	if ops3 := predecode(p3, true); ops3[1].op != opFuseAddIAddI {
		t.Fatalf("pair headed by a leader did not fuse (op=%d)", ops3[1].op)
	}
}

// runStream executes a fresh CPU to completion (or budget) and returns
// the recorded stream plus final machine state.
func runStream(t *testing.T, c *CPU, budget uint64, batch int) ([]trace.Event, uint64, error) {
	t.Helper()
	c.SetBatchSize(batch)
	rec := &trace.Recorder{}
	n, err := c.Run(budget, rec)
	return rec.Events, n, err
}

// TestPredecodeReferenceEquivalence is the core differential test: the
// predecoded+fused path and the reference two-level interpreter must
// emit identical event streams and identical machine state, at every
// batch size (1 forces single-slot retirement of fused pairs) and at
// budgets that cut runs mid-pair.
func TestPredecodeReferenceEquivalence(t *testing.T) {
	for _, batch := range []int{0, 1, 2, 3, 7, 256} {
		for _, budget := range []uint64{0, 1, 3, 7, 50, 101} {
			fused := newFusionCPU(false)
			ref := newFusionCPU(true)
			fe, fn, ferr := runStream(t, fused, budget, batch)
			re, rn, rerr := runStream(t, ref, budget, batch)
			if (ferr == nil) != (rerr == nil) {
				t.Fatalf("batch=%d budget=%d: err %v vs %v", batch, budget, ferr, rerr)
			}
			if fn != rn {
				t.Fatalf("batch=%d budget=%d: retired %d vs %d", batch, budget, fn, rn)
			}
			if budget != 0 && fn != budget && !fused.Halted() {
				t.Fatalf("batch=%d budget=%d: stopped at %d before budget without halt", batch, budget, fn)
			}
			if !reflect.DeepEqual(fe, re) {
				for i := range fe {
					if !reflect.DeepEqual(fe[i], re[i]) {
						t.Fatalf("batch=%d budget=%d: event %d differs:\nfused %+v\nref   %+v", batch, budget, i, fe[i], re[i])
					}
				}
				t.Fatalf("batch=%d budget=%d: stream lengths %d vs %d", batch, budget, len(fe), len(re))
			}
			if fused.regs != ref.regs || fused.PC() != ref.PC() || fused.Halted() != ref.Halted() {
				t.Fatalf("batch=%d budget=%d: machine state diverged", batch, budget)
			}
		}
	}
}

// TestPredecodeResumeMidPair pins the budget boundary inside a fused
// pair: stopping with one instruction of budget left retires exactly the
// first constituent, and resuming retires the second — the combined
// stream matching an uncut reference run event for event.
func TestPredecodeResumeMidPair(t *testing.T) {
	// Budget 3 stops mid-pair (events 0,1 are movi/movi, event 2 is the
	// first constituent of the fused addi+addi at pc 2/3).
	fused := newFusionCPU(false)
	rec := &trace.Recorder{}
	n, err := fused.Run(3, rec)
	if err != nil || n != 3 {
		t.Fatalf("first leg: n=%d err=%v", n, err)
	}
	if got := fused.PC(); got != 3 {
		t.Fatalf("mid-pair pc = %d, want 3 (second constituent)", got)
	}
	if _, err := fused.Run(0, rec); err != nil {
		t.Fatal(err)
	}
	ref := newFusionCPU(true)
	rrec := &trace.Recorder{}
	if _, err := ref.Run(0, rrec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Events, rrec.Events) {
		t.Fatalf("resumed stream differs from reference (%d vs %d events)", len(rec.Events), len(rrec.Events))
	}
}

// TestPredecodeNilSink pins the scratch-batch path: executing without a
// sink must produce the same machine state as the reference path.
func TestPredecodeNilSink(t *testing.T) {
	fused := newFusionCPU(false)
	ref := newFusionCPU(true)
	fn, ferr := fused.Run(0, nil)
	rn, rerr := ref.Run(0, nil)
	if ferr != nil || rerr != nil || fn != rn {
		t.Fatalf("n=%d/%d err=%v/%v", fn, rn, ferr, rerr)
	}
	if fused.regs != ref.regs || !fused.Halted() || !ref.Halted() {
		t.Fatalf("nil-sink state diverged")
	}
}

// TestReferenceErrorPaths mirrors the machine-check tests on the
// reference interpreter, which has its own flush-and-return error exits.
func TestReferenceErrorPaths(t *testing.T) {
	run := func(p *program.Program) error {
		c := New(p)
		c.SetReference(true)
		_, err := c.Run(0, &trace.Recorder{})
		return err
	}
	if err := run(prog(isa.Nop())); !errors.Is(err, ErrPC) {
		t.Fatalf("ErrPC: got %v", err)
	}
	if err := run(prog(isa.Ret())); !errors.Is(err, ErrRetEmpty) {
		t.Fatalf("ErrRetEmpty: got %v", err)
	}
	if err := run(prog(isa.Call(0))); !errors.Is(err, ErrCallDepth) {
		t.Fatalf("ErrCallDepth: got %v", err)
	}
}

// segRecorder records segmented deliveries: the copied events plus the
// control indices resolved to absolute stream positions.
type segRecorder struct {
	events []trace.Event
	ctl    []int
}

func (s *segRecorder) ConsumeBatch(evs []trace.Event) { s.events = append(s.events, evs...) }

func (s *segRecorder) ConsumeBatchSegmented(evs []trace.Event, ctl []int32) {
	base := len(s.events)
	s.events = append(s.events, evs...)
	for _, i := range ctl {
		s.ctl = append(s.ctl, base+int(i))
	}
}

// TestPredecodeCtlChannel pins the control-transfer side channel: the
// indices delivered with each batch are exactly the ascending positions
// of branch, jump and return events (calls are not run boundaries), and
// segmented delivery carries the same events as the plain path.
func TestPredecodeCtlChannel(t *testing.T) {
	for _, batch := range []int{1, 3, 1024} {
		seg := &segRecorder{}
		c := newFusionCPU(false)
		c.SetBatchSize(batch)
		if _, err := c.Run(0, seg); err != nil {
			t.Fatal(err)
		}
		plain := &trace.Recorder{}
		c2 := newFusionCPU(false)
		c2.SetBatchSize(batch)
		if _, err := c2.Run(0, plain); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seg.events, plain.Events) {
			t.Fatalf("batch=%d: segmented events differ from plain delivery", batch)
		}
		var want []int
		for i := range seg.events {
			if seg.events[i].Instr.Kind.EndsRun() {
				want = append(want, i)
			}
		}
		if !reflect.DeepEqual(seg.ctl, want) {
			t.Fatalf("batch=%d: ctl = %v, want %v", batch, seg.ctl, want)
		}
	}
}
