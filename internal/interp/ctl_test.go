package interp

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"dynloop/internal/isa"
	"dynloop/internal/program"
	"dynloop/internal/trace"
)

// memFusionProg exercises the memory-pair superinstructions (ld+st and
// st+st) inside a loop, with one st+st pair whose second constituent is
// the last event before a control transfer — the boundary the segment
// side channel has to get right.
func memFusionProg() *program.Program {
	return prog(
		isa.MovI(1, 0),                // 0
		isa.MovI(2, 2000),             // 1
		isa.AddI(1, 1, 1),             // 2: loop head (branch target)
		isa.Load(3, 2, 0),             // 3
		isa.Store(2, 8, 3),            // 4:   ld+st (store reads the just-loaded reg)
		isa.Store(2, 16, 3),           // 5
		isa.Store(2, 24, 3),           // 6:   st+st
		isa.AddI(4, 1, -6),            // 7
		isa.Store(2, 32, 3),           // 8
		isa.Store(2, 40, 3),           // 9:   st+st, second slot right before the branch
		isa.Branch(isa.CondLTZ, 4, 2), // 10: back edge, unfused
		isa.Halt(),                    // 11
	)
}

// TestPredecodeMemPairFusion pins that the ld+st and st+st patterns
// actually fuse, so the equivalence tests below cannot pass vacuously.
func TestPredecodeMemPairFusion(t *testing.T) {
	ops := predecode(memFusionProg(), true)
	want := map[uint64]uint8{3: opFuseLoadSt, 5: opFuseStSt, 8: opFuseStSt}
	for pc, op := range want {
		if ops[pc].op != op {
			t.Errorf("ops[%d].op = %d, want fused op %d", pc, ops[pc].op, op)
		}
		if ops[pc+1].op >= opFuseFirst {
			t.Errorf("ops[%d] fused: pairs must not overlap", pc+1)
		}
	}
	if ops[10].op >= opFuseFirst {
		t.Errorf("ops[10] fused: the pair at 8 already consumed slot 9")
	}
}

// TestMemPairReferenceEquivalence runs memFusionProg through the fused
// and reference interpreters across batch sizes and mid-pair budgets;
// streams and machine state must match exactly (the ld+st arm must read
// the store's registers AFTER the load wrote its destination).
func TestMemPairReferenceEquivalence(t *testing.T) {
	for _, batch := range []int{0, 1, 2, 3, 7, 256} {
		for _, budget := range []uint64{0, 1, 4, 5, 9, 10, 23} {
			fused := New(memFusionProg())
			ref := New(memFusionProg())
			ref.SetReference(true)
			fe, fn, ferr := runStream(t, fused, budget, batch)
			re, rn, rerr := runStream(t, ref, budget, batch)
			if (ferr == nil) != (rerr == nil) || fn != rn {
				t.Fatalf("batch=%d budget=%d: n %d/%d err %v/%v", batch, budget, fn, rn, ferr, rerr)
			}
			if !reflect.DeepEqual(fe, re) {
				t.Fatalf("batch=%d budget=%d: streams differ (%d vs %d events)", batch, budget, len(fe), len(re))
			}
			if fused.regs != ref.regs || fused.PC() != ref.PC() || fused.Halted() != ref.Halted() {
				t.Fatalf("batch=%d budget=%d: machine state diverged", batch, budget)
			}
		}
	}
}

// ctlRecorder accepts only control-plane delivery: ConsumeBatch panics,
// proving Run dispatched to the control-plane loop. It checks the
// sparse-delivery contract as batches arrive — each first equals the
// previous end, and every transfer is a run-ending kind inside its
// batch's range, in stream order — and keeps the first violation.
type ctlRecorder struct {
	xs []trace.CtlEvent
	// end is the last batch's end: with contiguous batches from a fresh
	// CPU it equals Σ(end−first), the instructions the batches cover.
	end     uint64
	batches int
	// empty counts batches that carried no transfer.
	empty int
	bad   string
}

func (r *ctlRecorder) ConsumeBatch([]trace.Event) {
	panic("full-plane delivery to a control-only sink")
}

func (r *ctlRecorder) ConsumeCtlBatch(xs []trace.CtlEvent, first, end uint64) {
	r.batches++
	if len(xs) == 0 {
		r.empty++
	}
	if r.bad == "" && (first != r.end || end <= first) {
		r.bad = fmt.Sprintf("batch %d covers [%d, %d) after a batch ending at %d", r.batches, first, end, r.end)
	}
	for _, x := range xs {
		out := x.Index < first || x.Index >= end || !x.Instr.Kind.EndsRun()
		if n := len(r.xs); n > 0 && x.Index <= r.xs[n-1].Index {
			out = true
		}
		if r.bad == "" && out {
			r.bad = fmt.Sprintf("batch %d [%d, %d) carries %+v", r.batches, first, end, x)
		}
		r.xs = append(r.xs, x)
	}
	r.end = end
}

// transfers projects a full event stream onto the control plane: its
// branch, jump and ret events.
func transfers(evs []trace.Event) []trace.CtlEvent {
	var out []trace.CtlEvent
	for _, ev := range evs {
		if ev.Instr.Kind.EndsRun() {
			out = append(out, trace.CtlEvent{Index: ev.Index, PC: ev.PC, Instr: ev.Instr,
				Taken: ev.Taken, Target: ev.Target})
		}
	}
	return out
}

// checkCtl asserts that rec saw well-formed sparse batches covering
// exactly the retired instructions, carrying exactly the transfers of
// the reference stream ref.
func checkCtl(t *testing.T, what string, rec *ctlRecorder, retired uint64, ref []trace.Event) {
	t.Helper()
	if rec.bad != "" {
		t.Fatalf("%s: %s", what, rec.bad)
	}
	if rec.end != retired {
		t.Fatalf("%s: batches cover %d instructions, %d retired", what, rec.end, retired)
	}
	want := transfers(ref)
	if len(rec.xs) != len(want) {
		t.Fatalf("%s: %d transfers, reference has %d", what, len(rec.xs), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(rec.xs[i], want[i]) { // the CPUs may hold separate program copies
			t.Fatalf("%s: transfer %d differs:\nctl %+v\nref %+v", what, i, rec.xs[i], want[i])
		}
	}
}

// runCtlStream executes a fresh CPU against a control-only sink.
func runCtlStream(t *testing.T, c *CPU, budget uint64, batch int) (*ctlRecorder, uint64, error) {
	t.Helper()
	c.SetBatchSize(batch)
	rec := &ctlRecorder{}
	n, err := c.Run(budget, rec)
	return rec, n, err
}

// TestRunCtlReferenceEquivalence is the control-plane differential: the
// ctl loop must deliver exactly the transfers of the reference stream,
// over batches that tile the retired count, with the same machine state
// — at batch sizes down to one transfer and budgets that stop mid-pair,
// over both the ALU-heavy fusion program and the memory-pair one.
func TestRunCtlReferenceEquivalence(t *testing.T) {
	mk := map[string]func(reference bool) *CPU{
		"fusion": newFusionCPU,
		"mem": func(reference bool) *CPU {
			c := New(memFusionProg())
			c.SetReference(reference)
			return c
		},
	}
	for name, newCPU := range mk {
		for _, batch := range []int{0, 1, 2, 3, 7, 256} {
			for _, budget := range []uint64{0, 1, 3, 7, 50, 101} {
				cc := newCPU(false)
				ref := newCPU(true)
				crec, cn, cerr := runCtlStream(t, cc, budget, batch)
				re, rn, rerr := runStream(t, ref, budget, batch)
				if (cerr == nil) != (rerr == nil) || cn != rn {
					t.Fatalf("%s batch=%d budget=%d: n %d/%d err %v/%v", name, batch, budget, cn, rn, cerr, rerr)
				}
				checkCtl(t, fmt.Sprintf("%s batch=%d budget=%d", name, batch, budget), crec, cn, re)
				if cc.regs != ref.regs || cc.PC() != ref.PC() || cc.Halted() != ref.Halted() {
					t.Fatalf("%s batch=%d budget=%d: machine state diverged", name, batch, budget)
				}
			}
		}
	}
}

// TestRunCtlResumeMidPair pins the budget boundary inside a fused pair
// on the control plane: one instruction of budget left retires exactly
// the first constituent, and resuming completes the stream.
func TestRunCtlResumeMidPair(t *testing.T) {
	cc := newFusionCPU(false)
	rec := &ctlRecorder{}
	n, err := cc.Run(3, rec)
	if err != nil || n != 3 {
		t.Fatalf("first leg: n=%d err=%v", n, err)
	}
	if got := cc.PC(); got != 3 {
		t.Fatalf("mid-pair pc = %d, want 3 (second constituent)", got)
	}
	if _, err := cc.Run(0, rec); err != nil {
		t.Fatal(err)
	}
	ref := newFusionCPU(true)
	rrec := &trace.Recorder{}
	if _, err := ref.Run(0, rrec); err != nil {
		t.Fatal(err)
	}
	checkCtl(t, "resumed", rec, cc.Retired(), rrec.Events)
}

// TestRunCtlErrorPaths: machine errors on the control plane flush the
// pending batch before returning, exactly like the full path.
func TestRunCtlErrorPaths(t *testing.T) {
	run := func(p *program.Program) (*ctlRecorder, error) {
		c := New(p)
		rec := &ctlRecorder{}
		_, err := c.Run(0, rec)
		return rec, err
	}
	if rec, err := run(prog(isa.Nop())); !errors.Is(err, ErrPC) || rec.end != 1 || len(rec.xs) != 0 {
		t.Fatalf("ErrPC: got %v, %d instructions, %d transfers", err, rec.end, len(rec.xs))
	}
	if _, err := run(prog(isa.Ret())); !errors.Is(err, ErrRetEmpty) {
		t.Fatalf("ErrRetEmpty: got %v", err)
	}
	if _, err := run(prog(isa.Call(0))); !errors.Is(err, ErrCallDepth) {
		t.Fatalf("ErrCallDepth: got %v", err)
	}
}

// TestRunCtlForcedFull: wrapping the same control-only sink in
// ForceFullPlane must push Run back onto full-Event delivery (the
// wrapper's ConsumeBatch, not the sink's panicking one).
func TestRunCtlForcedFull(t *testing.T) {
	var got []trace.Event
	sink := trace.BatchConsumerFunc(func(evs []trace.Event) { got = append(got, evs...) })
	c := New(memFusionProg())
	if _, err := c.Run(0, trace.ForceFullPlane(sink)); err != nil {
		t.Fatal(err)
	}
	ref := New(memFusionProg())
	ref.SetReference(true)
	rrec := &trace.Recorder{}
	if _, err := ref.Run(0, rrec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rrec.Events) {
		t.Fatalf("forced-full stream differs (%d vs %d events)", len(got), len(rrec.Events))
	}
}

// TestSegmentBoundaryPairBeforeTransfer pins satellite boundaries of the
// segment side channel and of the sparse control plane: a fused pair
// whose second constituent is the last event before a control transfer,
// with batch sizes that flush between the pair and the transfer and
// budgets that cut inside the pair. The full plane's ctl indices must
// be exactly the branch/jump/ret positions of the equivalent reference
// stream, and the control plane must carry exactly those transfers.
func TestSegmentBoundaryPairBeforeTransfer(t *testing.T) {
	for _, batch := range []int{1, 2, 3, 5, 8, 9, 1024} {
		for _, budget := range []uint64{0, 5, 8, 9, 10, 11, 17} {
			ref := New(memFusionProg())
			ref.SetReference(true)
			re, _, err := runStream(t, ref, budget, batch)
			if err != nil {
				t.Fatal(err)
			}
			var want []int
			for i := range re {
				if re[i].Instr.Kind.EndsRun() {
					want = append(want, i)
				}
			}

			seg := &segRecorder{}
			c := New(memFusionProg())
			c.SetBatchSize(batch)
			if _, err := c.Run(budget, seg); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seg.events, re) {
				t.Fatalf("batch=%d budget=%d: segmented events differ from reference", batch, budget)
			}
			if !reflect.DeepEqual(seg.ctl, append([]int(nil), want...)) {
				t.Fatalf("batch=%d budget=%d: full-plane ctl = %v, want %v", batch, budget, seg.ctl, want)
			}

			crec, cn, err := runCtlStream(t, New(memFusionProg()), budget, batch)
			if err != nil {
				t.Fatal(err)
			}
			checkCtl(t, fmt.Sprintf("batch=%d budget=%d", batch, budget), crec, cn, re)
		}
	}
}

// TestRunCtlSparseEdges pins the edges of sparse delivery: a program
// with no transfer at all is one batch with none, a budget that ends
// inside a straight-line run closes a batch with none, and resuming
// continues the index range; a straight-line run longer than a uint16
// is delivered like any other gap.
func TestRunCtlSparseEdges(t *testing.T) {
	ref := func(p *program.Program, budget uint64) []trace.Event {
		c := New(p)
		c.SetReference(true)
		rec := &trace.Recorder{}
		if _, err := c.Run(budget, rec); err != nil {
			t.Fatal(err)
		}
		return rec.Events
	}

	// No transfer at all: one batch covering the whole run, carrying none.
	flat := prog(isa.MovI(1, 3), isa.AddI(1, 1, 1), isa.Nop(), isa.Halt())
	rec, n, err := runCtlStream(t, New(flat), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkCtl(t, "flat", rec, n, ref(flat, 0))
	if rec.batches != 1 || rec.empty != 1 || n != 4 {
		t.Fatalf("flat: %d batches (%d empty) over %d instructions, want 1 (1) over 4", rec.batches, rec.empty, n)
	}

	// A budget cut inside the straight-line run after a transfer: with
	// one transfer per batch, the tail is a batch of its own with none,
	// and the resumed run's batches start where it ended.
	mem := memFusionProg()
	for _, budget := range []uint64{13, 15, 16} { // inside the second iteration's body
		c := New(mem)
		rec, n, err := runCtlStream(t, c, budget, 1)
		if err != nil {
			t.Fatal(err)
		}
		checkCtl(t, fmt.Sprintf("cut at %d", budget), rec, n, ref(mem, budget))
		if rec.empty != 1 {
			t.Fatalf("cut at %d: %d batches without a transfer, want 1", budget, rec.empty)
		}
		if _, err := c.Run(0, rec); err != nil {
			t.Fatal(err)
		}
		checkCtl(t, fmt.Sprintf("resumed after %d", budget), rec, c.Retired(), ref(mem, 0))
	}

	// A straight-line run past the uint16 range, inside a two-trip loop.
	code := []isa.Instr{isa.MovI(1, 2)}
	for len(code) < 70_001 {
		code = append(code, isa.Nop())
	}
	code = append(code, isa.AddI(1, 1, -1), isa.Branch(isa.CondNEZ, 1, 1), isa.Halt())
	long := prog(code...)
	for _, budget := range []uint64{0, 70_000, 100_000} {
		rec, n, err := runCtlStream(t, New(long), budget, 1)
		if err != nil {
			t.Fatal(err)
		}
		checkCtl(t, fmt.Sprintf("long run budget=%d", budget), rec, n, ref(long, budget))
	}
}
