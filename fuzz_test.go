// Differential fuzzing of the interpreter core: arbitrary (bounded)
// programs must execute identically on the predecoded+fused fast path
// and the reference two-level interpreter — same event stream, same
// machine state, same error — and any stream the fast path emits must
// survive a trace-archive record/replay round trip event for event.
package dynloop_test

import (
	"fmt"
	"reflect"
	"testing"

	"dynloop/internal/interp"
	"dynloop/internal/isa"
	"dynloop/internal/program"
	"dynloop/internal/trace"
	"dynloop/internal/tracefile"
)

// fuzzProgram decodes fuzz bytes into an in-range program: registers
// and sequence IDs are taken mod their file sizes and control targets
// mod the final code length, so the only machine checks reachable are
// the ones both interpreter paths must agree on (call depth, ret on an
// empty stack, running off the end). A trailing halt bounds the common
// case; a budget cap in the caller bounds the loops.
func fuzzProgram(data []byte) *program.Program {
	const maxLen = 96
	var code []isa.Instr
	for i := 0; i+2 < len(data) && len(code) < maxLen; i += 3 {
		sel, a, b := data[i], data[i+1], data[i+2]
		rd := isa.Reg(a % isa.NumRegs)
		rs := isa.Reg(b % isa.NumRegs)
		// Immediates sweep the codec's width classes: a signed byte
		// shifted by 0..56 bits.
		imm := int64(int8(b)) << (uint(a>>2) % 57)
		switch sel % 13 {
		case 0:
			ops := []isa.ALUOp{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd,
				isa.OpOr, isa.OpXor, isa.OpSlt, isa.OpMod}
			code = append(code, isa.ALU(ops[a%8], rd, rs, isa.Reg(a%isa.NumRegs)))
		case 1:
			code = append(code, isa.AddI(rd, rs, imm))
		case 2:
			code = append(code, isa.MovI(rd, imm))
		case 3:
			code = append(code, isa.Mov(rd, rs))
		case 4:
			code = append(code, isa.Load(rd, rs, int64(a%64)*8))
		case 5:
			code = append(code, isa.Store(rd, int64(a%64)*8, rs))
		case 6:
			conds := []isa.Cond{isa.CondEQZ, isa.CondNEZ, isa.CondLTZ,
				isa.CondGEZ, isa.CondGTZ, isa.CondLEZ}
			code = append(code, isa.Branch(conds[a%6], rs, isa.Addr(b))) // target fixed below
		case 7:
			code = append(code, isa.Jump(isa.Addr(b)))
		case 8:
			code = append(code, isa.Call(isa.Addr(b)))
		case 9:
			code = append(code, isa.Ret())
		case 10:
			code = append(code, isa.Seq(rd, int64(a%4)))
		case 11:
			code = append(code, isa.Nop())
		case 12:
			code = append(code, isa.Halt())
		}
	}
	code = append(code, isa.Halt())
	n := isa.Addr(len(code))
	for i := range code {
		if code[i].Kind.IsControl() && code[i].Kind != isa.KindRet {
			code[i].Target %= n
		}
	}
	return &program.Program{Name: "fuzz", Code: code}
}

// ctlCapture is a control-plane-only sink: it records the transfers and
// panics if the producer falls back to full-Event delivery, so a test
// passing proves the run actually took the ctl loop. It checks that
// batches are contiguous and that each transfer lies in its batch's
// range, keeping the first violation.
type ctlCapture struct {
	xs  []trace.CtlEvent
	end uint64 // the last batch's end: Σ(end−first) from index 0
	bad string
}

func (c *ctlCapture) ConsumeBatch([]trace.Event) {
	panic("ctlCapture: full-plane batch delivered to a ctl-only sink")
}

func (c *ctlCapture) ConsumeCtlBatch(xs []trace.CtlEvent, first, end uint64) {
	if c.bad == "" && (first != c.end || end <= first) {
		c.bad = fmt.Sprintf("batch [%d, %d) after a batch ending at %d", first, end, c.end)
	}
	for _, x := range xs {
		if c.bad == "" && (x.Index < first || x.Index >= end) {
			c.bad = fmt.Sprintf("batch [%d, %d) carries index %d", first, end, x.Index)
		}
	}
	c.xs = append(c.xs, xs...)
	c.end = end
}

func newFuzzCPU(p *program.Program, reference bool) *interp.CPU {
	c := interp.New(p)
	c.SetReference(reference)
	for id := int64(0); id < 4; id++ {
		c.BindSeq(id, interp.Counter(id*7+1, id+1))
	}
	return c
}

func FuzzPredecode(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{2, 1, 5, 1, 2, 255, 6, 0, 0}, uint8(1)) // movi, addi, branch
	f.Add([]byte{2, 3, 16, 5, 3, 1, 4, 3, 1}, uint8(3))  // movi, store, load
	f.Add([]byte{8, 0, 4, 12, 0, 0, 9, 0, 0}, uint8(2))  // call over a halt, ret
	f.Add([]byte{10, 1, 0, 10, 2, 1, 7, 0, 0}, uint8(7)) // seqs and a jump
	f.Add([]byte{2, 1, 5, 11, 0, 0, 0, 1, 2}, uint8(0))  // no transfer at all
	f.Fuzz(func(t *testing.T, data []byte, bsel uint8) {
		p := fuzzProgram(data)
		batch := []int{0, 1, 3, 256}[bsel%4]
		const budget = 2000

		fused := newFuzzCPU(p, false)
		fused.SetBatchSize(batch)
		frec := &trace.Recorder{}
		fn, ferr := fused.Run(budget, frec)

		ref := newFuzzCPU(p, true)
		ref.SetBatchSize(batch)
		rrec := &trace.Recorder{}
		rn, rerr := ref.Run(budget, rrec)

		if (ferr == nil) != (rerr == nil) || (ferr != nil && ferr.Error() != rerr.Error()) {
			t.Fatalf("errors diverged: fused %v, reference %v", ferr, rerr)
		}
		if fn != rn {
			t.Fatalf("retired %d fused vs %d reference", fn, rn)
		}
		if !reflect.DeepEqual(frec.Events, rrec.Events) {
			t.Fatalf("streams diverged after %d events", fn)
		}
		if fused.PC() != ref.PC() || fused.Halted() != ref.Halted() {
			t.Fatalf("machine state diverged: pc %d/%d halted %v/%v",
				fused.PC(), ref.PC(), fused.Halted(), ref.Halted())
		}

		// Control-plane leg: a ctl-only sink runs the dedicated ctl loop,
		// which must deliver exactly the transfers of the full stream over
		// contiguous batches covering every retired instruction, with
		// identical machine state and error behaviour.
		ctlCPU := newFuzzCPU(p, false)
		ctlCPU.SetBatchSize(batch)
		crec := &ctlCapture{}
		cn, cerr := ctlCPU.Run(budget, crec)
		if (cerr == nil) != (ferr == nil) || (cerr != nil && cerr.Error() != ferr.Error()) {
			t.Fatalf("ctl errors diverged: ctl %v, full %v", cerr, ferr)
		}
		if cn != fn || ctlCPU.PC() != fused.PC() || ctlCPU.Halted() != fused.Halted() {
			t.Fatalf("ctl machine diverged: n %d/%d pc %d/%d halted %v/%v",
				cn, fn, ctlCPU.PC(), fused.PC(), ctlCPU.Halted(), fused.Halted())
		}
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if ctlCPU.Reg(r) != fused.Reg(r) {
				t.Fatalf("ctl r%d = %d, full %d", r, ctlCPU.Reg(r), fused.Reg(r))
			}
		}
		if crec.bad != "" || crec.end != cn {
			t.Fatalf("ctl batches malformed (%s) or cover %d of %d retired", crec.bad, crec.end, cn)
		}
		var facet []trace.CtlEvent
		for _, ev := range frec.Events {
			if ev.Instr.Kind.EndsRun() {
				facet = append(facet, trace.CtlEvent{Index: ev.Index, PC: ev.PC, Instr: ev.Instr,
					Taken: ev.Taken, Target: ev.Target})
			}
		}
		if len(crec.xs) != len(facet) {
			t.Fatalf("ctl stream has %d transfers, full stream %d", len(crec.xs), len(facet))
		}
		for i := range facet {
			if crec.xs[i] != facet[i] {
				t.Fatalf("ctl transfer %d = %+v, full stream %+v", i, crec.xs[i], facet[i])
			}
		}

		// Replay leg: a clean run's stream must round-trip through the
		// archive codec byte for byte.
		if ferr != nil {
			return
		}
		a, err := tracefile.OpenArchive(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		rec, err := a.BeginRecord("fuzz", 1, p)
		if err != nil {
			t.Fatal(err)
		}
		rec.ConsumeBatch(frec.Events)
		if err := rec.Commit(fused.Halted()); err != nil {
			t.Fatal(err)
		}
		r, ok := a.Lookup("fuzz", 1)
		if !ok {
			t.Fatal("recording not installed")
		}
		prec := &trace.Recorder{}
		gotN, gotHalted, err := r.Replay(0, nil, prec)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if gotN != fn || gotHalted != fused.Halted() {
			t.Fatalf("replay n=%d halted=%v, want %d/%v", gotN, gotHalted, fn, fused.Halted())
		}
		if !reflect.DeepEqual(prec.Events, frec.Events) {
			t.Fatalf("replayed stream differs from live stream")
		}
	})
}
