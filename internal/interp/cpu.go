// Package interp executes programs of the substrate ISA and emits one
// trace.Event per retired instruction. It replaces the paper's
// ATOM-instrumented Alpha binaries: the loop detector, tables, speculation
// engine and data-speculation statistics all run as consumers of the
// stream this interpreter produces.
//
// Execution is driven from a predecoded micro-op array built once per
// CPU (see predecode.go): a dense single-switch dispatch with peephole
// superinstruction fusion for the dominant loop idioms. The original
// two-level Kind/Op interpreter is retained verbatim as a reference
// path (SetReference) for differential testing; both paths emit
// byte-identical event streams.
//
// Events are delivered in batches: Run fills a reusable buffer of
// DefaultBatchSize events (see SetBatchSize) and flushes it through
// trace.BatchConsumer, so the consumer side costs one interface call per
// batch instead of one per instruction. The buffer is allocated once and
// reused across batches and Run calls — the steady-state hot path does
// not allocate. When Run has no sink it executes the same loop against a
// small CPU-owned scratch batch, so the retire loop has exactly one code
// path.
package interp

import (
	"errors"
	"fmt"

	"dynloop/internal/isa"
	"dynloop/internal/program"
	"dynloop/internal/trace"
)

// Errors reported by Run.
var (
	// ErrNoProgram is returned when the CPU has no program loaded.
	ErrNoProgram = errors.New("interp: no program loaded")
	// ErrCallDepth is returned when the call stack exceeds MaxCallDepth.
	ErrCallDepth = errors.New("interp: call stack overflow")
	// ErrRetEmpty is returned on a return with an empty call stack.
	ErrRetEmpty = errors.New("interp: return with empty call stack")
	// ErrPC is returned when the PC leaves the program.
	ErrPC = errors.New("interp: PC out of range")
)

// MaxCallDepth bounds the call stack; exceeding it is a program bug and
// aborts the run rather than looping forever.
const MaxCallDepth = 4096

// DefaultBatchSize is the event-batch size Run uses unless SetBatchSize
// chose another. 1024 events (~90 KiB) sits at the measured knee of the
// BenchmarkRunBatchSize sweep: the per-batch interface dispatch is
// amortised to noise by ~256, and the buffer stays comfortably inside
// L2 — 4096 (~360 KiB) measured ~10% slower on the reference host.
const DefaultBatchSize = 1024

// scratchSize is the batch size of the no-sink scratch buffer. It must
// be at least 2 so fused micro-ops can retire both constituents into it.
const scratchSize = 2

// CPU is a single-context interpreter. Create one with New, then call Run.
type CPU struct {
	prog *program.Program
	regs [isa.NumRegs]int64
	mem  Memory
	// ops is the predecoded micro-op array (see predecode.go), built
	// once in New with fusion enabled.
	ops []uop
	// stack holds return addresses.
	stack []isa.Addr
	pc    isa.Addr
	// seqs maps sequence ids to value streams.
	seqs map[int64]Sequence
	// retired counts instructions executed so far across Run calls.
	retired uint64
	halted  bool
	// reference selects the retained two-level-switch interpreter (no
	// predecode, no fusion) for differential testing.
	reference bool

	// batch is the reusable event buffer (len == cap == batchSize); it is
	// allocated lazily on the first Run with a sink and reused afterwards.
	// ctl is the control-transfer index side channel delivered with each
	// batch to trace.SegmentedBatchConsumer sinks (same length as batch).
	// ctlBatch is the sparse control-plane buffer, holding transfers
	// only, used instead of batch when every attached consumer is
	// control-only (see Run).
	batch     []trace.Event
	ctlBatch  []trace.CtlEvent
	ctl       []int32
	batchSize int
	// scratch/scratchCtl receive event writes when Run has no sink,
	// keeping the execution loop on a single code path without
	// heap-escaping an event per instruction.
	scratch    [scratchSize]trace.Event
	scratchCtl [scratchSize]int32
}

// New returns a CPU ready to execute p from its entry point.
func New(p *program.Program) *CPU {
	return &CPU{prog: p, pc: p.Entry, seqs: make(map[int64]Sequence),
		ops: predecode(p, true)}
}

// BindSeq attaches a value sequence to id; KindSeq instructions with that
// id read from it. Unbound sequences read as zero.
func (c *CPU) BindSeq(id int64, s Sequence) { c.seqs[id] = s }

// Reg returns the current value of register r.
func (c *CPU) Reg(r isa.Reg) int64 { return c.regs[r] }

// SetReg sets register r; useful for test setup.
func (c *CPU) SetReg(r isa.Reg, v int64) { c.regs[r] = v }

// Mem returns the data memory, for test inspection and preloading.
func (c *CPU) Mem() *Memory { return &c.mem }

// Retired returns the number of instructions executed so far.
func (c *CPU) Retired() uint64 { return c.retired }

// Halted reports whether the program has executed Halt.
func (c *CPU) Halted() bool { return c.halted }

// PC returns the current program counter.
func (c *CPU) PC() isa.Addr { return c.pc }

// SetReference selects (true) or deselects (false) the reference
// interpreter: the original two-level Kind/Op switch over isa.Instr,
// with no predecode and no superinstruction fusion. Both paths emit
// byte-identical event streams and machine state; the reference path
// exists so differential tests (and suspicious users) can pin that.
func (c *CPU) SetReference(on bool) { c.reference = on }

// Reference reports whether the reference interpreter is selected.
func (c *CPU) Reference() bool { return c.reference }

// SetBatchSize sets the event-batch size for subsequent Run calls
// (n <= 0 selects DefaultBatchSize). Batch size only affects delivery
// granularity — consumers see the same events in the same order at any
// setting — so results are identical; 1 degenerates to per-instruction
// delivery. On the control plane it bounds the transfers per batch (1
// delivers one transfer per batch).
func (c *CPU) SetBatchSize(n int) {
	if n <= 0 {
		n = DefaultBatchSize
	}
	if n != c.batchSize {
		c.batchSize = n
		c.batch, c.ctlBatch, c.ctl = nil, nil, nil
	}
}

// BatchSize returns the effective event-batch size.
func (c *CPU) BatchSize() int {
	if c.batchSize <= 0 {
		return DefaultBatchSize
	}
	return c.batchSize
}

// Run executes up to budget instructions (0 means unlimited), emitting one
// event per retired instruction to sink (which may be nil). It returns the
// number of instructions retired by this call. Execution stops at the
// budget, at a Halt, or on a machine error (bad PC, call stack abuse);
// events buffered at that point are flushed before Run returns, so the
// sink always sees every retired instruction.
//
// Events are delivered in batches of BatchSize; the batch buffer is owned
// by the CPU and reused, so consumers must copy what they keep (see the
// trace package comment on batch lifetime).
//
// Run negotiates the event facets with the sink: when the sink accepts
// control-plane batches (trace.CtlBatchConsumer) and declares it needs
// only the control facet (trace.PlanesOf == trace.PlaneCtl), the
// predecoded loop stores a trace.CtlEvent only for each control transfer
// and delivers sparse batches over contiguous index ranges; there
// BatchSize bounds the transfers per batch, not the instructions. The
// reference path and the nil-sink path always use full events.
func (c *CPU) Run(budget uint64, sink trace.BatchConsumer) (uint64, error) {
	if c.prog == nil {
		return 0, ErrNoProgram
	}
	// Instrumentation is per-Run, never per-instruction: two atomic adds
	// and no clock read, which would dominate a short Run (callers that
	// own a whole traversal time it; see harness.MultiRun).
	n, ctlPlane, err := c.run(budget, sink)
	if ctlPlane {
		mRunsCtl.Inc()
	} else {
		mRunsFull.Inc()
	}
	mInstructions.Add(n)
	return n, err
}

// run dispatches to the negotiated execution loop; the boolean reports
// whether the control-plane-only loop served the sink.
func (c *CPU) run(budget uint64, sink trace.BatchConsumer) (uint64, bool, error) {
	if !c.reference && sink != nil {
		if cc, ok := sink.(trace.CtlBatchConsumer); ok && trace.PlanesOf(sink) == trace.PlaneCtl {
			if c.ctlBatch == nil {
				c.ctlBatch = make([]trace.CtlEvent, c.BatchSize())
			}
			n, err := c.runCtl(budget, cc, c.ctlBatch)
			return n, true, err
		}
	}
	buf, ctl := c.scratch[:], c.scratchCtl[:]
	var seg trace.SegmentedBatchConsumer
	if sink != nil {
		if c.batch == nil {
			c.batch = make([]trace.Event, c.BatchSize())
		}
		if c.ctl == nil {
			c.ctl = make([]int32, c.BatchSize())
		}
		buf, ctl = c.batch, c.ctl
		seg, _ = sink.(trace.SegmentedBatchConsumer)
	}
	if c.reference {
		n, err := c.runRef(budget, sink, buf)
		return n, false, err
	}
	n, err := c.runPre(budget, sink, seg, buf, ctl)
	return n, false, err
}

// runRef is the reference interpreter: the original two-level switch
// over isa.Instr, kept byte-for-byte semantics-equivalent to the
// predecoded path. Differential tests run both and compare streams.
func (c *CPU) runRef(budget uint64, sink trace.BatchConsumer, buf []trace.Event) (uint64, error) {
	// k is the number of committed events in buf.
	k := 0
	flush := func() {
		if sink != nil && k > 0 {
			sink.ConsumeBatch(buf[:k])
		}
		k = 0
	}
	var done uint64
	code := c.prog.Code
	n := isa.Addr(len(code))
	for !c.halted && (budget == 0 || done < budget) {
		if c.pc >= n {
			flush()
			return done, fmt.Errorf("%w: pc=%d len=%d", ErrPC, c.pc, n)
		}
		in := &code[c.pc]
		ev := &buf[k]
		*ev = trace.Event{Index: c.retired, PC: c.pc, Instr: in}
		next := c.pc + 1
		switch in.Kind {
		case isa.KindALU:
			v := c.alu(in)
			c.regs[in.Rd] = v
			ev.WroteReg, ev.WrittenReg, ev.WrittenVal = true, in.Rd, v
		case isa.KindLoad:
			addr := uint64(c.regs[in.Rs1] + in.Imm)
			v := c.mem.Load(addr)
			c.regs[in.Rd] = v
			ev.WroteReg, ev.WrittenReg, ev.WrittenVal = true, in.Rd, v
			ev.MemAddr, ev.MemVal = addr, v
		case isa.KindStore:
			addr := uint64(c.regs[in.Rs1] + in.Imm)
			v := c.regs[in.Rs2]
			c.mem.Store(addr, v)
			ev.MemAddr, ev.MemVal = addr, v
		case isa.KindBranch:
			if in.Cond.Holds(c.regs[in.Rs1]) {
				ev.Taken, ev.Target = true, in.Target
				next = in.Target
			}
		case isa.KindJump:
			ev.Taken, ev.Target = true, in.Target
			next = in.Target
		case isa.KindCall:
			if len(c.stack) >= MaxCallDepth {
				flush()
				return done, fmt.Errorf("%w at pc=%d", ErrCallDepth, c.pc)
			}
			c.stack = append(c.stack, c.pc+1)
			ev.Taken, ev.Target = true, in.Target
			next = in.Target
		case isa.KindRet:
			if len(c.stack) == 0 {
				flush()
				return done, fmt.Errorf("%w at pc=%d", ErrRetEmpty, c.pc)
			}
			ra := c.stack[len(c.stack)-1]
			c.stack = c.stack[:len(c.stack)-1]
			ev.Taken, ev.Target = true, ra
			next = ra
		case isa.KindSeq:
			var v int64
			if s, ok := c.seqs[in.Imm]; ok {
				v = s.Next()
			}
			c.regs[in.Rd] = v
			ev.WroteReg, ev.WrittenReg, ev.WrittenVal = true, in.Rd, v
		case isa.KindHalt:
			c.halted = true
		case isa.KindNop:
			// nothing
		}
		c.retired++
		done++
		c.pc = next
		if k++; k == len(buf) {
			if sink != nil {
				sink.ConsumeBatch(buf)
			}
			k = 0
		}
	}
	flush()
	return done, nil
}

// alu evaluates a KindALU instruction against the register file.
func (c *CPU) alu(in *isa.Instr) int64 {
	a, b := c.regs[in.Rs1], c.regs[in.Rs2]
	switch in.Op {
	case isa.OpAdd:
		return a + b
	case isa.OpAddI:
		return a + in.Imm
	case isa.OpSub:
		return a - b
	case isa.OpMul:
		return a * b
	case isa.OpAnd:
		return a & b
	case isa.OpOr:
		return a | b
	case isa.OpXor:
		return a ^ b
	case isa.OpShl:
		return a << (uint64(in.Imm) & 63)
	case isa.OpShr:
		return a >> (uint64(in.Imm) & 63)
	case isa.OpMovI:
		return in.Imm
	case isa.OpMov:
		return a
	case isa.OpSlt:
		if a < b {
			return 1
		}
		return 0
	case isa.OpMod:
		if b == 0 {
			return 0
		}
		return a % b
	default:
		return 0
	}
}
