package interp

// The control-plane execution loop. When every attached consumer is
// control-only (trace.PlanesOf(sink) == trace.PlaneCtl), Run dispatches
// here instead of runPre: the same predecoded micro-op semantics, but
// the only retirement record stored is a trace.CtlEvent per control
// transfer (branch, jump, ret). Every other instruction only advances
// the retired count, so the loop pays per transfer, not per instruction,
// for what it delivers; consumers see straight-line work as the index
// gaps of the sparse batch (see trace.CtlBatchConsumer).
//
// Machine state transitions (registers, memory, call stack, sequence
// reads, PC, retired count, halts, machine errors) are byte-identical
// to runPre. Differential tests pin that the delivered transfers are
// exactly the transfers of the full stream.

import (
	"fmt"

	"dynloop/internal/isa"
	"dynloop/internal/trace"
)

// deliverCtl flushes the pending control-plane batch covering
// [first, end); like deliver it is a plain function so the hot loop's
// locals stay register-allocated.
func deliverCtl(sink trace.CtlBatchConsumer, xs []trace.CtlEvent, first, end uint64) {
	if end > first {
		sink.ConsumeCtlBatch(xs, first, end)
	}
}

// execFusedFirst executes only the first constituent of fused micro-op
// u: the control-plane twin of stepFusedFirst, taken when fewer than two
// instructions of budget remain. A first constituent is never a
// transfer, so there is nothing to record: runCtl breaks out of its
// dispatch and retires it like any straight-line instruction.
func (c *CPU) execFusedFirst(u *uop) {
	regs := &c.regs
	switch u.op {
	case opFuseAddIBr, opFuseAddIAdd, opFuseAddIAddI:
		regs[u.rd] = regs[u.rs1] + u.imm
	case opFuseAddAdd, opFuseAddAddI:
		regs[u.rd] = regs[u.rs1] + regs[u.rs2]
	case opFuseLoadAddI, opFuseLoadAdd, opFuseLoadSt:
		regs[u.rd] = c.mem.Load(uint64(regs[u.rs1] + u.imm))
	case opFuseStBr, opFuseStSt:
		c.mem.Store(uint64(regs[u.rs1]+u.imm), regs[u.rs2])
	default: // opFuseMovISt
		regs[u.rd] = u.imm
	}
}

// runCtl is the control-plane execution loop: runPre storing only the
// control transfers. A batch flushes once it holds len(buf) transfers,
// covering the indices from the previous flush through the last of them;
// a budget that ends inside a fused pair single-steps its first
// constituent, and error paths flush the pending range before
// returning, so the batches always tile the retired stream.
func (c *CPU) runCtl(budget uint64, sink trace.CtlBatchConsumer, buf []trace.CtlEvent) (uint64, error) {
	ops := c.ops
	pc := uint64(c.pc)
	retired := c.retired
	start := retired
	regs := &c.regs
	limit := retired + budget
	if budget == 0 || limit < retired {
		limit = ^uint64(0)
	}
	// first is the first index of the pending batch; k counts its
	// transfers in buf.
	first := retired
	kmax := len(buf)
	k := 0
	halted := c.halted
	for !halted && retired < limit {
		if pc >= uint64(len(ops)) {
			deliverCtl(sink, buf[:k], first, retired)
			c.pc, c.retired = isa.Addr(pc), retired
			return retired - start, fmt.Errorf("%w: pc=%d len=%d", ErrPC, isa.Addr(pc), len(ops))
		}
		u := &ops[pc]
		next := pc + 1
		switch u.op {
		case opFuseAddIAddI:
			if limit-retired < 2 {
				c.execFusedFirst(u)
				break
			}
			regs[u.rd] = regs[u.rs1] + u.imm
			regs[u.aux] = regs[u.aux2] + u.imm2
			pc += 2
			goto tail2
		case opFuseAddIAdd:
			if limit-retired < 2 {
				c.execFusedFirst(u)
				break
			}
			regs[u.rd] = regs[u.rs1] + u.imm
			regs[u.aux] = regs[u.aux2] + regs[u.aux3]
			pc += 2
			goto tail2
		case opFuseAddAddI:
			if limit-retired < 2 {
				c.execFusedFirst(u)
				break
			}
			regs[u.rd] = regs[u.rs1] + regs[u.rs2]
			regs[u.aux] = regs[u.aux2] + u.imm2
			pc += 2
			goto tail2
		case opFuseAddAdd:
			if limit-retired < 2 {
				c.execFusedFirst(u)
				break
			}
			regs[u.rd] = regs[u.rs1] + regs[u.rs2]
			regs[u.aux] = regs[u.aux2] + regs[u.aux3]
			pc += 2
			goto tail2
		case opFuseAddIBr:
			if limit-retired < 2 {
				c.execFusedFirst(u)
				break
			}
			regs[u.rd] = regs[u.rs1] + u.imm
			if condHolds(u.aux, regs[u.rs2]) {
				buf[k] = trace.CtlEvent{Index: retired + 1, PC: isa.Addr(pc + 1), Instr: u.in2,
					Taken: true, Target: isa.Addr(u.target)}
				pc = uint64(u.target)
			} else {
				buf[k] = trace.CtlEvent{Index: retired + 1, PC: isa.Addr(pc + 1), Instr: u.in2}
				pc += 2
			}
			retired += 2
			goto transfer
		case opFuseStBr:
			if limit-retired < 2 {
				c.execFusedFirst(u)
				break
			}
			c.mem.Store(uint64(regs[u.rs1]+u.imm), regs[u.rs2])
			if condHolds(u.aux, regs[u.aux2]) {
				buf[k] = trace.CtlEvent{Index: retired + 1, PC: isa.Addr(pc + 1), Instr: u.in2,
					Taken: true, Target: isa.Addr(u.target)}
				pc = uint64(u.target)
			} else {
				buf[k] = trace.CtlEvent{Index: retired + 1, PC: isa.Addr(pc + 1), Instr: u.in2}
				pc += 2
			}
			retired += 2
			goto transfer
		case opFuseLoadAddI:
			if limit-retired < 2 {
				c.execFusedFirst(u)
				break
			}
			regs[u.rd] = c.mem.Load(uint64(regs[u.rs1] + u.imm))
			regs[u.aux] = regs[u.aux2] + u.imm2
			pc += 2
			goto tail2
		case opFuseLoadAdd:
			if limit-retired < 2 {
				c.execFusedFirst(u)
				break
			}
			regs[u.rd] = c.mem.Load(uint64(regs[u.rs1] + u.imm))
			regs[u.aux] = regs[u.aux2] + regs[u.rs2]
			pc += 2
			goto tail2
		case opFuseMovISt:
			if limit-retired < 2 {
				c.execFusedFirst(u)
				break
			}
			regs[u.rd] = u.imm
			c.mem.Store(uint64(regs[u.rs1]+u.imm2), regs[u.rs2])
			pc += 2
			goto tail2
		case opFuseLoadSt:
			if limit-retired < 2 {
				c.execFusedFirst(u)
				break
			}
			regs[u.rd] = c.mem.Load(uint64(regs[u.rs1] + u.imm))
			c.mem.Store(uint64(regs[u.aux2]+u.imm2), regs[u.aux3])
			pc += 2
			goto tail2
		case opFuseStSt:
			if limit-retired < 2 {
				c.execFusedFirst(u)
				break
			}
			c.mem.Store(uint64(regs[u.rs1]+u.imm), regs[u.rs2])
			c.mem.Store(uint64(regs[u.aux2]+u.imm2), regs[u.aux3])
			pc += 2
			goto tail2
		case opAddI:
			regs[u.rd] = regs[u.rs1] + u.imm
		case opAdd:
			regs[u.rd] = regs[u.rs1] + regs[u.rs2]
		case opBrEQZ:
			if regs[u.rs1] == 0 {
				next = uint64(u.target)
				goto taken
			}
			goto notTaken
		case opBrNEZ:
			if regs[u.rs1] != 0 {
				next = uint64(u.target)
				goto taken
			}
			goto notTaken
		case opBrLTZ:
			if regs[u.rs1] < 0 {
				next = uint64(u.target)
				goto taken
			}
			goto notTaken
		case opBrGEZ:
			if regs[u.rs1] >= 0 {
				next = uint64(u.target)
				goto taken
			}
			goto notTaken
		case opBrGTZ:
			if regs[u.rs1] > 0 {
				next = uint64(u.target)
				goto taken
			}
			goto notTaken
		case opBrLEZ:
			if regs[u.rs1] <= 0 {
				next = uint64(u.target)
				goto taken
			}
			goto notTaken
		case opLoad:
			regs[u.rd] = c.mem.Load(uint64(regs[u.rs1] + u.imm))
		case opStore:
			c.mem.Store(uint64(regs[u.rs1]+u.imm), regs[u.rs2])
		case opMovI:
			regs[u.rd] = u.imm
		case opMov:
			regs[u.rd] = regs[u.rs1]
		case opSub:
			regs[u.rd] = regs[u.rs1] - regs[u.rs2]
		case opMul:
			regs[u.rd] = regs[u.rs1] * regs[u.rs2]
		case opAnd:
			regs[u.rd] = regs[u.rs1] & regs[u.rs2]
		case opOr:
			regs[u.rd] = regs[u.rs1] | regs[u.rs2]
		case opXor:
			regs[u.rd] = regs[u.rs1] ^ regs[u.rs2]
		case opShl:
			regs[u.rd] = regs[u.rs1] << uint64(u.imm)
		case opShr:
			regs[u.rd] = regs[u.rs1] >> uint64(u.imm)
		case opSlt:
			var v int64
			if regs[u.rs1] < regs[u.rs2] {
				v = 1
			}
			regs[u.rd] = v
		case opMod:
			var v int64
			if b := regs[u.rs2]; b != 0 {
				v = regs[u.rs1] % b
			}
			regs[u.rd] = v
		case opSeq:
			var v int64
			if s, ok := c.seqs[u.imm]; ok {
				v = s.Next()
			}
			regs[u.rd] = v
		case opJump:
			next = uint64(u.target)
			goto taken
		case opCall:
			if len(c.stack) >= MaxCallDepth {
				deliverCtl(sink, buf[:k], first, retired)
				c.pc, c.retired = isa.Addr(pc), retired
				return retired - start, fmt.Errorf("%w at pc=%d", ErrCallDepth, isa.Addr(pc))
			}
			c.stack = append(c.stack, isa.Addr(pc+1))
			next = uint64(u.target)
		case opRet:
			if len(c.stack) == 0 {
				deliverCtl(sink, buf[:k], first, retired)
				c.pc, c.retired = isa.Addr(pc), retired
				return retired - start, fmt.Errorf("%w at pc=%d", ErrRetEmpty, isa.Addr(pc))
			}
			next = uint64(c.stack[len(c.stack)-1])
			c.stack = c.stack[:len(c.stack)-1]
			goto taken
		case opBrNever:
			// Unknown-condition branch: never taken, still a transfer.
			goto notTaken
		case opHalt:
			halted = true
		default: // opNop
		}
		retired++
		pc = next
		continue

	taken: // a taken transfer from pc to next
		buf[k] = trace.CtlEvent{Index: retired, PC: isa.Addr(pc), Instr: u.in,
			Taken: true, Target: isa.Addr(next)}
		goto transfer1

	notTaken: // a branch falling through
		buf[k] = trace.CtlEvent{Index: retired, PC: isa.Addr(pc), Instr: u.in}

	transfer1: // the single instruction at pc was the transfer in buf[k]
		retired++
		pc = next

	transfer: // buf[k] holds the transfer that retired last
		if k++; k == kmax {
			sink.ConsumeCtlBatch(buf, first, retired)
			first, k = retired, 0
		}
		continue

	tail2: // fused op retired whole: two instructions, no transfer
		retired += 2
	}
	deliverCtl(sink, buf[:k], first, retired)
	c.pc, c.retired, c.halted = isa.Addr(pc), retired, halted
	return retired - start, nil
}
