package tracefile

// Encode/decode primitives of the replay archive: the embedded program
// image and the packed event records of each block.

import (
	"encoding/binary"
	"fmt"
	"io"

	"dynloop/internal/isa"
	"dynloop/internal/program"
	"dynloop/internal/trace"
)

// maxInstrs bounds the embedded program size when reading untrusted
// files.
const maxInstrs = 64 << 20

// appendProgram encodes the program image (name, entry, instruction
// count, then each instruction's fields) onto buf.
func appendProgram(buf []byte, p *program.Program) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p.Name)))
	buf = append(buf, p.Name...)
	buf = binary.AppendUvarint(buf, uint64(p.Entry))
	buf = binary.AppendUvarint(buf, uint64(len(p.Code)))
	for i := range p.Code {
		in := &p.Code[i]
		buf = binary.AppendUvarint(buf, uint64(in.Kind))
		buf = binary.AppendUvarint(buf, uint64(in.Op))
		buf = binary.AppendUvarint(buf, uint64(in.Cond))
		buf = binary.AppendUvarint(buf, uint64(in.Rd))
		buf = binary.AppendUvarint(buf, uint64(in.Rs1))
		buf = binary.AppendUvarint(buf, uint64(in.Rs2))
		buf = binary.AppendVarint(buf, in.Imm)
		buf = binary.AppendUvarint(buf, uint64(in.Target))
	}
	return buf
}

// byteReader is the sequential source readProgram decodes from.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// readProgram decodes and validates a program image. Errors wrap both
// ErrCorrupt and the underlying cause, so callers can distinguish a
// truncated source (io.EOF / io.ErrUnexpectedEOF) from malformed bytes.
func readProgram(br byteReader) (*program.Program, error) {
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: name: %w", ErrCorrupt, err)
	}
	if nameLen > maxBlockBytes {
		return nil, fmt.Errorf("%w: name length %d", ErrCorrupt, nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("%w: name bytes: %w", ErrCorrupt, err)
	}
	entry, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: entry: %w", ErrCorrupt, err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: instruction count: %w", ErrCorrupt, err)
	}
	if count > maxInstrs {
		return nil, fmt.Errorf("%w: program too large (%d instructions)", ErrCorrupt, count)
	}
	code := make([]isa.Instr, count)
	for i := range code {
		in := &code[i]
		u := func() uint64 {
			v, e := binary.ReadUvarint(br)
			if e != nil && err == nil {
				err = e
			}
			return v
		}
		v := func() int64 {
			v, e := binary.ReadVarint(br)
			if e != nil && err == nil {
				err = e
			}
			return v
		}
		in.Kind = isa.Kind(u())
		in.Op = isa.ALUOp(u())
		in.Cond = isa.Cond(u())
		in.Rd = isa.Reg(u())
		in.Rs1 = isa.Reg(u())
		in.Rs2 = isa.Reg(u())
		in.Imm = v()
		in.Target = isa.Addr(u())
		if err != nil {
			return nil, fmt.Errorf("%w: instruction %d: %w", ErrCorrupt, i, err)
		}
	}
	p := &program.Program{Name: string(name), Code: code, Entry: isa.Addr(entry)}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: embedded program: %v", ErrCorrupt, err)
	}
	return p, nil
}

// --- packed event records (archive blocks) ---
//
// The replay archive's block payload is built for decode speed, and the
// key observation is the same one the interpreter's predecode stage
// exploits: almost everything about a retired instruction is static.
// The decoder holds the program, so the record stream only carries what
// interpretation actually discovered at run time —
//
//   - the taken bit of conditional branches (which also drives the
//     decoder's pc: not-taken falls through, taken jumps to the static
//     target, so pc is decoder state and is never encoded),
//   - return targets (the one control transfer whose destination is
//     dynamic),
//   - written values and memory addresses/values.
//
// Everything else — the instruction, WrittenReg (always Instr.Rd),
// whether a record carries a value or an address, whether the event is
// a loop-detector run boundary — comes from a per-pc template table
// (see buildTmpls) precomputed once per recording. A load's MemVal
// equals its WrittenVal, so loads carry one value, not two.
//
// Per event: one header byte, then 0-2 little-endian fields whose
// byte widths (1, 2, 4 or 8) the header's 2-bit length codes announce:
//
//	bit0:    taken (control kinds only; drives the pc chain)
//	bits1-2: primary length code — WrittenVal (ALU/seq, zigzag),
//	         MemVal (load/store, zigzag), or Target (ret, unsigned)
//	bits3-4: mem-addr length code (load/store)
//	bits5-7: zero
//
// Headers and fields live in separate planes of the block payload:
// all count header bytes first, then the field bytes in event order.
// The split is what makes decode fast. Interleaved, the position of
// event i+1 depends on loading event i's header and extracting its
// length codes — a ~7-cycle serial chain (load, shift, add) that no
// amount of out-of-order hardware can hide, exactly the x86 prefix
// problem predecode solves for the interpreter. Split into planes,
// header addresses are a counter (the loads issue arbitrarily far
// ahead) and the field-position chain is a 1-cycle add of a width
// that is ready early.
//
// Fields decode with one unconditional 8-byte load and a width mask;
// the field plane ends with blockPad zero bytes so those loads can
// never run past the buffer.

// blockPad is the zero padding sealing every packed block payload.
const blockPad = 8

// lenCode returns the 2-bit code of the smallest field width holding u.
func lenCode(u uint64) byte {
	switch {
	case u < 1<<8:
		return 0
	case u < 1<<16:
		return 1
	case u < 1<<32:
		return 2
	default:
		return 3
	}
}

// appendLE appends u in 1<<c little-endian bytes.
func appendLE(b []byte, u uint64, c byte) []byte {
	switch c {
	case 0:
		return append(b, byte(u))
	case 1:
		return append(b, byte(u), byte(u>>8))
	case 2:
		return append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	default:
		return append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
}

// zigzag maps a signed value to the unsigned form lenCode packs well.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// appendEventPacked encodes one event record in the packed archive
// format — the dynamic facts only, per the format comment above — onto
// the block's header and field planes. It is stateless: the pc chain is
// implied by the taken bits at decode.
//
// Signed values (WrittenVal, MemVal) are stored as the low bytes of
// their two's-complement form rather than zigzagged: zigzag(v) fits w
// bytes exactly when v sign-extends from w bytes, so the width code is
// the same either way, and the decoder recovers v with two shifts
// instead of a mask load plus the zigzag unfold.
func appendEventPacked(hdr, val []byte, ev *trace.Event) ([]byte, []byte) {
	switch ev.Instr.Kind {
	case isa.KindALU, isa.KindSeq:
		c := lenCode(zigzag(ev.WrittenVal))
		return append(hdr, c<<1), appendLE(val, uint64(ev.WrittenVal), c)
	case isa.KindLoad, isa.KindStore:
		c := lenCode(zigzag(ev.MemVal))
		a := lenCode(ev.MemAddr)
		val = appendLE(val, uint64(ev.MemVal), c)
		return append(hdr, c<<1|a<<3), appendLE(val, ev.MemAddr, a)
	case isa.KindBranch:
		if ev.Taken {
			return append(hdr, 1), val
		}
		return append(hdr, 0), val
	case isa.KindJump, isa.KindCall:
		return append(hdr, 1), val
	case isa.KindRet:
		t := uint64(ev.Target)
		c := lenCode(t)
		return append(hdr, 1|c<<1), appendLE(val, t, c)
	default: // halt, nop
		return append(hdr, 0), val
	}
}

// Template flags: the static per-pc facts the decoder branches on.
const (
	// tmplWroteReg marks register-writing kinds (ALU, load, seq).
	tmplWroteReg = 1 << 0
	// tmplHasMem marks loads and stores.
	tmplHasMem = 1 << 1
	// tmplRet marks returns: the one taken transfer whose target is in
	// the stream rather than the template.
	tmplRet = 1 << 2
	// tmplCtl marks loop-detector run boundaries (branch/jump/ret; see
	// trace.SegmentedBatchConsumer) for ctl side-channel collection.
	tmplCtl = 1 << 3
	// tmplFuse marks a plain register write (ALU/seq) whose static
	// successor is also one: the decoder's analogue of the interpreter's
	// superinstruction fusion, letting the fast path decode the pair in
	// one iteration — one dispatch, one loop trip — since neither event
	// can transfer control or touch the ctl side channel.
	tmplFuse = 1 << 4
)

// evTmpl is one per-pc decode template: the static share of every event
// retired at that pc.
type evTmpl struct {
	// in is the static instruction, shared by every decoded event.
	in *isa.Instr
	// target is the static transfer destination (branch/jump/call).
	target uint32
	flags  uint8
	// rd is the written register for tmplWroteReg kinds.
	rd uint8
}

// buildTmpls precomputes the decode-template table for a program image.
func buildTmpls(code []isa.Instr) []evTmpl {
	tmpls := make([]evTmpl, len(code))
	for i := range code {
		in := &code[i]
		t := &tmpls[i]
		t.in = in
		switch in.Kind {
		case isa.KindALU, isa.KindSeq:
			t.flags = tmplWroteReg
			t.rd = uint8(in.Rd)
		case isa.KindLoad:
			t.flags = tmplWroteReg | tmplHasMem
			t.rd = uint8(in.Rd)
		case isa.KindStore:
			t.flags = tmplHasMem
		case isa.KindBranch, isa.KindJump:
			t.flags = tmplCtl
			t.target = uint32(in.Target)
		case isa.KindCall:
			t.target = uint32(in.Target)
		case isa.KindRet:
			t.flags = tmplRet | tmplCtl
		}
	}
	// Fusion pass: mark plain register writes followed by another (the
	// exact-flag compare excludes loads, which carry tmplHasMem too).
	for i := 0; i+1 < len(tmpls); i++ {
		if tmpls[i].flags == tmplWroteReg && tmpls[i+1].flags == tmplWroteReg {
			tmpls[i].flags |= tmplFuse
		}
	}
	return tmpls
}

// maxFieldBytes is the largest per-event field payload: two 8-byte
// fields. Every speculative field load in the decoder's fast path stays
// within vpos+maxFieldBytes bytes.
const maxFieldBytes = 8 + 8

// fieldMask[c] masks an 8-byte field load down to width code c.
var fieldMask = [4]uint64{0xff, 0xffff, 0xffffffff, ^uint64(0)}

// decodeEventsPacked decodes len(evs) packed records from blk starting
// at header offset hpos (header plane ends at hlim), field offset vpos
// and program counter pc, numbering them from base, and returns the two
// offsets and pc after the last record — callers chunk a block into
// cache-sized sub-batches by threading all three through successive
// calls. When full is set this call decodes the block's final records:
// they must consume the header plane exactly and the fields must end at
// the blockPad zero padding. A prefix decode (budget truncation cutting
// a block mid-way) passes false and leaves the remaining records
// unread. Callers guarantee hlim+blockPad <= len(blk) (the parse-time
// frame check), so header reads below hlim are in bounds.
//
// When ctl is non-nil, the indices of decoded run-boundary events are
// appended to it (len(ctl) >= len(evs)) and their count returned,
// pre-segmenting the batch for trace.SegmentedBatchConsumer sinks.
func decodeEventsPacked(blk []byte, hpos, hlim, vpos int, pc uint64, evs []trace.Event, base uint64, tmpls []evTmpl, full bool, ctl []int32) (int, int, uint64, int, error) {
	n := len(blk)
	i := 0
	cn := 0

	// Fast path: while a whole worst-case field record fits, one bound
	// check per event covers every field read. The per-event branches
	// are on template flags — static program facts — so loop-dominated
	// traces predict them nearly perfectly. The header plane spends
	// exactly one byte per event, so reslicing it to hdr (indexed by i,
	// in lockstep with evs) folds its bound into the iteration count and
	// frees the registers hpos/hlim would pin across the loop body.
	hdr := blk[hpos:hlim]
	m := len(evs)
	if len(hdr) < m {
		m = len(hdr)
	}
	if vpos < 0 { // lets prove drop the per-arm blk[vpos:] slice checks
		return hpos, vpos, pc, cn, fmt.Errorf("%w: negative field offset", ErrCorrupt)
	}
	for i < m && vpos <= n-maxFieldBytes {
		if pc >= uint64(len(tmpls)) {
			return hpos + i, vpos, pc, cn, fmt.Errorf("%w: pc=%d at event %d", ErrCorrupt, pc, i)
		}
		t := &tmpls[pc]
		h := hdr[i]
		ev := &evs[i]
		*ev = trace.Event{Index: base + uint64(i), PC: isa.Addr(pc), Instr: t.in}
		next := pc + 1
		if f := t.flags; f&tmplWroteReg != 0 {
			x := binary.LittleEndian.Uint64(blk[vpos : vpos+8])
			w := 1 << (h >> 1 & 3)
			s := uint(64 - w<<3)
			vpos += w
			v := int64(x<<s) >> s
			ev.WroteReg, ev.WrittenReg, ev.WrittenVal = true, isa.Reg(t.rd), v
			if f&tmplHasMem != 0 { // load: the address follows the value
				c := h >> 3 & 3
				a := binary.LittleEndian.Uint64(blk[vpos:vpos+8]) & fieldMask[c]
				vpos += 1 << c
				ev.MemAddr, ev.MemVal = a, v
			} else if f&tmplFuse != 0 && i+1 < m && vpos <= n-maxFieldBytes {
				// Fused pair: the successor is statically another plain
				// register write, so decode it in the same iteration.
				t2 := &tmpls[pc+1]
				h2 := hdr[i+1]
				x2 := binary.LittleEndian.Uint64(blk[vpos : vpos+8])
				w2 := 1 << (h2 >> 1 & 3)
				s2 := uint(64 - w2<<3)
				vpos += w2
				v2 := int64(x2<<s2) >> s2
				ev2 := &evs[i+1]
				*ev2 = trace.Event{Index: base + uint64(i+1), PC: isa.Addr(pc + 1), Instr: t2.in}
				ev2.WroteReg, ev2.WrittenReg, ev2.WrittenVal = true, isa.Reg(t2.rd), v2
				pc += 2
				i += 2
				continue
			}
		} else if f&tmplHasMem != 0 { // store
			x := binary.LittleEndian.Uint64(blk[vpos : vpos+8])
			w := 1 << (h >> 1 & 3)
			s := uint(64 - w<<3)
			vpos += w
			c := h >> 3 & 3
			a := binary.LittleEndian.Uint64(blk[vpos:vpos+8]) & fieldMask[c]
			vpos += 1 << c
			ev.MemAddr = a
			ev.MemVal = int64(x<<s) >> s
		} else {
			if h&1 != 0 { // taken transfer
				tgt := uint64(t.target)
				if f&tmplRet != 0 {
					c := h >> 1 & 3
					tgt = binary.LittleEndian.Uint64(blk[vpos:vpos+8]) & fieldMask[c]
					vpos += 1 << c
				}
				ev.Taken, ev.Target = true, isa.Addr(tgt)
				next = tgt
			}
			if ctl != nil && f&tmplCtl != 0 {
				ctl[cn] = int32(i)
				cn++
			}
		}
		pc = next
		i++
	}
	hpos += i

	// Checked tail: the last few records of a block, plus anything a
	// corrupted stream throws at a prefix decode.
	for ; i < len(evs); i++ {
		if pc >= uint64(len(tmpls)) {
			return hpos, vpos, pc, cn, fmt.Errorf("%w: pc=%d at event %d", ErrCorrupt, pc, i)
		}
		if hpos >= hlim {
			return hpos, vpos, pc, cn, fmt.Errorf("%w: block truncated at event %d", ErrCorrupt, i)
		}
		t := &tmpls[pc]
		h := blk[hpos]
		hpos++
		ev := &evs[i]
		*ev = trace.Event{Index: base + uint64(i), PC: isa.Addr(pc), Instr: t.in}
		next := pc + 1
		f := t.flags
		if f&(tmplWroteReg|tmplHasMem) != 0 {
			if vpos+8 > n {
				return hpos, vpos, pc, cn, fmt.Errorf("%w: value at event %d", ErrCorrupt, i)
			}
			w := 1 << (h >> 1 & 3)
			s := uint(64 - w<<3)
			v := int64(binary.LittleEndian.Uint64(blk[vpos:vpos+8])<<s) >> s
			vpos += w
			if f&tmplWroteReg != 0 {
				ev.WroteReg, ev.WrittenReg, ev.WrittenVal = true, isa.Reg(t.rd), v
			}
			if f&tmplHasMem != 0 {
				if vpos+8 > n {
					return hpos, vpos, pc, cn, fmt.Errorf("%w: mem addr at event %d", ErrCorrupt, i)
				}
				c := h >> 3 & 3
				a := binary.LittleEndian.Uint64(blk[vpos:vpos+8]) & fieldMask[c]
				vpos += 1 << c
				ev.MemAddr, ev.MemVal = a, v
			}
		} else if h&1 != 0 {
			tgt := uint64(t.target)
			if f&tmplRet != 0 {
				if vpos+8 > n {
					return hpos, vpos, pc, cn, fmt.Errorf("%w: ret target at event %d", ErrCorrupt, i)
				}
				c := h >> 1 & 3
				tgt = binary.LittleEndian.Uint64(blk[vpos:vpos+8]) & fieldMask[c]
				vpos += 1 << c
			}
			ev.Taken, ev.Target = true, isa.Addr(tgt)
			next = tgt
		}
		if ctl != nil && f&tmplCtl != 0 {
			ctl[cn] = int32(i)
			cn++
		}
		pc = next
	}
	if full {
		if hpos != hlim {
			return hpos, vpos, pc, cn, fmt.Errorf("%w: %d unread header bytes in block", ErrCorrupt, hlim-hpos)
		}
		if vpos != n-blockPad {
			return hpos, vpos, pc, cn, fmt.Errorf("%w: %d trailing bytes in block", ErrCorrupt, n-blockPad-vpos)
		}
		for _, c := range blk[vpos:] {
			if c != 0 {
				return hpos, vpos, pc, cn, fmt.Errorf("%w: nonzero block padding", ErrCorrupt)
			}
		}
	}
	return hpos, vpos, pc, cn, nil
}

// decodeEventsCtl decodes len(evs) packed records from blk into
// control-plane events: it walks the header plane only, skipping over
// the field plane arithmetically (the 2-bit width codes say how many
// bytes each record spent without loading them). The single value-plane
// read left is the return target of ret records — the one control
// transfer whose destination is dynamic. ctl (len >= len(evs)) always
// receives the run-boundary indices; the count is returned.
//
// This path never re-validates the block tail — every block was
// full-decoded once at parse time (parseArchive / Commit) and Replay
// re-checks the block's CRC before decoding it, so a control-plane
// replay is working over bytes already proven well-formed.
// The offsets thread through successive calls exactly as in
// decodeEventsPacked, so full and ctl chunked decodes interleave
// identically with budget truncation.
func decodeEventsCtl(blk []byte, hpos, hlim, vpos int, pc uint64, evs []trace.CtlEvent, base uint64, tmpls []evTmpl, ctl []int32) (int, int, uint64, int, error) {
	n := len(blk)
	cn := 0
	hdr := blk[hpos:hlim]
	if len(hdr) < len(evs) {
		return hpos, vpos, pc, cn, fmt.Errorf("%w: block truncated at event %d", ErrCorrupt, len(hdr))
	}
	for i := 0; i < len(evs); i++ {
		if pc >= uint64(len(tmpls)) {
			return hpos + i, vpos, pc, cn, fmt.Errorf("%w: pc=%d at event %d", ErrCorrupt, pc, i)
		}
		t := &tmpls[pc]
		h := hdr[i]
		evs[i] = trace.CtlEvent{Index: base + uint64(i), PC: isa.Addr(pc), Instr: t.in}
		next := pc + 1
		if f := t.flags; f&(tmplWroteReg|tmplHasMem) != 0 {
			vpos += 1 << (h >> 1 & 3)
			if f&tmplHasMem != 0 {
				vpos += 1 << (h >> 3 & 3)
			} else if f&tmplFuse != 0 && i+1 < len(evs) {
				// Fused pair: the successor is statically another plain
				// register write, so spend its header byte in the same
				// iteration — the ctl analogue of the full decoder's pair
				// arm, with only width arithmetic on the field plane.
				evs[i+1] = trace.CtlEvent{Index: base + uint64(i+1),
					PC: isa.Addr(pc + 1), Instr: tmpls[pc+1].in}
				vpos += 1 << (hdr[i+1] >> 1 & 3)
				pc += 2
				i++
				continue
			}
		} else {
			if h&1 != 0 { // taken transfer
				tgt := uint64(t.target)
				if f&tmplRet != 0 {
					if vpos+8 > n {
						return hpos + i, vpos, pc, cn, fmt.Errorf("%w: ret target at event %d", ErrCorrupt, i)
					}
					c := h >> 1 & 3
					tgt = binary.LittleEndian.Uint64(blk[vpos:vpos+8]) & fieldMask[c]
					vpos += 1 << c
				}
				ev := &evs[i]
				ev.Taken, ev.Target = true, isa.Addr(tgt)
				next = tgt
			}
			if f&tmplCtl != 0 {
				ctl[cn] = int32(i)
				cn++
			}
		}
		pc = next
	}
	hpos += len(evs)
	if vpos > n-blockPad {
		return hpos, vpos, pc, cn, fmt.Errorf("%w: field plane overrun", ErrCorrupt)
	}
	return hpos, vpos, pc, cn, nil
}
