package tracefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"dynloop/internal/builder"
	"dynloop/internal/interp"
	"dynloop/internal/isa"
	"dynloop/internal/program"
	"dynloop/internal/trace"
)

// ctlSink accepts only control-plane delivery; ConsumeBatch panicking
// proves Replay dispatched to the control-plane walk. It checks the
// sparse-delivery contract as batches arrive — each first equals the
// previous end, and every transfer is a run-ending kind inside its
// batch's range, in stream order — and keeps the first violation.
type ctlSink struct {
	xs []trace.CtlEvent
	// end is the last batch's end: with contiguous batches from index 0
	// it equals Σ(end−first), the events the batches cover.
	end   uint64
	empty int // batches that carried no transfer
	bad   string
}

func (s *ctlSink) ConsumeBatch([]trace.Event) {
	panic("full-plane delivery to a control-only sink")
}

func (s *ctlSink) ConsumeCtlBatch(xs []trace.CtlEvent, first, end uint64) {
	if len(xs) == 0 {
		s.empty++
	}
	if s.bad == "" && (first != s.end || end <= first) {
		s.bad = fmt.Sprintf("batch [%d, %d) after a batch ending at %d", first, end, s.end)
	}
	for _, x := range xs {
		out := x.Index < first || x.Index >= end || !x.Instr.Kind.EndsRun()
		if n := len(s.xs); n > 0 && x.Index <= s.xs[n-1].Index {
			out = true
		}
		if s.bad == "" && out {
			s.bad = fmt.Sprintf("batch [%d, %d) carries %+v", first, end, x)
		}
		s.xs = append(s.xs, x)
	}
	s.end = end
}

// transfers projects a full event stream onto the control plane.
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

// checkCtlReplay replays r at budget on the control plane and asserts
// well-formed batches covering exactly the events a full replay of the
// same budget delivers, carrying exactly its transfers.
func checkCtlReplay(t *testing.T, what string, r *Recording, budget uint64) *ctlSink {
	t.Helper()
	full := &trace.Recorder{}
	fn, fh, err := r.Replay(budget, nil, full)
	if err != nil {
		t.Fatal(err)
	}
	cs := &ctlSink{}
	n, halted, err := r.Replay(budget, nil, cs)
	if err != nil || n != fn || halted != fh {
		t.Fatalf("%s: ctl replay n=%d halted=%v err=%v, full n=%d halted=%v", what, n, halted, err, fn, fh)
	}
	if cs.bad != "" {
		t.Fatalf("%s: %s", what, cs.bad)
	}
	if cs.end != n {
		t.Fatalf("%s: batches cover %d events, %d replayed", what, cs.end, n)
	}
	want := transfers(full.Events)
	if len(cs.xs) != len(want) {
		t.Fatalf("%s: %d transfers, full decode has %d", what, len(cs.xs), len(want))
	}
	for i := range want {
		if cs.xs[i] != want[i] {
			t.Fatalf("%s: transfer %d differs:\nctl  %+v\nfull %+v", what, i, cs.xs[i], want[i])
		}
	}
	return cs
}

// buildCallUnit is buildArchUnit with subroutines: nested loops whose
// body calls a function that loops over calls to a leaf, so the shadow
// call stack the control-plane walk keeps runs across block boundaries.
func buildCallUnit(t testing.TB) *builder.Unit {
	t.Helper()
	b := builder.New("calls", 5)
	trip := b.UniformSeq(1, 5)
	leaf := b.Func("leaf", func() { b.Work(3) })
	mid := b.Func("mid", func() {
		b.CountedLoop(builder.TripSeq(trip), builder.LoopOpt{}, func() { b.Call(leaf) })
	})
	b.MovI(24, builder.HeapBase)
	b.CountedLoop(builder.TripImm(1500), builder.LoopOpt{}, func() {
		b.WorkMem(6, 24, 8)
		b.Call(mid)
	})
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// recordUnit records a unit at budget into a fresh archive.
func recordUnit(t *testing.T, name string, prog *program.Program, cpu *interp.CPU, budget uint64) *Recording {
	t.Helper()
	a, err := OpenArchive(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := a.BeginRecord(name, 1, prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cpu.Run(budget, rec); err != nil {
		t.Fatal(err)
	}
	if err := rec.Commit(cpu.Halted()); err != nil {
		t.Fatal(err)
	}
	r, ok := a.Lookup(name, 1)
	if !ok {
		t.Fatal("recording not installed")
	}
	return r
}

// TestReplayCtlEventIdentical: the control-plane replay path must
// deliver exactly the transfers of the full decode, over batches that
// tile the replayed events — over multi-block recordings with and
// without calls, and at budgets that cut mid-block. This is the
// lazy-materialization differential: the walk hops straight-line runs
// without reading their header bytes and takes ret targets from its
// shadow call stack, and any drift corrupts the PC chain this test
// checks transfer by transfer.
func TestReplayCtlEventIdentical(t *testing.T) {
	u := buildArchUnit(t, "ctlid")
	cu := buildCallUnit(t)
	for _, r := range []*Recording{
		recordUnit(t, "ctlid", u.Prog, u.NewCPU(), 120_000),
		recordUnit(t, "calls", cu.Prog, cu.NewCPU(), 0),
	} {
		if len(r.blocks) < 2 {
			t.Fatalf("%s: want a multi-block recording, got %d block(s)", r.bench, len(r.blocks))
		}
		checkCtlReplay(t, r.bench, r, 0)
		// A budget cutting into the middle of a block yields the exact prefix.
		checkCtlReplay(t, r.bench+" prefix", r, r.events/2+13)

		// ForceFullPlane pushes the same consumer stack back onto the full
		// decoder; the hash must not care which plane delivered.
		h1, h2 := trace.NewHash(), trace.NewHash()
		if _, _, err := r.Replay(0, nil, h1); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.Replay(0, nil, trace.ForceFullPlane(h2)); err != nil {
			t.Fatal(err)
		}
		if h1.Sum != h2.Sum {
			t.Fatalf("%s: ctl hash %x != forced-full hash %x", r.bench, h1.Sum, h2.Sum)
		}
	}
}

// TestReplayCtlSparseEdges pins the edges of the control-plane walk: a
// recording with no transfer replays as batches carrying none, a budget
// that ends inside a straight-line run closes its batch there, and a
// straight-line run longer than evTmpl.run's uint16 range is hopped in
// saturated steps without losing count.
func TestReplayCtlSparseEdges(t *testing.T) {
	record := func(name string, code ...isa.Instr) *Recording {
		p := &program.Program{Name: name, Code: code}
		return recordUnit(t, name, p, interp.New(p), 0)
	}

	flat := record("flat", isa.MovI(1, 3), isa.AddI(1, 1, 1), isa.Nop(), isa.Halt())
	if cs := checkCtlReplay(t, "flat", flat, 0); cs.empty != 1 || len(cs.xs) != 0 {
		t.Fatalf("flat: %d empty batches, %d transfers; want 1, 0", cs.empty, len(cs.xs))
	}

	code := []isa.Instr{isa.MovI(1, 2)}
	for len(code) < 70_001 {
		code = append(code, isa.Nop())
	}
	code = append(code, isa.AddI(1, 1, -1), isa.Branch(isa.CondNEZ, 1, 1), isa.Halt())
	long := record("long", code...)
	if run := long.tmpls[1].run; run != 65535 {
		t.Fatalf("run length at pc 1 = %d, want the saturated 65535", run)
	}
	if run := long.tmpls[1+65535].run; run != 70_001-65535 {
		t.Fatalf("run length after the saturated hop = %d, want %d", run, 70_001-65535)
	}
	// Budgets: the whole stream; inside the first run, before the
	// saturation point and past it; inside the second trip's run.
	for _, budget := range []uint64{0, 100, 65_600, 70_010, 100_000} {
		cs := checkCtlReplay(t, fmt.Sprintf("long budget=%d", budget), long, budget)
		if budget != 0 && budget < 70_002 && cs.empty == 0 {
			t.Fatalf("long budget=%d: a cut before the first transfer must end in a batch without one", budget)
		}
	}
}

// TestReplayCtlZeroAllocs pins BOTH replay planes at zero allocations
// per run once the decoder is warm.
func TestReplayCtlZeroAllocs(t *testing.T) {
	dir := t.TempDir()
	a, _, _, _ := recordInto(t, dir, "arch", 0)
	rec, ok := a.Lookup("arch", 1)
	if !ok {
		t.Fatal("recording not found")
	}
	cu := buildCallUnit(t)
	calls := recordUnit(t, "calls", cu.Prog, cu.NewCPU(), 0)
	d := &Decoder{}
	h := trace.NewHash()
	fh := trace.ForceFullPlane(trace.NewHash())
	for _, leg := range []struct {
		name string
		run  func()
	}{
		{"ctl", func() {
			if _, _, err := rec.Replay(0, d, h); err != nil {
				t.Fatal(err)
			}
		}},
		{"ctl-calls", func() {
			if _, _, err := calls.Replay(0, d, h); err != nil {
				t.Fatal(err)
			}
		}},
		{"full", func() {
			if _, _, err := rec.Replay(0, d, fh); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		leg.run() // warm the decoder's plane buffers
		if allocs := testing.AllocsPerRun(10, leg.run); allocs != 0 {
			t.Fatalf("%s replay hot loop allocates %v per run, want 0", leg.name, allocs)
		}
	}
}

// TestReplayIgnoresNonControlTakenBit: the taken bit means something
// only on control instructions. The control-plane walk never reads the
// header byte of a straight-line instruction, so the full decoder must
// not act on it either: a recording whose nop header has bit 0 set
// (block CRC recomputed) still validates and replays the same transfers
// on both planes.
func TestReplayIgnoresNonControlTakenBit(t *testing.T) {
	p := &program.Program{Name: "nopbit", Code: []isa.Instr{
		isa.MovI(1, 2),                // 0
		isa.Nop(),                     // 1: loop head
		isa.AddI(1, 1, -1),            // 2
		isa.Branch(isa.CondNEZ, 1, 1), // 3
		isa.Halt(),                    // 4
	}}
	r := recordUnit(t, "nopbit", p, interp.New(p), 0)
	data := make([]byte, r.size)
	if _, err := r.src.ReadAt(data, 0); err != nil {
		t.Fatal(err)
	}
	b := r.blocks[0]
	payload := data[b.off : b.off+int64(b.size)]
	if payload[1] != 0 { // event 1 is the nop; headers come first
		t.Fatalf("nop header = %#x, want 0", payload[1])
	}
	payload[1] = 1
	binary.LittleEndian.PutUint32(data[b.off-4:], crc32.ChecksumIEEE(payload))
	bad, tornAt, err := parseArchive(bytes.NewReader(data), int64(len(data)))
	if err != nil || tornAt >= 0 {
		t.Fatalf("parse: torn at %d, %v", tornAt, err)
	}
	checkCtlReplay(t, "nopbit", bad, 0)
	want, got := &trace.Recorder{}, &trace.Recorder{}
	if _, _, err := r.Replay(0, nil, want); err != nil {
		t.Fatal(err)
	}
	if _, _, err := bad.Replay(0, nil, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, want.Events) {
		t.Fatal("a taken bit on a nop changed the full decode")
	}
}

// recordBits records a five-trip countdown loop — one block whose
// branch-bit section is the single byte 0b01111 (four taken back edges,
// then the exit) — and returns the archive and the recorder's program.
func recordBits(t *testing.T, dir string) (*Archive, *program.Program) {
	t.Helper()
	p := &program.Program{Name: "bits", Code: []isa.Instr{
		isa.MovI(1, 5),                // 0
		isa.AddI(1, 1, -1),            // 1: loop head
		isa.Branch(isa.CondNEZ, 1, 1), // 2
		isa.Halt(),                    // 3
	}}
	a, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := a.BeginRecord("bits", 1, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := interp.New(p).Run(0, rec); err != nil {
		t.Fatal(err)
	}
	if err := rec.Commit(true); err != nil {
		t.Fatal(err)
	}
	return a, p
}

// TestBranchBitsInvariant: control-plane replay reads branch outcomes
// only from the branch-bit section, so validation must reject a block
// whose bits disagree with the recorded outcomes, whose bit count is not
// its branch count (in either direction) or whose unused high bits are
// set. Each damage, with both block CRCs recomputed, must invalidate the
// file at Open; the same damage to a Recorder's pending block must fail
// Commit.
func TestBranchBitsInvariant(t *testing.T) {
	cases := []struct {
		name   string
		reason string
		// file damages an archive image whose only block is b; pending
		// damages a Recorder's unflushed block the same way.
		file    func(data []byte, b blockRef)
		pending func(rec *Recorder)
	}{
		{"flipped bit", "disagrees with the recorded outcome",
			func(data []byte, b blockRef) { data[b.bitsOff] ^= 1 },
			func(rec *Recorder) { rec.bits[0] ^= 1 }},
		// The branch count is the one-byte uvarint just before the two
		// CRCs; 5 → 6 keeps the section one byte and adds a zero bit.
		{"extra bit", "5 branches",
			func(data []byte, b blockRef) { data[b.off-9]++ },
			func(rec *Recorder) { rec.nbits++ }},
		{"missing bit", "more branches than",
			func(data []byte, b blockRef) { data[b.off-9]-- },
			func(rec *Recorder) { rec.nbits-- }},
		{"pad bit", "nonzero pad bits",
			func(data []byte, b blockRef) { data[b.bitsOff] |= 0x80 },
			func(rec *Recorder) { rec.bits[0] |= 0x80 }},
	}
	for _, c := range cases {
		dir := t.TempDir()
		a, p := recordBits(t, dir)
		r, _ := a.Lookup("bits", 1)
		if len(r.blocks) != 1 {
			t.Fatalf("want one block, got %d", len(r.blocks))
		}
		b := r.blocks[0]
		a.Close()
		path := archFile(t, dir)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if nb := data[b.off-9]; b.bitsSize != 1 || data[b.bitsOff] != 0b01111 || nb != 5 {
			t.Fatalf("branch bits %#b (%d bits, %d bytes), want 0b01111 in 5 bits, 1 byte", data[b.bitsOff], nb, b.bitsSize)
		}
		c.file(data, b)
		bits := data[b.bitsOff : b.bitsOff+int64(b.bitsSize)]
		binary.LittleEndian.PutUint32(data[b.off-8:], crc32.ChecksumIEEE(bits))
		binary.LittleEndian.PutUint32(data[b.off-4:], crc32.ChecksumIEEE(data[b.off:b.off+int64(b.size)]))
		if _, _, err := parseArchive(bytes.NewReader(data), int64(len(data))); !errors.Is(err, errInvalid) || !strings.Contains(err.Error(), c.reason) {
			t.Fatalf("%s: parse err = %v, want errInvalid for %q", c.name, err, c.reason)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cold, err := OpenArchive(dir)
		if err != nil {
			t.Fatalf("%s: damaged branch bits must not fail Open: %v", c.name, err)
		}
		if _, ok := cold.Lookup("bits", 1); ok {
			t.Fatalf("%s: recording with damaged branch bits served", c.name)
		}
		if st := cold.Stats(); st.Invalidated != 1 {
			t.Fatalf("%s: Invalidated = %d, want 1", c.name, st.Invalidated)
		}

		rec, err := cold.BeginRecord("bits", 2, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := interp.New(p).Run(0, rec); err != nil {
			t.Fatal(err)
		}
		c.pending(rec)
		if err := rec.Commit(true); err == nil || !strings.Contains(err.Error(), c.reason) {
			t.Fatalf("%s: Commit err = %v, want a failed validation for %q", c.name, err, c.reason)
		}
		cold.Close()
	}
}

// countingReaderAt counts the bytes read through it.
type countingReaderAt struct {
	r io.ReaderAt
	n int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.n += int64(n)
	return n, err
}

// TestReplayCtlReadsOnlyBranchBits: a control-plane replay reads
// exactly the branch-bit sections of the blocks it touches — the whole
// section of a block a budget cuts — and never a payload byte; a
// full-plane replay reads exactly the payloads.
func TestReplayCtlReadsOnlyBranchBits(t *testing.T) {
	dir := t.TempDir()
	recordInto(t, dir, "arch", 0)
	data, err := os.ReadFile(archFile(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	src := &countingReaderAt{r: bytes.NewReader(data)}
	r, _, err := parseArchive(src, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.blocks) < 3 {
		t.Fatalf("want at least 3 blocks, got %d", len(r.blocks))
	}
	var bitsAll, payloadAll, bits3 int64
	for i, b := range r.blocks {
		bitsAll += int64(b.bitsSize)
		payloadAll += int64(b.size)
		if i < 3 {
			bits3 += int64(b.bitsSize)
		}
	}
	for _, leg := range []struct {
		name   string
		budget uint64
		sink   trace.BatchConsumer
		want   int64
	}{
		{"ctl", 0, trace.NewHash(), bitsAll},
		{"ctl, budget inside block 2", r.blocks[0].count + r.blocks[1].count + 1, trace.NewHash(), bits3},
		{"full", 0, trace.ForceFullPlane(trace.NewHash()), payloadAll},
	} {
		src.n = 0
		if _, _, err := r.Replay(leg.budget, nil, leg.sink); err != nil {
			t.Fatal(err)
		}
		if src.n != leg.want {
			t.Fatalf("%s: read %d bytes, want %d", leg.name, src.n, leg.want)
		}
	}
}

// TestReplayCtlDecoderSizedToBitSections: a Decoder that only serves
// control-plane replays grows its block buffer to the largest branch-bit
// section, not the largest payload, and never allocates full events.
func TestReplayCtlDecoderSizedToBitSections(t *testing.T) {
	dir := t.TempDir()
	a, _, _, _ := recordInto(t, dir, "arch", 0)
	r, _ := a.Lookup("arch", 1)
	maxBits := 0
	for _, b := range r.blocks {
		maxBits = max(maxBits, int(b.bitsSize))
	}
	if maxBits == 0 || 8*maxBits >= r.maxBlock {
		t.Fatalf("largest branch-bit section %d bytes, payload %d: want a small nonzero section", maxBits, r.maxBlock)
	}
	var d Decoder
	if _, _, err := r.Replay(0, &d, trace.NewHash()); err != nil {
		t.Fatal(err)
	}
	if cap(d.blk) != maxBits || d.evs != nil {
		t.Fatalf("ctl-only decoder: block buffer %d bytes (want %d), full events allocated: %v", cap(d.blk), maxBits, d.evs != nil)
	}
}
