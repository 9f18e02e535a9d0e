package tracefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dynloop/internal/builder"
	"dynloop/internal/loopdet"
	"dynloop/internal/trace"
)

// buildArchUnit builds a nested-loop unit big enough to span several
// 64 KiB trace blocks, so truncation and torn-tail tests exercise real
// block boundaries.
func buildArchUnit(t testing.TB, name string) *builder.Unit {
	t.Helper()
	b := builder.New(name, 5)
	trip := b.UniformSeq(1, 7)
	b.MovI(24, builder.HeapBase)
	b.CountedLoop(builder.TripImm(2000), builder.LoopOpt{}, func() {
		b.CountedLoop(builder.TripSeq(trip), builder.LoopOpt{}, func() {
			b.WorkMem(6, 24, 8)
		})
	})
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// recordInto runs the unit into dir's archive under (name, seed 1) and
// returns the archive, the event count, the live control-flow hash and
// the halt flag.
func recordInto(t testing.TB, dir, name string, budget uint64) (*Archive, uint64, uint64, bool) {
	t.Helper()
	u := buildArchUnit(t, name)
	a, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := a.BeginRecord(name, 1, u.Prog)
	if err != nil {
		t.Fatal(err)
	}
	h := trace.NewHash()
	cpu := u.NewCPU()
	n, err := cpu.Run(budget, trace.Tee{rec, h})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Commit(cpu.Halted()); err != nil {
		t.Fatal(err)
	}
	return a, n, h.Sum, cpu.Halted()
}

// liveHash interprets the unit fresh at the given budget and returns
// the control-flow hash and count — the reference replay must match.
func liveHash(t testing.TB, name string, budget uint64) (uint64, uint64, bool) {
	t.Helper()
	u := buildArchUnit(t, name)
	h := trace.NewHash()
	cpu := u.NewCPU()
	n, err := cpu.Run(budget, h)
	if err != nil {
		t.Fatal(err)
	}
	return h.Sum, n, cpu.Halted()
}

// archFile returns the single archive file in dir.
func archFile(t testing.TB, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.dltrace"))
	if err != nil || len(names) != 1 {
		t.Fatalf("want exactly one archive file, got %v (%v)", names, err)
	}
	return names[0]
}

// TestArchiveRecordReplayRoundTrip: a committed recording must replay
// the exact stream, both from the committing process's index and from a
// cold re-open of the directory.
func TestArchiveRecordReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a, n, hash, halted := recordInto(t, dir, "arch", 0)
	if !halted {
		t.Fatal("workload did not halt")
	}
	check := func(a *Archive) {
		t.Helper()
		rec, ok := a.Lookup("arch", 1)
		if !ok {
			t.Fatal("recording not found")
		}
		if !rec.CanServe(0) || !rec.CanServe(n) {
			t.Fatal("halted recording must serve any budget")
		}
		h := trace.NewHash()
		got, gotHalted, err := rec.Replay(0, nil, h)
		if err != nil {
			t.Fatal(err)
		}
		if got != n || !gotHalted {
			t.Fatalf("replayed %d (halted=%v), want %d (halted=true)", got, gotHalted, n)
		}
		if h.Sum != hash {
			t.Fatalf("replay hash %x != live hash %x", h.Sum, hash)
		}
	}
	check(a)
	cold, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	check(cold)
	if st := cold.Stats(); st.Invalidated != 0 || st.SchemaSkips != 0 || st.TruncatedTail != 0 {
		t.Fatalf("clean archive reported recovery: %+v", st)
	}
}

// TestRoundTrip: a cold re-open of the archive must hand back the
// recording's identity and embedded program exactly as recorded, and
// replaying it must reproduce the exact stream (hash over control flow).
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	_, n, hash, _ := recordInto(t, dir, "arch", 0)
	u := buildArchUnit(t, "arch")

	a, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := a.Lookup("arch", 1)
	if !ok {
		t.Fatal("recording not found")
	}
	if rec.Bench() != "arch" || rec.Seed() != 1 || rec.Events() != n {
		t.Fatalf("recording identity: bench %q seed %d events %d, want arch 1 %d",
			rec.Bench(), rec.Seed(), rec.Events(), n)
	}
	p := rec.Program()
	if p.Name != u.Prog.Name || p.Entry != u.Prog.Entry || !reflect.DeepEqual(p.Code, u.Prog.Code) {
		t.Fatal("embedded program mismatch")
	}
	h := trace.NewHash()
	got, _, err := rec.Replay(0, nil, h)
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("replayed %d of %d events", got, n)
	}
	if h.Sum != hash {
		t.Fatalf("replay hash %x != live hash %x", h.Sum, hash)
	}
}

// TestArchivePrefixTruncation: a recording at budget B serves every
// B' ≤ B with the exact stream an interpreted run at B' produces —
// the tentpole's budget-prefix property.
func TestArchivePrefixTruncation(t *testing.T) {
	dir := t.TempDir()
	a, n, _, _ := recordInto(t, dir, "arch", 0)
	rec, ok := a.Lookup("arch", 1)
	if !ok {
		t.Fatal("recording not found")
	}
	for _, budget := range []uint64{1, 100, n / 3, n / 2, n - 1, n} {
		wantHash, wantN, wantHalted := liveHash(t, "arch", budget)
		if !rec.CanServe(budget) {
			t.Fatalf("budget %d: CanServe = false", budget)
		}
		h := trace.NewHash()
		gotN, gotHalted, err := rec.Replay(budget, nil, h)
		if err != nil {
			t.Fatal(err)
		}
		if gotN != wantN || gotHalted != wantHalted {
			t.Fatalf("budget %d: replay (%d, halted=%v), interpret (%d, halted=%v)",
				budget, gotN, gotHalted, wantN, wantHalted)
		}
		if h.Sum != wantHash {
			t.Fatalf("budget %d: replay hash %x != live hash %x", budget, h.Sum, wantHash)
		}
	}
}

// TestArchiveNonHaltedCoverage: a recording cut at budget B serves
// budgets ≤ B and refuses larger ones (and run-to-halt).
func TestArchiveNonHaltedCoverage(t *testing.T) {
	dir := t.TempDir()
	_, full, _, _ := recordInto(t, t.TempDir(), "arch", 0)
	budget := full / 2
	a, n, _, halted := recordInto(t, dir, "arch", budget)
	if halted || n != budget {
		t.Fatalf("recorded %d halted=%v, want %d halted=false", n, halted, budget)
	}
	rec, _ := a.Lookup("arch", 1)
	if !rec.CanServe(budget) || !rec.CanServe(1) {
		t.Fatal("recording must serve its own prefix")
	}
	if rec.CanServe(budget+1) || rec.CanServe(0) {
		t.Fatal("non-halted recording must not serve beyond its events")
	}
}

// TestArchiveTornTailRecovers: a crash mid-append tears the newest
// file; Open must repair it to the intact block prefix, which then
// serves smaller budgets exactly.
func TestArchiveTornTailRecovers(t *testing.T) {
	for _, cutBack := range []int{3, 0} {
		dir := t.TempDir()
		_, n, _, _ := recordInto(t, dir, "arch", 0)
		path := archFile(t, dir)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cut := len(data) - 3
		if cutBack == 0 {
			cut = len(data) / 2
		}
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		a, err := OpenArchive(dir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if st := a.Stats(); st.TruncatedTail == 0 {
			t.Fatalf("cut %d: no torn tail counted: %+v", cut, st)
		}
		rec, ok := a.Lookup("arch", 1)
		if !ok {
			t.Fatalf("cut %d: prefix recording lost", cut)
		}
		if rec.Halted() {
			t.Fatalf("cut %d: repaired recording claims halted", cut)
		}
		if rec.Events() == 0 || rec.Events() > n {
			t.Fatalf("cut %d: repaired recording has %d events (full run %d)", cut, rec.Events(), n)
		}
		budget := rec.Events()
		wantHash, wantN, _ := liveHash(t, "arch", budget)
		h := trace.NewHash()
		gotN, _, err := rec.Replay(budget, nil, h)
		if err != nil {
			t.Fatal(err)
		}
		if gotN != wantN || h.Sum != wantHash {
			t.Fatalf("cut %d: repaired prefix diverges from interpretation", cut)
		}
		// The repair rewrote the file: a second open must be clean.
		again, err := OpenArchive(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st := again.Stats(); st.TruncatedTail != 0 {
			t.Fatalf("cut %d: repair did not stick: %+v", cut, st)
		}
		if r2, ok := again.Lookup("arch", 1); !ok || r2.Events() != rec.Events() {
			t.Fatalf("cut %d: repaired file reload mismatch", cut)
		}
	}
}

// TestTruncation: every cut of the newest recording — inside the
// magic, the header, a block or the trailer — either drops the file
// (torn inside the header) or repairs it to a prefix that replays
// exactly what interpretation produces; never a silent wrong stream.
func TestTruncation(t *testing.T) {
	full := t.TempDir()
	recordInto(t, full, "arch", 0)
	data, err := os.ReadFile(archFile(t, full))
	if err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for _, cut := range []int{0, 3, len(magicArch), len(magicArch) + 5, len(data) / 2, len(data) - 1} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(archFile(t, full))), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		a, err := OpenArchive(dir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		rec, ok := a.Lookup("arch", 1)
		if !ok {
			continue // torn inside the header: nothing salvageable
		}
		if rec.Halted() {
			t.Fatalf("cut %d: repaired recording claims halted", cut)
		}
		wantHash, wantN, _ := liveHash(t, "arch", rec.Events())
		h := trace.NewHash()
		gotN, _, err := rec.Replay(rec.Events(), nil, h)
		if err != nil {
			t.Fatal(err)
		}
		if gotN != wantN || h.Sum != wantHash {
			t.Fatalf("cut %d: repaired prefix diverges from interpretation", cut)
		}
		recovered++
	}
	if recovered < 2 {
		t.Fatalf("only %d cuts recovered a prefix; the block and trailer cuts must", recovered)
	}
}

// TestArchiveTornNonNewestErrors: a torn frame on anything but the
// newest file is not a crash tail — it is corruption and must surface
// as a typed error.
func TestArchiveTornNonNewestErrors(t *testing.T) {
	dir := t.TempDir()
	recordInto(t, dir, "alpha", 0)
	pathA := archFile(t, dir)
	_, _, _, _ = recordInto(t, dir, "beta", 0)
	data, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pathA, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	// Make the torn file unambiguously older (WriteFile refreshed its
	// mtime, which would have made it the repairable newest file).
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(pathA, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenArchive(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// firstBlockPayloadOffset walks the header the same way the parser does
// and returns the offset of the first block's first payload byte.
func firstBlockPayloadOffset(t *testing.T, data []byte) int {
	t.Helper()
	br := bytes.NewReader(data[len(magicArch):])
	if _, err := binary.ReadUvarint(br); err != nil { // version
		t.Fatal(err)
	}
	bl, err := binary.ReadUvarint(br)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.CopyN(io.Discard, br, int64(bl)); err != nil {
		t.Fatal(err)
	}
	if _, err := binary.ReadUvarint(br); err != nil { // seed
		t.Fatal(err)
	}
	if _, err := readProgram(br); err != nil {
		t.Fatal(err)
	}
	if b, err := br.ReadByte(); err != nil || b != tagBlock {
		t.Fatalf("expected a block frame, got %#x (%v)", b, err)
	}
	if _, err := binary.ReadUvarint(br); err != nil { // count
		t.Fatal(err)
	}
	if _, err := binary.ReadUvarint(br); err != nil { // size
		t.Fatal(err)
	}
	if _, err := binary.ReadUvarint(br); err != nil { // start pc
		t.Fatal(err)
	}
	return len(data) - br.Len() + 4 // skip the CRC
}

// TestArchiveBlockCorruptionFallsBackAndReRecords: a bit flip inside a
// CRC-framed block invalidates just that recording — Open succeeds, the
// lookup misses (so the runner falls back to interpretation), and a
// re-record atomically replaces the damaged file.
func TestArchiveBlockCorruptionFallsBackAndReRecords(t *testing.T) {
	dir := t.TempDir()
	_, n, hash, _ := recordInto(t, dir, "arch", 0)
	path := archFile(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[firstBlockPayloadOffset(t, data)] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := OpenArchive(dir)
	if err != nil {
		t.Fatalf("block damage must not fail Open: %v", err)
	}
	if _, ok := a.Lookup("arch", 1); ok {
		t.Fatal("damaged recording served")
	}
	if st := a.Stats(); st.Invalidated != 1 {
		t.Fatalf("Invalidated = %d, want 1", st.Invalidated)
	}
	// Fallback path: the caller interprets again and re-records.
	u := buildArchUnit(t, "arch")
	rec, err := a.BeginRecord("arch", 1, u.Prog)
	if err != nil {
		t.Fatal(err)
	}
	cpu := u.NewCPU()
	if _, err := cpu.Run(0, rec); err != nil {
		t.Fatal(err)
	}
	if err := rec.Commit(cpu.Halted()); err != nil {
		t.Fatal(err)
	}
	fresh, ok := a.Lookup("arch", 1)
	if !ok {
		t.Fatal("re-record did not install")
	}
	h := trace.NewHash()
	got, _, err := fresh.Replay(0, nil, h)
	if err != nil {
		t.Fatal(err)
	}
	if got != n || h.Sum != hash {
		t.Fatalf("re-recorded stream diverges: %d events hash %x, want %d hash %x", got, h.Sum, n, hash)
	}
	// And on disk: the damaged file was replaced by the clean one.
	if again, err := OpenArchive(dir); err != nil {
		t.Fatal(err)
	} else if st := again.Stats(); st.Invalidated != 0 || st.Recordings != 1 {
		t.Fatalf("re-record did not replace the damaged file: %+v", st)
	}
}

// flipAt XORs one byte of the file at path in place, so a reader that
// already holds the file open sees the change.
func flipAt(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestReplayDetectsCorruptionAfterOpen: blocks are read back from the
// file on every replay, so a byte flipped inside a block after Open
// (or Commit) fails both replay planes with ErrCorrupt instead of
// delivering a wrong stream, as does a file cut short under the reader.
func TestReplayDetectsCorruptionAfterOpen(t *testing.T) {
	dir := t.TempDir()
	a, _, _, _ := recordInto(t, dir, "arch", 0)
	rec, ok := a.Lookup("arch", 1)
	if !ok {
		t.Fatal("recording not found")
	}
	path := archFile(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipAt(t, path, int64(firstBlockPayloadOffset(t, data)))
	for name, sink := range map[string]trace.BatchConsumer{
		"ctl":  trace.NewHash(),
		"full": trace.ForceFullPlane(trace.NewHash()),
	} {
		n, _, err := rec.Replay(0, nil, sink)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if n != 0 {
			t.Fatalf("%s: delivered %d events from a damaged first block", name, n)
		}
	}

	// Restore the byte, then cut the file inside its last block.
	flipAt(t, path, int64(firstBlockPayloadOffset(t, data)))
	if _, _, err := rec.Replay(0, nil, trace.NewHash()); err != nil {
		t.Fatalf("restored file: %v", err)
	}
	if err := os.Truncate(path, int64(len(data))-blockPad-trailerLen(rec.Events())); err != nil {
		t.Fatal(err)
	}
	n, _, err := rec.Replay(0, nil, trace.NewHash())
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated file: err = %v, want ErrCorrupt", err)
	}
	if n == 0 || n >= rec.Events() {
		t.Fatalf("truncated file: delivered %d of %d events, want the intact blocks only", n, rec.Events())
	}
}

// TestReplayOutlivesReRecord: a re-record installs a new file under the
// same name; a recording loaded before it keeps replaying the old bytes
// through its own handle, and invalidating it leaves the new one loaded.
func TestReplayOutlivesReRecord(t *testing.T) {
	dir := t.TempDir()
	a, n, hash, _ := recordInto(t, dir, "arch", 0)
	old, _ := a.Lookup("arch", 1)
	u := buildArchUnit(t, "arch")
	rec, err := a.BeginRecord("arch", 1, u.Prog)
	if err != nil {
		t.Fatal(err)
	}
	cpu := u.NewCPU()
	if _, err := cpu.Run(n/2, rec); err != nil {
		t.Fatal(err)
	}
	if err := rec.Commit(cpu.Halted()); err != nil {
		t.Fatal(err)
	}
	fresh, _ := a.Lookup("arch", 1)
	if fresh == old || fresh.Events() != n/2 {
		t.Fatal("re-record did not install the new recording")
	}
	h := trace.NewHash()
	got, _, err := old.Replay(0, nil, h)
	if err != nil || got != n || h.Sum != hash {
		t.Fatalf("old recording after re-record: %d events hash %x err %v, want %d hash %x", got, h.Sum, err, n, hash)
	}
	// A late failure on the stale recording must not drop the fresh one.
	a.Invalidate(old)
	if cur, ok := a.Lookup("arch", 1); !ok || cur != fresh {
		t.Fatal("invalidating the replaced recording dropped its successor")
	}
	a.Invalidate(fresh)
	if _, ok := a.Lookup("arch", 1); ok {
		t.Fatal("invalidating the current recording left it loaded")
	}
}

// TestArchiveCloseReleasesHandles: every loaded recording holds its
// file open; Close releases them all, so opening and closing an
// 18-recording archive repeatedly leaves the descriptor count flat.
func TestArchiveCloseReleasesHandles(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd on this platform")
	}
	dir := t.TempDir()
	for i := 0; i < 18; i++ {
		a, _, _, _ := recordInto(t, dir, fmt.Sprintf("b%02d", i), 2_000)
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
	}
	fds := func() int {
		t.Helper()
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	before := fds()
	for i := 0; i < 50; i++ {
		a, err := OpenArchive(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.Stats().Recordings; got != 18 {
			t.Fatalf("open %d: %d recordings, want 18", i, got)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if _, ok := a.Lookup("b00", 1); ok {
			t.Fatal("closed archive still serves a recording")
		}
	}
	if after := fds(); after > before {
		t.Fatalf("open file descriptors grew from %d to %d over 50 open/close cycles", before, after)
	}
}

// TestArchiveStructuralCorruptionErrors: damage outside the recoverable
// cases (torn newest tail, block damage) is a typed error.
func TestArchiveStructuralCorruptionErrors(t *testing.T) {
	mutate := map[string]func([]byte) []byte{
		"bad magic":      func(d []byte) []byte { d[2] ^= 0xFF; return d },
		"trailing bytes": func(d []byte) []byte { return append(d, "junk!"...) },
	}
	for name, fn := range mutate {
		dir := t.TempDir()
		recordInto(t, dir, "arch", 0)
		path := archFile(t, dir)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data = fn(append([]byte(nil), data...))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenArchive(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestBadMagic: a foreign file in the archive directory is structural
// damage, not a recording — also when it is shorter than the magic and
// so could pass for a tear inside it.
func TestBadMagic(t *testing.T) {
	for _, data := range []string{"not a trace file at all", "junk"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "foreign.dltrace"), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenArchive(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%q: err = %v, want ErrCorrupt", data, err)
		}
	}
}

// TestCorruptTrailerCount: a trailer whose event count disagrees with
// the blocks before it is structural damage, not a torn tail.
func TestCorruptTrailerCount(t *testing.T) {
	dir := t.TempDir()
	recordInto(t, dir, "arch", 0)
	path := archFile(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The trailer ends with the count's last varint byte, then the
	// halted flag; flip the count's low bit.
	data[len(data)-2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenArchive(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestReplayDrivesDetector: detector results from a replayed recording
// must equal detector results from live execution.
func TestReplayDrivesDetector(t *testing.T) {
	a, _, _, _ := recordInto(t, t.TempDir(), "arch", 0)
	u := buildArchUnit(t, "arch")
	live := loopdet.New(loopdet.Config{Capacity: 16})
	if _, err := u.NewCPU().Run(0, live); err != nil {
		t.Fatal(err)
	}
	live.Flush()

	rec, ok := a.Lookup("arch", 1)
	if !ok {
		t.Fatal("recording not found")
	}
	replayed := loopdet.New(loopdet.Config{Capacity: 16})
	if _, _, err := rec.Replay(0, nil, replayed); err != nil {
		t.Fatal(err)
	}
	replayed.Flush()

	if live.Stats() != replayed.Stats() {
		t.Fatalf("detector stats diverge:\nlive:   %+v\nreplay: %+v",
			live.Stats(), replayed.Stats())
	}
}

// TestArchiveSchemaBumpMisses: recordings written under a different
// ArchiveSchemaVersion must miss cleanly — never replay a stale stream
// (the parallel of the store's cellSchemaVersion bump test).
func TestArchiveSchemaBumpMisses(t *testing.T) {
	dir := t.TempDir()
	recordInto(t, dir, "arch", 0)
	orig := ArchiveSchemaVersion
	defer func() { ArchiveSchemaVersion = orig }()
	ArchiveSchemaVersion = orig + 1
	a, err := OpenArchive(dir)
	if err != nil {
		t.Fatalf("schema skew must be a clean miss, got %v", err)
	}
	if _, ok := a.Lookup("arch", 1); ok {
		t.Fatal("stale-schema recording served")
	}
	if st := a.Stats(); st.SchemaSkips != 1 {
		t.Fatalf("SchemaSkips = %d, want 1", st.SchemaSkips)
	}
	// Back on the original version the file serves again.
	ArchiveSchemaVersion = orig
	a2, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a2.Lookup("arch", 1); !ok {
		t.Fatal("recording lost after restoring the schema version")
	}
}

// TestReplayZeroAllocs pins the replay hot loop at zero allocations per
// run once the decoder is warm — the property that makes replay a pure
// decode.
func TestReplayZeroAllocs(t *testing.T) {
	dir := t.TempDir()
	a, _, _, _ := recordInto(t, dir, "arch", 0)
	rec, ok := a.Lookup("arch", 1)
	if !ok {
		t.Fatal("recording not found")
	}
	d := &Decoder{}
	h := trace.NewHash()
	if _, _, err := rec.Replay(0, d, h); err != nil { // warm the decoder
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := rec.Replay(0, d, h); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("replay hot loop allocates %v per run, want 0", allocs)
	}
}

// FuzzReplayArchive mirrors the store's FuzzScanSegment: the archive
// parser must classify ANY byte stream without panicking, and whatever
// it accepts must replay exactly (full and prefix).
func FuzzReplayArchive(f *testing.F) {
	// Keep the seed archive small (but still multi-block) so each fuzz
	// exec parses and replays in microseconds, not milliseconds.
	dir := f.TempDir()
	recordInto(f, dir, "arch", 10_000)
	names, err := filepath.Glob(filepath.Join(dir, "*.dltrace"))
	if err != nil || len(names) != 1 {
		f.Fatalf("seed archive: %v (%v)", names, err)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(data[:len(magicArch)+3])
	f.Add([]byte{})
	f.Add([]byte(magicArch))
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, _, err := parseArchive(bytes.NewReader(b), int64(len(b)))
		if err != nil || rec == nil {
			return
		}
		h := trace.NewHash()
		n, _, err := rec.Replay(0, nil, h)
		if err != nil {
			t.Fatalf("validated recording failed replay: %v", err)
		}
		if n != rec.Events() {
			t.Fatalf("replayed %d of %d events", n, rec.Events())
		}
		// Plane differential: the header-plane-only decode (Hash is a
		// control-only sink) and the full decode must agree on any
		// accepted input.
		fh := trace.NewHash()
		fn, _, err := rec.Replay(0, nil, trace.ForceFullPlane(fh))
		if err != nil || fn != n || fh.Sum != h.Sum {
			t.Fatalf("plane divergence: ctl n=%d sum=%x, full n=%d sum=%x err=%v", n, h.Sum, fn, fh.Sum, err)
		}
		if _, _, err := rec.Replay(rec.Events()/2+1, nil, nil); err != nil {
			t.Fatalf("prefix replay failed: %v", err)
		}
	})
}
