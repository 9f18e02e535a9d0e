package harness

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dynloop/internal/builder"
	"dynloop/internal/isa"
	"dynloop/internal/loopdet"
	"dynloop/internal/loopstats"
	"dynloop/internal/trace"
	"dynloop/internal/tracefile"
)

func newTestTraces(t *testing.T) *Traces {
	t.Helper()
	a, err := tracefile.OpenArchive(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return NewTraces(a)
}

func buildUnit(t *testing.T) func() (*builder.Unit, error) {
	t.Helper()
	return func() (*builder.Unit, error) {
		b := builder.New("h", 1)
		b.CountedLoop(builder.TripImm(5), builder.LoopOpt{}, func() { b.Work(4) })
		return b.Build()
	}
}

// TestTracesMultiRunMatchesPlain: the first Traces.MultiRun interprets
// (one traversal) and records; the second replays (zero traversals);
// both deliver the exact stream a plain MultiRun delivers.
func TestTracesMultiRunMatchesPlain(t *testing.T) {
	var refHash trace.Hash
	ref, err := MultiRun(unit(t), MultiConfig{}, trace.AsPass(&refHash))
	if err != nil {
		t.Fatal(err)
	}

	tr := newTestTraces(t)
	ctx := context.Background()
	before := Traversals()

	var h1 trace.Hash
	res1, replayed1, err := tr.MultiRun(ctx, "h", 1, buildUnit(t), MultiConfig{}, trace.AsPass(&h1))
	if err != nil {
		t.Fatal(err)
	}
	if replayed1 {
		t.Fatal("cold archive replayed")
	}
	if got := Traversals() - before; got != 1 {
		t.Fatalf("record path made %d traversals, want 1", got)
	}

	var h2 trace.Hash
	res2, replayed2, err := tr.MultiRun(ctx, "h", 1, buildUnit(t), MultiConfig{}, trace.AsPass(&h2))
	if err != nil {
		t.Fatal(err)
	}
	if !replayed2 {
		t.Fatal("warm archive did not replay")
	}
	if got := Traversals() - before; got != 1 {
		t.Fatalf("replay made an interpreter traversal (%d total)", got)
	}

	for i, got := range []struct {
		res  MultiResult
		hash uint64
	}{{res1, h1.Sum}, {res2, h2.Sum}} {
		if got.res.Executed != ref.Executed || got.res.Halted != ref.Halted {
			t.Fatalf("run %d: result %+v, want executed=%d halted=%v",
				i, got.res, ref.Executed, ref.Halted)
		}
		if got.hash != refHash.Sum {
			t.Fatalf("run %d: hash %x != reference %x", i, got.hash, refHash.Sum)
		}
	}
	if st := tr.Stats(); st.Records != 1 || st.Replays != 1 {
		t.Fatalf("stats = %+v, want 1 record + 1 replay", st)
	}
}

// TestTracesConcurrentRecordOnce: two goroutines miss the same
// (bench, seed) at once; the per-key lock makes exactly one record and
// the other replay the fresh recording, with identical streams. Runs
// under `go test -race` in CI.
func TestTracesConcurrentRecordOnce(t *testing.T) {
	tr := newTestTraces(t)
	build := buildUnit(t)
	ctx := context.Background()

	const workers = 2
	start := make(chan struct{})
	var wg sync.WaitGroup
	hashes := make([]uint64, workers)
	execs := make([]uint64, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			var h trace.Hash
			res, _, err := tr.MultiRun(ctx, "h", 1, build, MultiConfig{}, trace.AsPass(&h))
			if err != nil {
				t.Error(err)
				return
			}
			hashes[i] = h.Sum
			execs[i] = res.Executed
		}(i)
	}
	close(start)
	wg.Wait()

	if st := tr.Stats(); st.Records != 1 || st.Replays != 1 {
		t.Fatalf("stats = %+v, want exactly 1 record and 1 replay", st)
	}
	if st := tr.Archive().Stats(); st.Records != 1 || st.Recordings != 1 {
		t.Fatalf("archive stats = %+v, want 1 commit, 1 recording", st)
	}
	if hashes[0] != hashes[1] || execs[0] != execs[1] {
		t.Fatalf("concurrent runs diverged: hashes %x/%x, executed %d/%d",
			hashes[0], hashes[1], execs[0], execs[1])
	}
}

// TestTracesLongerBudgetReRecords: a budget-truncated recording cannot
// serve a longer request — the tier re-interprets, re-records, and the
// halted recording then serves every budget.
func TestTracesLongerBudgetReRecords(t *testing.T) {
	ref, err := MultiRun(unit(t), MultiConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Halted || ref.Executed < 4 {
		t.Fatalf("reference run too small: %+v", ref)
	}
	half := ref.Executed / 2

	tr := newTestTraces(t)
	build := buildUnit(t)
	ctx := context.Background()

	res, replayed, err := tr.MultiRun(ctx, "h", 1, build, MultiConfig{Budget: half})
	if err != nil {
		t.Fatal(err)
	}
	if replayed || res.Executed != half || res.Halted {
		t.Fatalf("truncated record run: %+v (replayed=%v)", res, replayed)
	}

	// Run-to-halt is NOT covered by the truncated recording.
	var h trace.Hash
	res, replayed, err = tr.MultiRun(ctx, "h", 1, build, MultiConfig{}, trace.AsPass(&h))
	if err != nil {
		t.Fatal(err)
	}
	if replayed {
		t.Fatal("truncated recording served a longer budget")
	}
	if res.Executed != ref.Executed || !res.Halted {
		t.Fatalf("re-record run: %+v, want %+v", res, ref)
	}
	if st := tr.Stats(); st.Records != 2 {
		t.Fatalf("stats = %+v, want 2 records", st)
	}

	// The halted re-recording now covers the original half budget too.
	res, replayed, err = tr.MultiRun(ctx, "h", 1, build, MultiConfig{Budget: half})
	if err != nil {
		t.Fatal(err)
	}
	if !replayed || res.Executed != half || res.Halted {
		t.Fatalf("prefix replay after re-record: %+v (replayed=%v)", res, replayed)
	}
}

// TestTracesCorruptionAfterOpenReRecords: a block section damaged on
// disk after the archive loaded it fails a replay that reads it with
// ErrCorrupt. Each plane reads its own section — control-plane passes
// the branch bits, full-plane passes the payload — so damage to one
// leaves the other plane's replay exact. The tier drops the recording
// after the failed replay, and the next MultiRun interprets and
// re-records it, with pass output equal to plain interpretation.
func TestTracesCorruptionAfterOpenReRecords(t *testing.T) {
	passes := func() (*trace.Hash, *loopdet.Detector, *loopstats.Collector) {
		var h trace.Hash
		stats := loopstats.NewCollector()
		return &h, NewObserverPass(0, stats), stats
	}
	refHash, refDet, refStats := passes()
	refEvents := &trace.Recorder{}
	ref, err := MultiRun(unit(t), MultiConfig{}, trace.AsPass(refHash), refDet, trace.AsPass(refEvents))
	if err != nil {
		t.Fatal(err)
	}
	branches := 0
	for _, ev := range refEvents.Events {
		if ev.Instr.Kind == isa.KindBranch {
			branches++
		}
	}

	dir := t.TempDir()
	a, err := tracefile.OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTraces(a)
	ctx := context.Background()
	if _, replayed, err := tr.MultiRun(ctx, "h", 1, buildUnit(t), MultiConfig{}); err != nil || replayed {
		t.Fatalf("cold run: replayed=%v err=%v, want a recording", replayed, err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.dltrace"))
	if err != nil || len(names) != 1 {
		t.Fatalf("want one archive file, got %v (%v)", names, err)
	}

	// The recording is one block. Its branch-bit section (one bit per
	// branch) ends the block, just before the trailer (tag, uvarint
	// event count, halted byte); the payload's last field byte sits
	// before the section and the payload's 8 zero pad bytes.
	bitsSize := int64(branches+7) / 8
	for _, leg := range []struct {
		name string
		// back is the damaged byte's distance before the trailer.
		back int64
		// pass is a pass on the plane that reads the damaged byte;
		// other is one on the plane that does not.
		pass, other func(*trace.Hash) trace.Pass
	}{
		{"branch bits", 1, ctlPass, fullPass},
		{"payload", bitsSize + 8 + 1, fullPass, ctlPass},
	} {
		rec, ok := a.Lookup("h", 1)
		if !ok || rec.Blocks() != 1 {
			t.Fatalf("%s: want an installed one-block recording (ok=%v)", leg.name, ok)
		}
		var vb [binary.MaxVarintLen64]byte
		off := rec.Size() - int64(2+binary.PutUvarint(vb[:], rec.Events())) - leg.back
		f, err := os.OpenFile(names[0], os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		var b [1]byte
		if _, err := f.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x40
		if _, err := f.WriteAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		var other trace.Hash
		if _, replayed, err := tr.MultiRun(ctx, "h", 1, buildUnit(t), MultiConfig{}, leg.other(&other)); err != nil || !replayed || other.Sum != refHash.Sum {
			t.Fatalf("%s: the plane that does not read the damage: replayed=%v err=%v hash %x, want %x", leg.name, replayed, err, other.Sum, refHash.Sum)
		}
		var h trace.Hash
		if _, replayed, err := tr.MultiRun(ctx, "h", 1, buildUnit(t), MultiConfig{}, leg.pass(&h)); !replayed || !errors.Is(err, tracefile.ErrCorrupt) {
			t.Fatalf("%s: MultiRun over the damaged recording: replayed=%v err=%v, want a failed replay", leg.name, replayed, err)
		}
		if _, ok := a.Lookup("h", 1); ok {
			t.Fatalf("%s: damaged recording still served after the failed replay", leg.name)
		}

		before := Traversals()
		h2, det, stats := passes()
		res, replayed, err := tr.MultiRun(ctx, "h", 1, buildUnit(t), MultiConfig{}, leg.pass(h2), det)
		if err != nil {
			t.Fatal(err)
		}
		if replayed || Traversals()-before != 1 {
			t.Fatalf("%s: run after invalidation: replayed=%v, %d traversals; want a re-record", leg.name, replayed, Traversals()-before)
		}
		if res.Executed != ref.Executed || res.Halted != ref.Halted || h2.Sum != refHash.Sum {
			t.Fatalf("%s: re-record run: %+v hash %x, want %+v hash %x", leg.name, res, h2.Sum, ref, refHash.Sum)
		}
		if stats.Summary() != refStats.Summary() || det.Stats() != refDet.Stats() {
			t.Fatalf("%s: re-record run's loop passes differ from interpretation:\n%+v %+v\n%+v %+v",
				leg.name, stats.Summary(), det.Stats(), refStats.Summary(), refDet.Stats())
		}
		// The fresh recording replays cleanly on both planes.
		for _, p := range []func(*trace.Hash) trace.Pass{ctlPass, fullPass} {
			var h3 trace.Hash
			if _, replayed, err := tr.MultiRun(ctx, "h", 1, buildUnit(t), MultiConfig{}, p(&h3)); err != nil || !replayed || h3.Sum != refHash.Sum {
				t.Fatalf("%s: replay of the re-recording: replayed=%v err=%v hash %x, want %x", leg.name, replayed, err, h3.Sum, refHash.Sum)
			}
		}
	}
}

// ctlPass and fullPass run h on the control plane and on the full plane.
func ctlPass(h *trace.Hash) trace.Pass  { return trace.AsPass(h) }
func fullPass(h *trace.Hash) trace.Pass { return trace.AsPass(trace.ForceFullPlane(h)) }
