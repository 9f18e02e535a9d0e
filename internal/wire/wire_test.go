package wire

import (
	"errors"
	"reflect"
	"testing"

	"dynloop/internal/grid"
	"dynloop/internal/spec"
)

func sampleValues() []any {
	return []any{
		spec.Metrics{Instrs: 100, Cycles: 50, SpecEvents: 3},
		grid.Table1Row{Bench: "swim"},
		grid.Fig4Cell{LET: 0.5, LIT: 0.25},
		grid.OracleRow{Bench: "perl", STRTPC: 1.5},
	}
}

// sweepMetrics are the cell values of a "sweep" grid response: one
// spec.Metrics per benchmark × policy × TUs cell, zero value included.
func sweepMetrics() []any {
	return []any{
		spec.Metrics{Instrs: 100, Cycles: 50, SpecEvents: 3},
		spec.Metrics{Instrs: 999, Cycles: 400, ThreadsSpawned: 12},
		spec.Metrics{},
	}
}

// TestGridRoundTrip: a sweep grid's metrics cross the wire in cell
// order and come back as spec.Metrics, field for field.
func TestGridRoundTrip(t *testing.T) {
	b, err := AppendCells(nil, sweepMetrics())
	if err != nil {
		t.Fatal(err)
	}
	values, err := DecodeCells(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(values, sweepMetrics()) {
		t.Fatalf("round trip:\n got  %+v\n want %+v", values, sweepMetrics())
	}
}

// TestGridEmpty: a grid with no cells (every benchmark excluded) is a
// valid, empty payload.
func TestGridEmpty(t *testing.T) {
	b, err := AppendCells(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	values, err := DecodeCells(b)
	if err != nil || len(values) != 0 {
		t.Fatalf("empty grid: %v %v", values, err)
	}
}

// TestGridCorrupt: malformed grid payloads — including a response in
// the retired "DLGRID1" row format — are rejected with ErrCorrupt,
// never returned as partial values.
func TestGridCorrupt(t *testing.T) {
	b, err := AppendCells(nil, sweepMetrics())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][]byte{
		{},
		[]byte("NOTAGRID\n"),
		[]byte("DLGRID1\n\x00"),
		b[:len(b)-1],
		append(append([]byte{}, b...), 7),
	} {
		if _, err := DecodeCells(c); !errors.Is(err, ErrCorrupt) {
			t.Errorf("corrupt grid %q...: err = %v, want ErrCorrupt", c[:min(len(c), 12)], err)
		}
	}
	for cut := 0; cut < len(b); cut++ {
		if _, err := DecodeCells(b[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestCellsRoundTrip(t *testing.T) {
	b, err := AppendCells(nil, sampleValues())
	if err != nil {
		t.Fatal(err)
	}
	values, err := DecodeCells(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(values, sampleValues()) {
		t.Fatalf("round trip:\n got  %+v\n want %+v", values, sampleValues())
	}
	// Empty payloads round-trip too.
	eb, err := AppendCells(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vs, err := DecodeCells(eb); err != nil || len(vs) != 0 {
		t.Fatalf("empty cells: %v %v", vs, err)
	}
}

func TestCellsCorrupt(t *testing.T) {
	b, err := AppendCells(nil, sampleValues())
	if err != nil {
		t.Fatal(err)
	}
	// Truncation at every byte must error, never return partial values.
	for cut := 0; cut < len(b); cut++ {
		if _, err := DecodeCells(b[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
	if _, err := DecodeCells(append(append([]byte{}, b...), 7)); err == nil {
		t.Fatal("trailing bytes decoded cleanly")
	}
	if _, err := DecodeCells([]byte("NOTCELLS\n")); !errors.Is(err, ErrCorrupt) {
		t.Fatal("bad magic accepted")
	}
	// An unencodable value fails the append, not the wire.
	if _, err := AppendCells(nil, []any{struct{ X int }{1}}); err == nil {
		t.Fatal("unregistered value encoded")
	}
}

// FuzzDecodeCells: DecodeCells parses daemon responses, so arbitrary
// bytes must never panic, and every rejection must wrap ErrCorrupt.
// Accepted values must survive a re-encode and decode.
func FuzzDecodeCells(f *testing.F) {
	b, err := AppendCells(nil, sampleValues())
	if err != nil {
		f.Fatal(err)
	}
	empty, err := AppendCells(nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add(empty)
	f.Add(b[:len(b)/2])
	f.Add(append(append([]byte{}, b...), 7))
	f.Add([]byte("NOTCELLS\n"))
	f.Add([]byte(cellsMagic + "\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		values, err := DecodeCells(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		again, err := AppendCells(nil, values)
		if err != nil {
			t.Fatalf("decoded values do not re-encode: %v", err)
		}
		if _, err := DecodeCells(again); err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
	})
}
