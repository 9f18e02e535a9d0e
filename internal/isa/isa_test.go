package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestCondHolds enumerates every condition against signed values.
func TestCondHolds(t *testing.T) {
	cases := []struct {
		c    Cond
		v    int64
		want bool
	}{
		{CondEQZ, 0, true}, {CondEQZ, 1, false},
		{CondNEZ, 0, false}, {CondNEZ, -1, true},
		{CondLTZ, -1, true}, {CondLTZ, 0, false},
		{CondGEZ, 0, true}, {CondGEZ, -1, false},
		{CondGTZ, 1, true}, {CondGTZ, 0, false},
		{CondLEZ, 0, true}, {CondLEZ, 1, false},
	}
	for _, tc := range cases {
		if got := tc.c.Holds(tc.v); got != tc.want {
			t.Errorf("%s.Holds(%d) = %v, want %v", tc.c, tc.v, got, tc.want)
		}
	}
}

// TestCondComplement property: every value satisfies exactly one of each
// complementary pair.
func TestCondComplement(t *testing.T) {
	pairs := [][2]Cond{{CondEQZ, CondNEZ}, {CondLTZ, CondGEZ}, {CondGTZ, CondLEZ}}
	f := func(v int64) bool {
		for _, p := range pairs {
			if p[0].Holds(v) == p[1].Holds(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReadsWrites checks the dataflow metadata used by the live-in
// tracker.
func TestReadsWrites(t *testing.T) {
	cases := []struct {
		in        Instr
		wantReads []Reg
		wantWrite Reg
		writes    bool
	}{
		{ALU(OpAdd, 3, 1, 2), []Reg{1, 2}, 3, true},
		{AddI(3, 1, 5), []Reg{1}, 3, true},
		{MovI(3, 5), nil, 3, true},
		{Mov(3, 1), []Reg{1}, 3, true},
		{Load(3, 1, 0), []Reg{1}, 3, true},
		{Store(1, 0, 2), []Reg{1, 2}, 0, false},
		{Branch(CondEQZ, 1, 0), []Reg{1}, 0, false},
		{Jump(0), nil, 0, false},
		{Seq(3, 0), nil, 3, true},
		{Halt(), nil, 0, false},
	}
	for _, tc := range cases {
		got := tc.in.Reads(nil)
		if len(got) != len(tc.wantReads) {
			t.Errorf("%s: reads %v, want %v", tc.in, got, tc.wantReads)
			continue
		}
		for i := range got {
			if got[i] != tc.wantReads[i] {
				t.Errorf("%s: reads %v, want %v", tc.in, got, tc.wantReads)
			}
		}
		r, ok := tc.in.WritesReg()
		if ok != tc.writes || (ok && r != tc.wantWrite) {
			t.Errorf("%s: writes (%d,%v), want (%d,%v)", tc.in, r, ok, tc.wantWrite, tc.writes)
		}
	}
}

// TestDisassembly spot-checks mnemonics (they appear in CLI output and
// debugging dumps).
func TestDisassembly(t *testing.T) {
	cases := map[string]Instr{
		"add r3, r1, r2":  ALU(OpAdd, 3, 1, 2),
		"movi r5, -7":     MovI(5, -7),
		"ld r2, 8(r1)":    Load(2, 1, 8),
		"st r2, 4(r1)":    Store(1, 4, 2),
		"br.nez r1, @12":  Branch(CondNEZ, 1, 12),
		"jmp @3":          Jump(3),
		"call @9":         Call(9),
		"ret":             Ret(),
		"seq r4, #2":      Seq(4, 2),
		"halt":            Halt(),
		"nop":             Nop(),
		"addi r2, r2, -1": AddI(2, 2, -1),
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// TestKindProperties covers IsControl, EndsRun and the kind names.
func TestKindProperties(t *testing.T) {
	control := map[Kind]bool{
		KindBranch: true, KindJump: true, KindCall: true, KindRet: true,
		KindALU: false, KindLoad: false, KindStore: false,
		KindSeq: false, KindHalt: false, KindNop: false,
	}
	for k, want := range control {
		if k.IsControl() != want {
			t.Errorf("%s.IsControl() = %v, want %v", k, !want, want)
		}
		if strings.Contains(k.String(), "kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	// EndsRun is the control-plane transfer set: calls are not in it.
	for k, want := range map[Kind]bool{
		KindBranch: true, KindJump: true, KindRet: true,
		KindCall: false, KindALU: false, KindLoad: false, KindStore: false,
		KindSeq: false, KindHalt: false, KindNop: false,
	} {
		if k.EndsRun() != want {
			t.Errorf("%s.EndsRun() = %v, want %v", k, !want, want)
		}
	}
	// TouchesMem gates the MemAddr/MemVal event facet; the trace codecs
	// and the predecoder both key off it, so pin it kind by kind.
	for k, want := range map[Kind]bool{
		KindLoad: true, KindStore: true,
		KindALU: false, KindBranch: false, KindJump: false, KindCall: false,
		KindRet: false, KindSeq: false, KindHalt: false, KindNop: false,
		Kind(99): false,
	} {
		if k.TouchesMem() != want {
			t.Errorf("%s.TouchesMem() = %v, want %v", k, !want, want)
		}
	}
}

// TestStringsExhaustive: every defined kind, op and condition has a
// distinct human-readable name (they appear in disassembly and reports).
func TestStringsExhaustive(t *testing.T) {
	kinds := []Kind{KindALU, KindLoad, KindStore, KindBranch, KindJump,
		KindCall, KindRet, KindSeq, KindHalt, KindNop}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if seen[s] || strings.Contains(s, "(") {
			t.Errorf("kind %d name %q", k, s)
		}
		seen[s] = true
	}
	ops := []ALUOp{OpAdd, OpAddI, OpSub, OpMul, OpAnd, OpOr, OpXor,
		OpShl, OpShr, OpMovI, OpMov, OpSlt, OpMod}
	seen = map[string]bool{}
	for _, o := range ops {
		s := o.String()
		if seen[s] || strings.Contains(s, "(") {
			t.Errorf("op %d name %q", o, s)
		}
		seen[s] = true
	}
	conds := []Cond{CondEQZ, CondNEZ, CondLTZ, CondGEZ, CondGTZ, CondLEZ}
	seen = map[string]bool{}
	for _, c := range conds {
		s := c.String()
		if seen[s] || strings.Contains(s, "(") {
			t.Errorf("cond %d name %q", c, s)
		}
		seen[s] = true
	}
	// Unknown values degrade gracefully instead of panicking.
	if !strings.Contains(Kind(99).String(), "99") ||
		!strings.Contains(ALUOp(99).String(), "99") ||
		!strings.Contains(Cond(99).String(), "99") {
		t.Error("unknown enum values must render their number")
	}
	// ALU disassembly for 3-register forms.
	for _, o := range []ALUOp{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpSlt, OpMod} {
		if s := ALU(o, 1, 2, 3).String(); !strings.Contains(s, "r1, r2, r3") {
			t.Errorf("ALU disasm %q", s)
		}
	}
	if Cond(99).Holds(0) {
		t.Error("unknown condition must not hold")
	}
}
