// Package spec implements the paper's thread-level control speculation
// (§3): a multithreaded machine model whose thread units (TUs) execute
// speculative future loop iterations discovered by the dynamic loop
// detector, under the IDLE, STR and STR(i) policies, with the paper's
// abstract timing (each TU retires one instruction per cycle).
//
// The headline metric is TPC — the average number of active, correctly
// speculated threads per cycle — which under this timing model equals
// retired instructions divided by total cycles, because every retired
// instruction is executed usefully exactly once (either by the
// non-speculative TU or inside a speculative thread that is later
// confirmed).
package spec

import "strconv"

// PolicyKind selects the thread-count decision rule of §3.1.2.
type PolicyKind uint8

const (
	// PolicyIdle speculates on every idle TU.
	PolicyIdle PolicyKind = iota
	// PolicyStride bounds speculation by the LET's iteration-count
	// prediction (stride if reliable, else last count, else unlimited).
	PolicyStride
)

// Policy is a speculation policy: IDLE, STR (NestLimit 0) or STR(i)
// (NestLimit i > 0).
type Policy struct {
	// Kind is the thread-count rule.
	Kind PolicyKind
	// NestLimit, when positive, is the STR(i) parameter: the maximum
	// number of non-speculated loops that may nest inside a speculated
	// loop before its threads are squashed to free TUs for inner loops.
	NestLimit int
}

// Idle returns the IDLE policy.
func Idle() Policy { return Policy{Kind: PolicyIdle} }

// STR returns the stride policy without a nesting limit.
func STR() Policy { return Policy{Kind: PolicyStride} }

// STRn returns the STR(i) policy.
func STRn(i int) Policy { return Policy{Kind: PolicyStride, NestLimit: i} }

// String names the policy as in the paper's figures: IDLE, STR or
// STR(i).
func (p Policy) String() string {
	var buf [24]byte
	return string(p.AppendName(buf[:0]))
}

// AppendName appends the policy's name (see String) to b; grid cell
// keys render policies through it without allocating.
func (p Policy) AppendName(b []byte) []byte {
	switch p.Kind {
	case PolicyIdle:
		return append(b, "IDLE"...)
	case PolicyStride:
		b = append(b, "STR"...)
		if p.NestLimit > 0 {
			b = append(b, '(')
			b = strconv.AppendInt(b, int64(p.NestLimit), 10)
			b = append(b, ')')
		}
		return b
	default:
		b = append(b, "policy("...)
		b = strconv.AppendUint(b, uint64(p.Kind), 10)
		return append(b, ')')
	}
}
