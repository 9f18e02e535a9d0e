package looptab

import (
	"testing"
	"testing/quick"

	"dynloop/internal/isa"
)

// TestTableBasics covers insert/get/touch/remove on a small table.
func TestTableBasics(t *testing.T) {
	tb := NewTable[int](2)
	if tb.Get(1) != nil {
		t.Fatal("get on empty")
	}
	*tb.Insert(1) = 11
	*tb.Insert(2) = 22
	if *tb.Get(1) != 11 || *tb.Get(2) != 22 {
		t.Fatal("values lost")
	}
	// 1 is LRU (Get does not touch); inserting 3 evicts it.
	*tb.Insert(3) = 33
	if tb.Get(1) != nil {
		t.Fatal("LRU entry not evicted")
	}
	if tb.Evictions() != 1 {
		t.Fatalf("evictions = %d", tb.Evictions())
	}
	// Touch 2, insert 4: victim must now be 3.
	tb.Touch(2)
	*tb.Insert(4) = 44
	if tb.Get(3) != nil || tb.Get(2) == nil {
		t.Fatal("touch did not protect entry 2")
	}
	tb.Remove(2)
	if tb.Get(2) != nil || tb.Len() != 1 {
		t.Fatal("remove failed")
	}
}

// TestTableInsertExisting checks reset-to-zero semantics.
func TestTableInsertExisting(t *testing.T) {
	tb := NewTable[int](4)
	*tb.Insert(7) = 99
	if v := tb.Insert(7); *v != 0 {
		t.Fatalf("re-insert did not reset: %d", *v)
	}
	if tb.Len() != 1 {
		t.Fatalf("len = %d", tb.Len())
	}
}

// TestTableVictim checks victim reporting used by the §2.3.2 ablation.
func TestTableVictim(t *testing.T) {
	tb := NewTable[int](2)
	if _, _, ok := tb.Victim(); ok {
		t.Fatal("victim on non-full table")
	}
	tb.Insert(1)
	tb.Insert(2)
	k, _, ok := tb.Victim()
	if !ok || k != 1 {
		t.Fatalf("victim = %d ok=%v, want 1", k, ok)
	}
	unbounded := NewTable[int](0)
	unbounded.Insert(1)
	if _, _, ok := unbounded.Victim(); ok {
		t.Fatal("unbounded table must never report a victim")
	}
}

// TestTableOnEvict checks the eviction callback.
func TestTableOnEvict(t *testing.T) {
	tb := NewTable[int](1)
	var gone []isa.Addr
	tb.OnEvict = func(k isa.Addr, v *int) { gone = append(gone, k) }
	tb.Insert(5)
	tb.Insert(6)
	if len(gone) != 1 || gone[0] != 5 {
		t.Fatalf("evict callback: %v", gone)
	}
}

// refLRU is an independent reference model for the property test.
// cap 0 means unbounded.
type refLRU struct {
	cap       int
	order     []isa.Addr // front = MRU
	evictions uint64
}

func (r *refLRU) has(k isa.Addr) bool {
	for _, x := range r.order {
		if x == k {
			return true
		}
	}
	return false
}

func (r *refLRU) touch(k isa.Addr) {
	for i, x := range r.order {
		if x == k {
			copy(r.order[1:i+1], r.order[:i])
			r.order[0] = k
			return
		}
	}
}

func (r *refLRU) insert(k isa.Addr) {
	if r.has(k) {
		r.touch(k)
		return
	}
	if r.cap > 0 && len(r.order) >= r.cap {
		r.order = r.order[:len(r.order)-1]
		r.evictions++
	}
	r.order = append([]isa.Addr{k}, r.order...)
}

func (r *refLRU) remove(k isa.Addr) {
	for i, x := range r.order {
		if x == k {
			r.order = append(r.order[:i], r.order[i+1:]...)
			return
		}
	}
}

// TestTableQuickVsReference drives random operation sequences through the
// table and the reference model and compares residency, values, victims,
// the arena size and the final MRU→LRU order. The cases cover a small
// bounded table, an unbounded one, sparse keys up to 1<<16 (31×2111, so
// the key index grows several times) and Remove mixed with inserts (so
// freed slots are reused while the LRU list stays linked).
func TestTableQuickVsReference(t *testing.T) {
	cases := []struct {
		name   string
		cap    int
		keys   uint32 // keys are k*stride for k in [0, keys)
		stride uint32
		remove bool
	}{
		{"bounded", 4, 8, 1, false},
		{"unbounded", 0, 64, 1, false},
		{"sparse", 16, 32, 2111, false},
		{"sparse-unbounded", 0, 32, 2111, true},
		{"remove", 4, 8, 1, true},
		{"remove-wide", 32, 256, 1, true},
	}
	for _, c := range cases {
		f := func(ops []uint32) bool {
			tb := NewTable[uint32](c.cap)
			ref := &refLRU{cap: c.cap}
			vals := map[isa.Addr]uint32{}
			peak := 0 // the most entries ever resident at once
			for _, op := range ops {
				k := isa.Addr(op % c.keys * c.stride)
				kinds := uint32(2)
				if c.remove {
					kinds = 3
				}
				switch op / c.keys % kinds {
				case 0:
					if ref.cap > 0 && len(ref.order) >= ref.cap && !ref.has(k) {
						vk, _, ok := tb.Victim()
						if !ok || vk != ref.order[len(ref.order)-1] {
							return false
						}
						delete(vals, vk)
					}
					*tb.Insert(k) = op
					ref.insert(k)
					vals[k] = op
				case 1:
					got := tb.Touch(k) != nil
					want := ref.has(k)
					if got != want {
						return false
					}
					ref.touch(k)
				case 2:
					tb.Remove(k)
					ref.remove(k)
					delete(vals, k)
				}
				if tb.Len() != len(ref.order) || tb.Evictions() != ref.evictions {
					return false
				}
				// Freed slots are reused before the arena grows.
				if peak = max(peak, len(ref.order)); len(tb.nodes) != peak {
					return false
				}
				for _, k := range ref.order {
					if v := tb.Get(k); v == nil || *v != vals[k] {
						return false
					}
				}
			}
			// MRU->LRU order must match exactly.
			keys := tb.Keys()
			if len(keys) != len(ref.order) {
				return false
			}
			for i := range keys {
				if keys[i] != ref.order[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}
