// Package looptab implements the paper's loop-characterisation tables
// (§2.3): the Loop Execution Table (LET) and the Loop Iteration Table
// (LIT), both associative with LRU replacement, plus the hit-ratio
// tracking of §2.3.1 (Figure 4) and the iteration-count prediction the
// STR speculation policy consumes (§3.1.2).
package looptab

import "dynloop/internal/isa"

// Table is an associative table keyed by loop target address with LRU
// replacement. V is the per-entry payload. Capacity 0 means unbounded.
//
// Keys are program counters, dense in [0, len(code)), so the table is
// pointer-free: entries live in a node arena linked into the LRU list by
// slot number, and a slice indexed by key maps each resident key to its
// slot. The index grows geometrically to the largest key seen. Removed
// and evicted slots are reused, so a warm table never allocates. A *V
// returned by Get, Touch, Insert or Victim is valid until the next
// Insert on the same table, which may grow the arena.
type Table[V any] struct {
	capacity int
	nodes    []node[V]
	// index maps a key to its node's slot + 1; 0 means absent.
	index []int32
	// head and tail are the most and least recently used slots, -1 when
	// the table is empty; free heads the list of removed slots, linked
	// through next, -1 when empty.
	head, tail, free int32
	n                int
	evictions        uint64
	// OnEvict, when non-nil, is called with the key and value being
	// evicted, before removal. The entry is reused once it returns.
	OnEvict func(k isa.Addr, v *V)
}

type node[V any] struct {
	key        isa.Addr
	prev, next int32
	val        V
}

// NewTable returns an empty table. Capacity 0 means unbounded.
func NewTable[V any](capacity int) *Table[V] {
	return &Table[V]{capacity: capacity, head: -1, tail: -1, free: -1}
}

// Len returns the number of resident entries.
func (t *Table[V]) Len() int { return t.n }

// Capacity returns the configured capacity (0 = unbounded).
func (t *Table[V]) Capacity() int { return t.capacity }

// Evictions returns how many entries have been evicted.
func (t *Table[V]) Evictions() uint64 { return t.evictions }

// slot returns k's slot, or -1 if absent.
func (t *Table[V]) slot(k isa.Addr) int32 {
	if int(k) < len(t.index) {
		return t.index[k] - 1
	}
	return -1
}

// Get returns the value for k without changing recency, or nil.
func (t *Table[V]) Get(k isa.Addr) *V {
	s := t.slot(k)
	if s < 0 {
		return nil
	}
	return &t.nodes[s].val
}

// Touch marks k most recently used and returns its value, or nil if
// absent.
func (t *Table[V]) Touch(k isa.Addr) *V {
	s := t.slot(k)
	if s < 0 {
		return nil
	}
	t.moveToFront(s)
	return &t.nodes[s].val
}

// Insert adds a fresh zero-valued entry for k as most recently used,
// evicting the least recently used entry if the table is full, and
// returns the new value. If k is already resident its value is reset to
// zero and it becomes most recently used.
func (t *Table[V]) Insert(k isa.Addr) *V {
	if s := t.slot(k); s >= 0 {
		var zero V
		t.nodes[s].val = zero
		t.moveToFront(s)
		return &t.nodes[s].val
	}
	s := int32(-1)
	switch {
	case t.capacity > 0 && t.n >= t.capacity:
		s = t.evictLRU()
	case t.free >= 0:
		s = t.free
		t.free = t.nodes[s].next
	default:
		s = int32(len(t.nodes))
		t.nodes = append(t.nodes, node[V]{})
	}
	if int(k) >= len(t.index) {
		// append grows the capacity geometrically.
		t.index = append(t.index, make([]int32, int(k)+1-len(t.index))...)
	}
	t.nodes[s] = node[V]{key: k}
	t.index[k] = s + 1
	t.n++
	t.pushFront(s)
	return &t.nodes[s].val
}

// Victim returns the key and value that Insert would evict next, or ok
// false if no eviction would occur. It lets callers implement alternative
// insertion policies (the §2.3.2 nesting-aware inhibition ablation).
func (t *Table[V]) Victim() (k isa.Addr, v *V, ok bool) {
	if t.capacity == 0 || t.n < t.capacity || t.tail < 0 {
		return 0, nil, false
	}
	n := &t.nodes[t.tail]
	return n.key, &n.val, true
}

// Remove deletes k if present.
func (t *Table[V]) Remove(k isa.Addr) {
	s := t.slot(k)
	if s < 0 {
		return
	}
	t.drop(s)
	t.nodes[s].next = t.free
	t.free = s
}

// Keys returns the resident keys from most to least recently used.
func (t *Table[V]) Keys() []isa.Addr {
	out := make([]isa.Addr, 0, t.n)
	for s := t.head; s >= 0; s = t.nodes[s].next {
		out = append(out, t.nodes[s].key)
	}
	return out
}

// evictLRU removes the least recently used entry of a non-empty table
// and returns its slot for reuse.
func (t *Table[V]) evictLRU() int32 {
	s := t.tail
	if t.OnEvict != nil {
		n := &t.nodes[s]
		t.OnEvict(n.key, &n.val)
	}
	t.drop(s)
	t.evictions++
	return s
}

// drop unlinks slot s and unmaps its key.
func (t *Table[V]) drop(s int32) {
	t.unlink(s)
	t.index[t.nodes[s].key] = 0
	t.n--
}

func (t *Table[V]) pushFront(s int32) {
	n := &t.nodes[s]
	n.prev, n.next = -1, t.head
	if t.head >= 0 {
		t.nodes[t.head].prev = s
	}
	t.head = s
	if t.tail < 0 {
		t.tail = s
	}
}

func (t *Table[V]) unlink(s int32) {
	n := &t.nodes[s]
	if n.prev >= 0 {
		t.nodes[n.prev].next = n.next
	} else {
		t.head = n.next
	}
	if n.next >= 0 {
		t.nodes[n.next].prev = n.prev
	} else {
		t.tail = n.prev
	}
}

func (t *Table[V]) moveToFront(s int32) {
	if t.head == s {
		return
	}
	t.unlink(s)
	t.pushFront(s)
}
