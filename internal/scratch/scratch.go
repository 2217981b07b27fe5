// Package scratch provides the flat per-query state backing the online top-K
// hot path. One thing is keyed by node: Index, a generation-stamped dense array
// that maps a node to its slot — its position in the insertion-ordered touched
// list — without hashing or per-query clearing. Everything else is keyed by
// slot, in plain slices that grow with the neighborhood: Bounds (a lower/upper
// pair per slot, over an Index) and Heap (a d-ary max-heap of slots with
// in-place decrease-key, heap.go).
//
// The stamping is the standard discipline of bookmark-coloring
// implementations: a node is present only when its stamp equals the
// structure's current generation. Reset bumps the generation in O(1) — no
// clearing — so a whole query's worth of scratch resets in constant time and
// allocates nothing in steady state; the owning searcher recycles it across
// queries through a sync.Pool (see internal/topk).
//
// The memory cost of a dense structure is 8 B × NumNodes however small the
// query's neighborhood is, which is exactly the trade the walk kernels already
// make. docs/TUNING.md discusses the resulting pool footprint.
package scratch

import "roundtriprank/internal/graph"

// Index is a set of nodes with O(1) reset that numbers its members in
// insertion order: the slot of a node is its position in Touched. The zero
// value is empty; Reset must be called before use.
type Index struct {
	at      []indexEntry // by node
	gen     uint32
	touched []graph.NodeID
}

// indexEntry keeps a node's stamp beside its slot: a probe reads one cache
// line.
type indexEntry struct {
	stamp uint32
	slot  int32
}

// Reset empties the index and (re)sizes it for node IDs in [0, n). Previously
// allocated capacity is reused; growing past it allocates once.
func (x *Index) Reset(n int) {
	x.touched = x.touched[:0]
	x.at = grow(x.at, n)
	x.gen++
	if x.gen == 0 { // generation wraparound: stale stamps could alias
		clear(x.at)
		x.gen = 1
	}
}

// Len returns the number of members.
func (x *Index) Len() int { return len(x.touched) }

// Has reports whether v is a member.
func (x *Index) Has(v graph.NodeID) bool { return x.at[v].stamp == x.gen }

// Slot returns the slot of v and whether v is a member.
func (x *Index) Slot(v graph.NodeID) (int32, bool) {
	e := x.at[v]
	return e.slot, e.stamp == x.gen
}

// Add returns the slot of v, making it a member (in the next slot) if it is
// not one, and reports whether it did.
func (x *Index) Add(v graph.NodeID) (slot int32, added bool) {
	if e := x.at[v]; e.stamp == x.gen {
		return e.slot, false
	}
	slot = int32(len(x.touched))
	x.at[v] = indexEntry{x.gen, slot}
	x.touched = append(x.touched, v)
	return slot, true
}

// Touched returns the members in slot order. The slice aliases internal
// storage: it is valid until the next Add or Reset and must not be mutated.
func (x *Index) Touched() []graph.NodeID { return x.touched }

// Bounds is the per-node lower/upper bound pair of the two-stage framework,
// stored by slot over an Index: the neighborhood is the leading Len slots of
// the index, in slot order. The index is either the Bounds' own (Reset; one
// dense array, 8 B/node) or one somebody else fills (ResetOver: BCA's, whose
// members are Sf) — there a member of the index whose slot has no bounds yet
// does not count as seen. A kernel that works in slot order (the Stage-II
// refinement) sweeps the bounds in place through Slots. The zero value is
// empty; Reset or ResetOver must be called before use.
type Bounds struct {
	idx    *Index
	own    Index
	lo, up []float64 // by slot
}

// Reset empties the set over its own index, (re)sized for node IDs in [0, n).
func (b *Bounds) Reset(n int) {
	b.own.Reset(n)
	b.ResetOver(&b.own)
}

// ResetOver empties the set and keys it by idx, which the caller resets and
// fills: Push gives the next member of idx its bounds.
func (b *Bounds) ResetOver(idx *Index) {
	b.idx, b.lo, b.up = idx, b.lo[:0], b.up[:0]
}

// Len returns the neighborhood size.
func (b *Bounds) Len() int { return len(b.lo) }

// Index returns the slot of v and whether v is seen.
func (b *Bounds) Index(v graph.NodeID) (int32, bool) {
	slot, ok := b.idx.Slot(v)
	return slot, ok && int(slot) < len(b.lo)
}

// Seen reports whether v is in the neighborhood.
func (b *Bounds) Seen(v graph.NodeID) bool {
	_, seen := b.Index(v)
	return seen
}

// Get returns both bounds of v and whether v is seen.
func (b *Bounds) Get(v graph.NodeID) (lo, up float64, seen bool) {
	slot, seen := b.Index(v)
	if !seen {
		return 0, 0, false
	}
	return b.lo[slot], b.up[slot], true
}

// Push opens the next slot with the given bounds and returns it. Over a
// borrowed index the slot's node is already a member of it.
func (b *Bounds) Push(lo, up float64) int32 {
	b.lo, b.up = append(b.lo, lo), append(b.up, up)
	return int32(len(b.lo) - 1)
}

// Add admits v, which must be unseen, into the next slot of the Bounds' own
// index with the given bounds, and returns the slot.
func (b *Bounds) Add(v graph.NodeID, lo, up float64) int32 {
	b.own.Add(v)
	return b.Push(lo, up)
}

// Touched returns the seen node IDs in slot order. The slice aliases internal
// storage: it is valid until the next Reset and must not be mutated.
func (b *Bounds) Touched() []graph.NodeID { return b.idx.Touched()[:len(b.lo)] }

// Slots returns the lower and upper bounds by slot, parallel to Touched. The
// slices are the storage itself: writing an entry sets that node's bound, and
// they are valid until the next Push or Reset.
func (b *Bounds) Slots() (lo, up []float64) { return b.lo, b.up }

// grow reslices a dense array to length n, allocating only when n exceeds its
// capacity. Entries beyond the previous length must read as absent, so a grow
// within capacity clears the newly exposed tail: it may hold stamps from a
// larger, older graph. (Entries below it are stale by the generation bump that
// follows, a fresh array by being zero: no generation is.)
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	old := len(s)
	s = s[:n]
	if n > old {
		clear(s[old:])
	}
	return s
}
