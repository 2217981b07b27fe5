// Package scratch provides the flat per-query state backing the online top-K
// hot path. One thing is keyed by node: Index, a generation-stamped dense array
// that maps a node to its slot — its position in the insertion-ordered touched
// list — without hashing or per-query clearing. A query keeps one: the BCA
// engine owns and resets it, and it holds every node the query touched, the
// nodes given residual and the t-neighborhood the T side admits into it;
// internal/bca, internal/bounds and the searcher read it. Everything else is
// keyed by slot, in plain slices that grow with the neighborhood: the owners
// keep their per-slot state themselves — residuals, each side's map from a
// shared slot to its own slot, the bounds trackers' state in internal/bounds —
// and Heap is a d-ary max-heap of slots with in-place decrease-key (heap.go).
//
// The stamping is the standard discipline of bookmark-coloring
// implementations: a node is present only when its stamp equals the
// structure's current generation. Reset bumps the generation in O(1) — no
// clearing — so a whole query's worth of scratch resets in constant time and
// allocates nothing in steady state; the owning searcher recycles it across
// queries through a sync.Pool (see internal/topk).
//
// The memory cost of the index is 8 B × NumNodes however small the query's
// neighborhood is, which is exactly the trade the walk kernels already make.
// docs/TUNING.md discusses the resulting pool footprint.
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
