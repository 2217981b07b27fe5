package bounds

import (
	"fmt"
	"math"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/scratch"
)

// neighborhood is what the two trackers have in common and the searcher reads
// of either: the query's one index of touched nodes, this side's map from a
// member's shared slot to its side slot, the members given a side slot in
// side-slot order, the common upper bound of every node outside, and the
// Stage-II kernel over the subgraph the seen nodes induce, which holds their
// bounds by side slot, plus a filter of the seen nodes that spares a join most
// of its probes (see filter). The index is the BCA engine's; FFlat reads its
// side map off the engine, TFlat keeps its own. A node gets a side slot before
// it joins and is seen once the kernel holds that slot: the seen nodes are the
// leading SeenCount members of the side, and a member past them is unseen — as
// is a member of the index with no side slot.
type neighborhood struct {
	idx   *scratch.Index
	at    []int32        // by shared slot: the side slot, -1 for none; may end before the index
	nodes []graph.NodeID // by side slot
	// bloom has a bit set for every seen node, at its ID modulo the filter's
	// length; see filter.
	bloom []uint64
	// hits is filter's buffer, as long as the longest row joined.
	hits   []int32
	unseen float64
	k      refiner // the bounds and induced edge log the tracker's join feeds
}

// bloomWords is the length of the filter: 2^16 bits, 8 KB whatever the graph's
// size, which keeps it in the L1 cache beside the rows a join scans.
const bloomWords = 1 << 10

// reset empties the neighborhood's own state for a new query; the side map is
// the tracker's to reset.
func (s *neighborhood) reset() {
	s.bloom = append(s.bloom[:0], make([]uint64, bloomWords)...) // zeroed, allocated once
	s.k.reset()
}

// enter gives v, the side's first member the kernel holds no slot for, that
// slot, with the given restart weight, row mass and bounds: from here on v is
// seen.
func (s *neighborhood) enter(v graph.NodeID, restart, mass, lo, up float64) int32 {
	s.bloom[v>>6&(bloomWords-1)] |= 1 << (v & 63)
	return s.k.join(restart, mass, lo, up)
}

// SeenCount returns the size of the neighborhood.
func (s *neighborhood) SeenCount() int { return len(s.k.lo) }

// Seen reports whether v is in the neighborhood.
func (s *neighborhood) Seen(v graph.NodeID) bool {
	_, seen := s.Index(v)
	return seen
}

// Index returns the slot of v — its position in SeenList — and whether v is
// in the neighborhood. A node whose bit in the filter is clear is certainly
// outside, and costs no probe.
func (s *neighborhood) Index(v graph.NodeID) (int32, bool) {
	if s.bloom[v>>6&(bloomWords-1)]&(1<<(uint(v)&63)) == 0 {
		return 0, false
	}
	return s.probe(v)
}

// filter returns the positions in cols of the nodes whose bit in the filter of
// seen nodes is set, in row order: every seen node of the row and the few
// others that collide with one. The pass has no branch per entry — each
// position is written and kept by advancing the count by its bit — so a join
// scans a row at the speed of the loop, and probes only what it returns. Most
// of a row's entries are outside the neighborhood, a fair share of them members
// of the index (the other side's), and for each of those a probe would read
// the side map after the index. The slice is the neighborhood's buffer, valid
// until the next call.
func (s *neighborhood) filter(cols []graph.NodeID) []int32 {
	if cap(s.hits) < len(cols) {
		s.hits = make([]int32, len(cols))
	}
	hits := s.hits[:len(cols)]
	bloom := (*[bloomWords]uint64)(s.bloom)
	n := 0
	for i, v := range cols {
		hits[n] = int32(i)
		n += int(bloom[v>>6&(bloomWords-1)] >> (uint(v) & 63) & 1)
	}
	return hits[:n]
}

// probe is Index for a node the filter passed: one stamped probe, for its
// shared slot, and a lookup in the side map.
func (s *neighborhood) probe(v graph.NodeID) (int32, bool) {
	shared, ok := s.idx.Slot(v)
	if !ok {
		return 0, false
	}
	return s.SideSlot(int(shared))
}

// Shared returns the index the neighborhood's members are numbered in.
func (s *neighborhood) Shared() *scratch.Index { return s.idx }

// SideSlot returns the slot of the index's member at the given shared slot —
// its position in SeenList — and whether it is in the neighborhood.
func (s *neighborhood) SideSlot(shared int) (int32, bool) {
	if shared >= len(s.at) {
		return 0, false
	}
	slot := s.at[shared]
	return slot, uint(slot) < uint(len(s.k.lo)) // -1, no side slot, wraps past any length
}

// Lower returns the lower bound for a seen node (zero for unseen nodes).
func (s *neighborhood) Lower(v graph.NodeID) float64 {
	if slot, seen := s.Index(v); seen {
		return s.k.lo[slot]
	}
	return 0
}

// Upper returns the upper bound for v: its individual bound when seen, the
// unseen upper bound otherwise.
func (s *neighborhood) Upper(v graph.NodeID) float64 {
	if slot, seen := s.Index(v); seen {
		return s.k.up[slot]
	}
	return s.unseen
}

// UnseenUpper returns the common upper bound for all unseen nodes.
func (s *neighborhood) UnseenUpper() float64 { return s.unseen }

// SeenList returns the neighborhood in slot (join) order; the slice is valid
// until the next expansion and must not be mutated.
func (s *neighborhood) SeenList() []graph.NodeID { return s.nodes[:len(s.k.lo)] }

// Slots returns the lower and upper bounds by slot, parallel to SeenList and
// valid as long. The slices are the kernel's storage: writing an entry sets
// that node's bound.
func (s *neighborhood) Slots() (lo, up []float64) { return s.k.lo, s.k.up }

// Sweeps returns the number of Stage-II sweeps run since InitRows.
func (s *neighborhood) Sweeps() int { return s.k.sweeps }

// checkConsistent verifies 0 <= lower <= upper for every seen node and a
// finite, non-negative unseen bound; capped additionally requires upper <= 1
// (the T-Rank invariant).
func (s *neighborhood) checkConsistent(capped bool) error {
	if s.unseen < 0 || math.IsNaN(s.unseen) || math.IsInf(s.unseen, 0) {
		return fmt.Errorf("bounds: invalid unseen upper bound %g", s.unseen)
	}
	for slot, v := range s.SeenList() {
		lo, up := s.k.lo[slot], s.k.up[slot]
		switch {
		case lo > up+1e-12:
			return fmt.Errorf("bounds: node %d lower %g exceeds upper %g", v, lo, up)
		case lo < -1e-12:
			return fmt.Errorf("bounds: node %d negative lower bound %g", v, lo)
		case capped && up > 1+1e-9:
			return fmt.Errorf("bounds: node %d bounds out of range [%g, %g]", v, lo, up)
		}
	}
	return nil
}
