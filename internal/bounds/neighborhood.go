package bounds

import (
	"fmt"
	"math"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/scratch"
)

// neighborhood is what the two trackers have in common and the searcher reads
// of either: an index the tracker is handed, the common upper bound of every
// node outside, and the Stage-II kernel over the subgraph the seen nodes
// induce, which holds their bounds by slot. A node enters the index before it
// joins — FFlat's index is the BCA engine's, TFlat's its own — and is seen
// once the kernel holds its slot: the seen nodes are the leading SeenCount
// members of the index, and a member past them is unseen.
type neighborhood struct {
	idx    *scratch.Index
	unseen float64
	k      refiner // the bounds and induced edge log the tracker's join feeds
}

// SeenCount returns the size of the neighborhood.
func (s *neighborhood) SeenCount() int { return len(s.k.lo) }

// Seen reports whether v is in the neighborhood.
func (s *neighborhood) Seen(v graph.NodeID) bool {
	_, seen := s.Index(v)
	return seen
}

// Index returns the slot of v — its position in SeenList — and whether v is
// in the neighborhood.
func (s *neighborhood) Index(v graph.NodeID) (int32, bool) {
	slot, ok := s.idx.Slot(v)
	return slot, ok && int(slot) < len(s.k.lo)
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

// SeenList returns the neighborhood in slot (insertion) order; the slice is
// valid until the next expansion and must not be mutated.
func (s *neighborhood) SeenList() []graph.NodeID { return s.idx.Touched()[:len(s.k.lo)] }

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
