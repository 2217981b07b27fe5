package bounds

import (
	"fmt"
	"math"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/scratch"
)

// neighborhood is what the two trackers have in common and the searcher reads
// of either: the seen nodes with their bounds by slot, the common upper bound
// of every node outside, and the Stage-II kernel over the subgraph the seen
// nodes induce.
type neighborhood struct {
	b      scratch.Bounds
	unseen float64
	k      refiner // the induced edge log the tracker's join feeds
}

// SeenCount returns the size of the neighborhood.
func (s *neighborhood) SeenCount() int { return s.b.Len() }

// Seen reports whether v is in the neighborhood.
func (s *neighborhood) Seen(v graph.NodeID) bool { return s.b.Seen(v) }

// Index returns the slot of v — its position in SeenList — and whether v is
// in the neighborhood.
func (s *neighborhood) Index(v graph.NodeID) (int32, bool) { return s.b.Index(v) }

// Lower returns the lower bound for a seen node (zero for unseen nodes).
func (s *neighborhood) Lower(v graph.NodeID) float64 {
	lo, _, _ := s.b.Get(v)
	return lo
}

// Upper returns the upper bound for v: its individual bound when seen, the
// unseen upper bound otherwise.
func (s *neighborhood) Upper(v graph.NodeID) float64 {
	if _, up, seen := s.b.Get(v); seen {
		return up
	}
	return s.unseen
}

// UnseenUpper returns the common upper bound for all unseen nodes.
func (s *neighborhood) UnseenUpper() float64 { return s.unseen }

// SeenList returns the neighborhood in slot (insertion) order; the slice is
// valid until the next expansion and must not be mutated.
func (s *neighborhood) SeenList() []graph.NodeID { return s.b.Touched() }

// Slots returns the lower and upper bounds by slot, parallel to SeenList and
// valid as long.
func (s *neighborhood) Slots() (lo, up []float64) { return s.b.Slots() }

// Sweeps returns the number of Stage-II sweeps run since InitRows.
func (s *neighborhood) Sweeps() int { return s.k.sweeps }

// checkConsistent verifies 0 <= lower <= upper for every seen node and a
// finite, non-negative unseen bound; capped additionally requires upper <= 1
// (the T-Rank invariant).
func (s *neighborhood) checkConsistent(capped bool) error {
	if s.unseen < 0 || math.IsNaN(s.unseen) || math.IsInf(s.unseen, 0) {
		return fmt.Errorf("bounds: invalid unseen upper bound %g", s.unseen)
	}
	los, ups := s.b.Slots()
	for slot, v := range s.b.Touched() {
		lo, up := los[slot], ups[slot]
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
