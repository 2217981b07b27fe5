package bca

import (
	"context"
	"fmt"
	"math"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/walk"
)

// What the tests read and drive of a Flat beyond what the bounds trackers use:
// point lookups, dense copies, one-node processing, the standalone run mode
// and the invariant check.

// Rho returns the current PPR estimate at v (a lower bound of the exact PPR).
func (s *Flat) Rho(v graph.NodeID) float64 {
	if slot, ok := s.idx.Slot(v); ok && int(slot) < len(s.fAt) {
		if at := s.fAt[slot]; at >= 0 {
			return s.rho[at]
		}
	}
	return 0
}

// Residual returns the current residual at v.
func (s *Flat) Residual(v graph.NodeID) float64 {
	if slot, ok := s.idx.Slot(v); ok && int(slot) < len(s.mu) {
		return s.mu[slot]
	}
	return 0
}

// LiveResidualCount returns the number of nodes currently holding positive
// residual, which is also the size of the benefit heap.
func (s *Flat) LiveResidualCount() int { return s.benefit.Len() }

// EachSeen calls fn for every node with a non-zero PPR estimate.
func (s *Flat) EachSeen(fn func(v graph.NodeID, rho float64)) {
	for at, v := range s.sf {
		fn(v, s.rho[at])
	}
}

// Process applies one BCA processing step to node v (see process); a node
// that never held residual is left alone.
func (s *Flat) Process(v graph.NodeID) {
	if slot, ok := s.idx.Slot(v); ok && int(slot) < len(s.mu) {
		s.process(slot)
	}
}

// Run processes best-benefit nodes until the total residual drops below tol,
// maxOps steps have been performed, or the context is cancelled (checked once
// per step). It is the standalone approximate-PPR mode of BCA.
func (s *Flat) Run(ctx context.Context, tol float64, maxOps int) error {
	ctx = walk.OrBackground(ctx)
	if tol <= 0 {
		tol = 1e-9
	}
	if maxOps <= 0 {
		maxOps = math.MaxInt32
	}
	for s.TotalResidual() > tol && s.processed < maxOps {
		if err := ctx.Err(); err != nil {
			return err
		}
		if s.ProcessBest(1) == 0 {
			return nil
		}
	}
	return nil
}

// Estimates returns a dense copy of the current PPR estimates.
func (s *Flat) Estimates(n int) []float64 {
	out := make([]float64, n)
	s.EachSeen(func(v graph.NodeID, r float64) { out[v] = r })
	return out
}

// CheckInvariant verifies what must hold at every step: estimates sum to at
// most 1 (rho lower-bounds PPR), residuals are non-negative and add up to the
// running total, the benefit heap holds exactly the positive-residual
// nodes, and Border counts those of them never processed. Used by tests.
func (s *Flat) CheckInvariant() error {
	mass := 0.0
	for _, r := range s.rho {
		mass += r
	}
	if mass > 1+1e-9 {
		return fmt.Errorf("bca: estimates sum to %g > 1", mass)
	}
	if s.totalResidual < -1e-9 {
		return fmt.Errorf("bca: negative total residual %g", s.totalResidual)
	}
	recount, live, border := 0.0, 0, 0
	for slot, m := range s.mu {
		v := s.idx.Touched()[slot]
		if m < -1e-12 {
			return fmt.Errorf("bca: negative residual %g", m)
		}
		if m > 0 {
			live++
			if s.fAt[slot] < 0 {
				border++
			}
		}
		if has := s.benefit.Contains(int32(slot)); has != (m > 0) {
			return fmt.Errorf("bca: node %d has residual %g, heap entry: %v", v, m, has)
		}
		recount += m
	}
	if math.Abs(recount-s.TotalResidual()) > 1e-9*(1+recount) {
		return fmt.Errorf("bca: residual accounting drift: %g vs %g", recount, s.totalResidual)
	}
	if s.benefit.Len() != live {
		return fmt.Errorf("bca: heap size %d, want %d live residuals", s.benefit.Len(), live)
	}
	if s.Border() != border {
		return fmt.Errorf("bca: Border %d, want %d unprocessed nodes holding residual", s.Border(), border)
	}
	return nil
}
