// Package bca implements the Bookmark-Coloring Algorithm (Berkhin, 2006) for
// Personalized PageRank, which is the Stage-I engine of 2SBound's F-Rank side
// (Sect. V-A3 of the RoundTripRank paper).
//
// BCA maintains, for a fixed query q, a sparse estimate rho(q, v) of PPR and a
// sparse residual mu(q, v). Initially all residual (one unit) sits at the
// query. Processing a node converts an alpha fraction of its residual into
// estimate and spreads the remaining (1-alpha) fraction to its out-neighbors
// proportionally to edge weights. The invariant
//
//	PPR(q, v) = rho(q, v) + sum_u mu(q, u) * PPR(u, v)
//
// implies rho is always a lower bound of PPR and that the total residual
// bounds the remaining error, which is exactly what the Proposition 4 bounds
// build on.
package bca

import (
	"context"
	"fmt"
	"math"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/scratch"
	"roundtriprank/internal/walk"
)

// Flat is a BCA computation for one query. What it keys by node is two
// scratch.Index values — seen, the nodes given an estimate, in the order of
// their first (which is the f-neighborhood Sf of Sect. V-A3, and bounds.FFlat
// keeps its bounds by these slots), and touched, the nodes ever given residual,
// in the order of their first — 16 B/node in all. Estimates, residuals and the
// greedy selection's heap positions are plain slices by slot. A Flat is
// reusable: InitRows rebinds it to a new query over any graph.Rows in O(1)
// without freeing its arrays, so a pooled instance serves a stream of queries
// with no steady-state allocation (see internal/topk's searcher pool).
//
//   - ProcessBest never sees a stale priority: addResidual moves the node
//     within the benefit heap at update time, so the heap holds exactly the
//     nodes with positive residual (|heap| <= touched nodes).
//   - A residual push makes one stamped probe, for the node's touched slot;
//     processing the heap's best, which comes as a slot, one, for its seen slot.
//   - MaxResidual is one scan of the residuals, asked for once per expansion
//     round; nothing is maintained per residual push for it.
//   - The restart distribution is a deduplicated slice pair, in
//     first-occurrence order: the initial residuals and RestartWeight.
type Flat struct {
	// rows is the graph; pre is its optional prefetch capability and prefetch
	// the reusable frontier buffer handed to it.
	rows     graph.Rows
	pre      graph.RowPrefetcher
	prefetch []graph.NodeID
	alpha    float64

	restartNodes   []graph.NodeID
	restartWeights []float64

	seen scratch.Index
	rho  []float64 // by seen slot

	touched scratch.Index
	mu      []float64 // by touched slot
	// benefit orders the touched slots holding residual by
	// mu(v)/max(1, outdeg(v)) for greedy selection.
	benefit scratch.Heap

	totalResidual float64
	processed     int
}

// Init is InitRows over a flat CSR view. It survives only because
// bench/probes.go calls it: ROADMAP item 1(h) repoints the probe at InitRows
// and deletes this.
func (s *Flat) Init(view graph.CSRView, q walk.Query, alpha float64) error {
	return s.InitRows(graph.Compact(view), q, alpha)
}

// InitRows starts (or restarts) a BCA computation for the given query with
// teleport probability alpha in (0, 1), reusing the Flat's internal arrays.
// Adjacency is read row by row (OutRow), degrees and out-sums per node. If
// rows also implements graph.RowPrefetcher, multi-node greedy waves announce
// their frontier ahead of processing so a remote provider can coalesce the
// fetches. Binding reads no rows. A failed row reads as empty: the caller
// must check rows.Err() before trusting anything computed since.
func (s *Flat) InitRows(rows graph.Rows, q walk.Query, alpha float64) error {
	if err := walk.CheckAlpha(alpha); err != nil {
		return fmt.Errorf("bca: %w", err)
	}
	n := rows.NumNodes()
	var err error
	s.restartNodes, s.restartWeights, err =
		q.NormalizeInto(n, s.restartNodes[:0], s.restartWeights[:0])
	if err != nil {
		return fmt.Errorf("bca: %w", err)
	}
	s.rows = rows
	s.pre, _ = rows.(graph.RowPrefetcher)
	s.alpha = alpha
	s.seen.Reset(n)
	s.touched.Reset(n)
	s.benefit.Reset()
	s.rho, s.mu = s.rho[:0], s.mu[:0]
	s.totalResidual = 0
	s.processed = 0
	for i, v := range s.restartNodes {
		s.addResidual(v, s.restartWeights[i])
	}
	return nil
}

// Detach drops the engine's reference to the graph so a pooled instance does
// not pin a superseded snapshot (or a finished row session) in memory between
// queries. The scratch arrays (which are the point of pooling) are kept;
// InitRows rebinds a source.
func (s *Flat) Detach() { s.rows, s.pre = nil, nil }

// Seen returns the index of the nodes with a non-zero estimate — Sf, in the
// order they were first processed — and their estimates by its slots. Both are
// the engine's own storage, valid until the next processing step.
func (s *Flat) Seen() (*scratch.Index, []float64) { return &s.seen, s.rho }

// Rho returns the current PPR estimate at v (a lower bound of the exact PPR).
func (s *Flat) Rho(v graph.NodeID) float64 {
	if slot, ok := s.seen.Slot(v); ok {
		return s.rho[slot]
	}
	return 0
}

// Residual returns the current residual at v.
func (s *Flat) Residual(v graph.NodeID) float64 {
	if slot, ok := s.touched.Slot(v); ok {
		return s.mu[slot]
	}
	return 0
}

// TotalResidual returns the total remaining residual mass; it decreases
// monotonically as nodes are processed and bounds the total estimation error.
func (s *Flat) TotalResidual() float64 {
	if s.totalResidual < 0 {
		return 0
	}
	return s.totalResidual
}

// MaxResidual returns the largest residual currently held by any node: one
// scan of the residuals of the nodes that ever held any this query.
func (s *Flat) MaxResidual() float64 {
	maxRes := 0.0
	for _, m := range s.mu {
		if m > maxRes {
			maxRes = m
		}
	}
	return maxRes
}

// Processed returns the number of BCA processing operations performed.
func (s *Flat) Processed() int { return s.processed }

// SeenCount returns the number of nodes with a non-zero estimate (|Sf|).
func (s *Flat) SeenCount() int { return s.seen.Len() }

// LiveResidualCount returns the number of nodes currently holding positive
// residual, which is also the size of the benefit heap.
func (s *Flat) LiveResidualCount() int { return s.benefit.Len() }

// ResidualTouchedCount returns the number of distinct nodes that ever held
// residual during this query — the F-side share of the rows the searcher's
// working set can reach (processing, prefetching and the Stage-II kernel's
// build pass all stay inside this set). The remote parity tests assert rows
// fetched never exceeds it plus the T-side neighborhood.
func (s *Flat) ResidualTouchedCount() int { return s.touched.Len() }

// ResidualTouched reports whether v ever held residual during this query.
func (s *Flat) ResidualTouched(v graph.NodeID) bool { return s.touched.Has(v) }

// EachSeen calls fn for every node with a non-zero PPR estimate.
func (s *Flat) EachSeen(fn func(v graph.NodeID, rho float64)) {
	for slot, v := range s.seen.Touched() {
		fn(v, s.rho[slot])
	}
}

// RestartWeight returns the normalized query weight of v, zero when v is not
// a query node: a scan of the deduplicated restart distribution, which has one
// entry per distinct query node.
func (s *Flat) RestartWeight(v graph.NodeID) float64 {
	for i, qv := range s.restartNodes {
		if qv == v {
			return s.restartWeights[i]
		}
	}
	return 0
}

// EachResidual calls fn for every node with a positive residual.
func (s *Flat) EachResidual(fn func(v graph.NodeID, mu float64)) {
	for slot, v := range s.touched.Touched() {
		if m := s.mu[slot]; m > 0 {
			fn(v, m)
		}
	}
}

func (s *Flat) addResidual(v graph.NodeID, amount float64) {
	if amount <= 0 {
		return
	}
	slot, added := s.touched.Add(v)
	if added {
		s.mu = append(s.mu, 0)
	}
	s.mu[slot] += amount
	s.totalResidual += amount
	deg := s.rows.OutDegree(v)
	if deg < 1 {
		deg = 1
	}
	s.benefit.Update(slot, s.mu[slot]/float64(deg))
}

// Process applies one BCA processing step to node v: alpha of its residual is
// added to its estimate, the rest is spread to out-neighbors. Processing a
// node with no residual is a no-op. At a dangling node the rest is dropped: a
// walk there ends, as in the iterative F-Rank solver and the Stage-II
// recursion, so all three bound and converge to the same vector.
func (s *Flat) Process(v graph.NodeID) {
	if slot, ok := s.touched.Slot(v); ok {
		s.process(slot)
	}
}

// process is Process by touched slot, the form the benefit heap hands out.
func (s *Flat) process(slot int32) {
	residual := s.mu[slot]
	if residual <= 0 {
		return
	}
	v := s.touched.Touched()[slot]
	s.mu[slot] = 0
	s.benefit.Remove(slot)
	s.totalResidual -= residual
	s.processed++
	at, added := s.seen.Add(v)
	if added {
		s.rho = append(s.rho, 0)
	}
	s.rho[at] += s.alpha * residual
	spread := (1 - s.alpha) * residual
	outSum := s.rows.OutSum(v)
	if outSum <= 0 {
		return
	}
	cols, wts := s.rows.OutRow(v)
	for i, to := range cols {
		s.addResidual(to, spread*wts[i]/outSum)
	}
}

// ProcessBest processes up to m nodes chosen greedily by benefit
// mu(v)/|Out(v)| (Sect. V-A3: large residual, few out-neighbors) and returns
// the number actually processed, which is smaller than m when the residual
// frontier is exhausted. Because the benefit heap is updated in place there
// are no stale entries: the top of the heap is always the true best candidate.
func (s *Flat) ProcessBest(m int) int {
	if m > 1 && s.pre != nil {
		// Announce the whole live-residual frontier before a multi-node
		// greedy wave: the remote provider coalesces the misses into one RPC
		// per stripe. Single-node waves (Run's convergence loop) skip the
		// hint — re-announcing the frontier per processed node would scan it
		// quadratically for no batching gain.
		s.prefetch = s.prefetch[:0]
		s.EachResidual(func(v graph.NodeID, _ float64) { s.prefetch = append(s.prefetch, v) })
		s.pre.Prefetch(s.prefetch)
	}
	done := 0
	for done < m {
		slot, _, ok := s.benefit.Peek()
		if !ok {
			return done
		}
		s.process(slot)
		done++
	}
	return done
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
// running total, and the benefit heap holds exactly the positive-residual
// nodes. Used by tests.
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
	recount, live := 0.0, 0
	for slot, m := range s.mu {
		v := s.touched.Touched()[slot]
		if m < -1e-12 {
			return fmt.Errorf("bca: negative residual %g", m)
		}
		if m > 0 {
			live++
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
	return nil
}
