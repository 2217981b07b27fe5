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
	"fmt"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/scratch"
	"roundtriprank/internal/walk"
)

// Flat is a BCA computation for one query. What it keys by node is one
// scratch.Index, 8 B/node: every node the query touched, numbered in the order
// of its first touch — the nodes the engine gives residual, and the nodes a
// tracker bound to the index adds (the searcher binds bounds.TFlat to it, so
// the index holds the union of the residual-touched nodes and St). Residuals
// and the greedy selection's heap positions are plain slices by that shared
// slot; Sf, the nodes given an estimate (the f-neighborhood of Sect. V-A3), is
// a side map from a shared slot to an F slot, the order of first processing,
// by which the estimates go and bounds.FFlat keeps its bounds. A Flat is
// reusable: InitRows rebinds it to a new query over any graph.Rows in O(1)
// without freeing its arrays, so a pooled instance serves a stream of queries
// with no steady-state allocation (see internal/topk's searcher pool).
//
//   - ProcessBest never sees a stale priority: addResidual moves the node
//     within the benefit heap at update time, so the heap holds exactly the
//     nodes with positive residual. A member the index holds for a tracker
//     enters the heap like any other once it receives residual.
//   - A residual push makes one stamped probe, for the node's shared slot;
//     processing the heap's best, which comes as a shared slot, none.
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

	idx scratch.Index
	// mu and fAt are by shared slot and end at the last member given
	// residual: the members past them have none and no F slot.
	mu  []float64
	fAt []int32        // the member's F slot, -1 until it is processed
	sf  []graph.NodeID // by F slot
	rho []float64      // by F slot
	// benefit orders the shared slots holding residual by
	// mu(v)/max(1, outdeg(v)) for greedy selection.
	benefit scratch.Heap

	totalResidual float64
	processed     int
	border        int // the members holding residual that were never processed
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
	s.idx.Reset(n)
	s.benefit.Reset()
	s.mu, s.fAt, s.sf, s.rho = s.mu[:0], s.fAt[:0], s.sf[:0], s.rho[:0]
	s.totalResidual, s.processed, s.border = 0, 0, 0
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

// Index returns the index of every node the query touched, the one the engine
// resets on InitRows. A tracker bound to it may add members; they hold no
// residual until the engine gives them some.
func (s *Flat) Index() *scratch.Index { return &s.idx }

// Seen returns Sf as a side map of the index: the F slot of each shared slot
// (-1 for none; the slice may end before the index does, and the members past
// it have none), the nodes with a non-zero estimate in the order they were
// first processed, and their estimates, both by F slot. All three are the
// engine's own storage, valid until the next processing step.
func (s *Flat) Seen() (fAt []int32, sf []graph.NodeID, rho []float64) { return s.fAt, s.sf, s.rho }

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

// Border returns the number of nodes holding residual that were never
// processed. At zero, Sf is closed under out-edges and no node outside it can
// ever score (a drained residual is one case); InitRows leaves the query's.
func (s *Flat) Border() int { return s.border }

// SeenCount returns the number of nodes with a non-zero estimate (|Sf|).
func (s *Flat) SeenCount() int { return len(s.sf) }

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
	for slot, m := range s.mu {
		if m > 0 {
			fn(s.idx.Touched()[slot], m)
		}
	}
}

func (s *Flat) addResidual(v graph.NodeID, amount float64) {
	if amount <= 0 {
		return
	}
	slot, _ := s.idx.Add(v)
	for int(slot) >= len(s.mu) { // a new member, or one a tracker added
		s.mu, s.fAt = append(s.mu, 0), append(s.fAt, -1)
	}
	if s.mu[slot] == 0 && s.fAt[slot] < 0 {
		s.border++ // its first residual; process takes it off when it gives the F slot
	}
	s.mu[slot] += amount
	s.totalResidual += amount
	deg := s.rows.OutDegree(v)
	if deg < 1 {
		deg = 1
	}
	s.benefit.Update(slot, s.mu[slot]/float64(deg))
}

// process applies one BCA processing step to the member at the given shared
// slot, the form the benefit heap hands out: alpha of its residual is added to
// its estimate, the rest is spread to out-neighbors. Processing a node with no
// residual is a no-op. At a dangling node the rest is dropped: a walk there
// ends, as in the iterative F-Rank solver and the Stage-II recursion, so all
// three bound and converge to the same vector.
func (s *Flat) process(slot int32) {
	residual := s.mu[slot]
	if residual <= 0 {
		return
	}
	v := s.idx.Touched()[slot]
	s.mu[slot] = 0
	s.benefit.Remove(slot)
	s.totalResidual -= residual
	s.processed++
	at := s.fAt[slot]
	if at < 0 {
		at = int32(len(s.sf))
		s.fAt[slot] = at
		s.border--
		s.sf, s.rho = append(s.sf, v), append(s.rho, 0)
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
