// Package core implements the paper's primary contribution: RoundTripRank
// (Sect. III) and RoundTripRank+ (Sect. IV).
//
// RoundTripRank scores a target node v for a query q by the probability that
// a round trip starting and ending at q passes through v as its target
// (Definition 2). Proposition 2 shows the rank-equivalent decomposition
//
//	r(q, v)  ∝  f(q, v) · t(q, v)
//
// where f is F-Rank (reachability from the query, equal to Personalized
// PageRank) and t is T-Rank (reachability to the query). RoundTripRank+
// generalizes the combination with a specificity bias β derived from the
// hybrid-random-surfer scheme (Eq. 12):
//
//	r_β(q, v)  ∝  f(q, v)^(1−β) · t(q, v)^β
//
// β = 0 degenerates to F-Rank (pure importance), β = 1 to T-Rank (pure
// specificity), and β = 0.5 to RoundTripRank.
//
// The package also contains an exact round-trip path enumerator with constant
// walk lengths, used to validate the decomposition against the toy example of
// Fig. 2 / Fig. 4.
package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"roundtriprank/internal/fan"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/walk"
)

// BalancedBeta is the specificity bias at which RoundTripRank+ equals
// RoundTripRank: importance and specificity weigh equally.
const BalancedBeta = 0.5

// Params configures an exact RoundTripRank(+) computation.
type Params struct {
	// Walk holds the random-walk parameters (teleport probability α,
	// convergence tolerance, iteration cap) shared by F-Rank and T-Rank.
	Walk walk.Params
	// Beta is the specificity bias in [0, 1]. 0.5 is RoundTripRank.
	Beta float64
}

// DefaultParams returns the paper's default configuration: α = 0.25 and a
// balanced trade-off β = 0.5.
func DefaultParams() Params {
	return Params{Walk: walk.DefaultParams(), Beta: BalancedBeta}
}

// Validate checks parameter ranges; the comparisons are written to fail on
// NaN.
func (p Params) Validate() error {
	if !(p.Beta >= 0 && p.Beta <= 1) {
		return fmt.Errorf("core: beta must be in [0,1], got %g", p.Beta)
	}
	if err := walk.CheckAlpha(p.Walk.Alpha); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// Scores holds the three per-node score vectors produced by an exact
// computation: F-Rank, T-Rank, and the combined RoundTripRank+ with the
// requested β.
type Scores struct {
	F    []float64
	T    []float64
	R    []float64
	Beta float64
}

// Compute runs the exact (iterative) F-Rank and T-Rank solvers for the query
// and combines them into RoundTripRank+ scores: Solve over the view's
// walk.Local Gatherer. Cancelling the context
// aborts them within one power iteration and returns ctx.Err().
func Compute(ctx context.Context, view graph.View, q walk.Query, p Params) (*Scores, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	f, t, _, _, err := Solve(ctx, walk.Local(view, 0), q, p.Walk)
	if err != nil {
		return nil, err
	}
	return &Scores{F: f, T: t, R: Combine(f, t, p.Beta), Beta: p.Beta}, nil
}

// Solve runs the F-Rank and T-Rank solves of one query, each with its
// walk.Bound, concurrently over one Gatherer — in-process rows or a worker
// fleet — as a pair of fan.Do tasks: the first failure cancels the sibling, so
// a dead worker surfaces at once instead of after the healthy solve finishes
// its remaining iterations, and the error follows fan.Do's rule.
func Solve(ctx context.Context, g walk.Gatherer, q walk.Query, wp walk.Params) (f, t []float64, fb, tb walk.Bound, err error) {
	err = fan.Do(walk.OrBackground(ctx), 2, 2, func(ctx context.Context, i int) (err error) {
		if i == 0 {
			f, fb, err = walk.FRankOver(ctx, g, q, wp)
		} else {
			t, tb, err = walk.TRankOver(ctx, g, q, wp)
		}
		return err
	})
	if err != nil {
		return nil, nil, fb, tb, err
	}
	return f, t, fb, tb, nil
}

// Combine merges F-Rank and T-Rank vectors into RoundTripRank+ scores
// f^(1−β)·t^β. β = 0 returns a copy of f, β = 1 a copy of t; intermediate
// values use the geometric weighting of Eq. 12. Zero scores stay zero.
func Combine(f, t []float64, beta float64) []float64 {
	out := make([]float64, len(f))
	switch {
	case beta == 0:
		copy(out, f)
	case beta == 1:
		copy(out, t)
	default:
		for i := range f {
			out[i] = combined(f[i], t[i], beta)
		}
	}
	return out
}

// combined is one node's RoundTripRank+ score at 0 < β < 1: f^(1−β)·t^β, zero
// where either is not positive.
func combined(f, t, beta float64) float64 {
	if f <= 0 || t <= 0 {
		return 0
	}
	return math.Pow(f, 1-beta) * math.Pow(t, beta)
}

// TopCombined returns TopN(Combine(f, t, beta), n, keep), entry for entry
// and bit for bit, without combining every node: once TopN's heap holds n
// nodes, a node is combined only if it might beat the root, the worst of
// them (belowRoot). The two powers are most of an exact response's ranking
// cost at β ≠ ½, where math.Pow takes no square-root path.
func TopCombined(f, t []float64, beta float64, n int, keep func(graph.NodeID) bool) []Ranked {
	switch {
	case beta == 0:
		return TopN(f, n, keep)
	case beta == 1:
		return TopN(t, n, keep)
	case n <= 0:
		return []Ranked{}
	}
	h := make([]Ranked, 0, min(n, len(f)))
	for i := range f {
		v := graph.NodeID(i)
		switch {
		case keep != nil && !keep(v):
		case len(h) < n:
			h = append(h, Ranked{Node: v, Score: combined(f[i], t[i], beta)})
			siftUp(h)
		case belowRoot(f[i], t[i], beta, h[0].Score):
		default:
			if r := (Ranked{Node: v, Score: combined(f[i], t[i], beta)}); rankOrder(r, h[0]) < 0 {
				h[0] = r
				siftDown(h)
			}
		}
	}
	slices.SortFunc(h, rankOrder)
	return h
}

// belowRoot reports that f^(1−β)·t^β, as combined computes it, cannot beat
// root — a node after the root's must beat it, not tie it. By AM–GM the
// score is at most the weighted mean (1−β)·f + β·t, so it cannot when the
// mean, squared and doubled against rounding (as topk.CertifyExact does), is
// at most root squared. It never reports a root below 2^-500, whose square
// might not be normal.
func belowRoot(f, t, beta, root float64) bool {
	am := (1-beta)*f + beta*t
	return root >= 0x1p-500 && 2*am*am <= root*root
}

// Ranked pairs a node with its score.
type Ranked struct {
	Node  graph.NodeID
	Score float64
}

// Rank sorts nodes by descending score. Nodes for which keep returns false are
// dropped (pass nil to keep everything); ties are broken by node ID for
// deterministic output. Zero-score nodes are retained so that recall-oriented
// metrics can still find ground-truth nodes deep in the ranking.
func Rank(scores []float64, keep func(graph.NodeID) bool) []Ranked {
	out := make([]Ranked, 0, len(scores))
	for i, s := range scores {
		v := graph.NodeID(i)
		if keep != nil && !keep(v) {
			continue
		}
		out = append(out, Ranked{Node: v, Score: s})
	}
	slices.SortFunc(out, rankOrder)
	return out
}

// rankOrder is the total order of a ranking: score descending (cmp.Compare,
// so NaN ranks last), then node ascending.
func rankOrder(a, b Ranked) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	return cmp.Compare(a.Node, b.Node)
}

// TopN returns the first n entries of Rank(scores, keep), none when n ≤ 0. It
// keeps the n best seen so far in a heap whose root is the worst of them, so
// it costs O(N log n) rather than Rank's sort of all N.
func TopN(scores []float64, n int, keep func(graph.NodeID) bool) []Ranked {
	if n <= 0 {
		return []Ranked{}
	}
	h := make([]Ranked, 0, min(n, len(scores)))
	for i, s := range scores {
		r := Ranked{Node: graph.NodeID(i), Score: s}
		switch {
		case keep != nil && !keep(r.Node):
		case len(h) < n:
			h = append(h, r)
			siftUp(h)
		case rankOrder(r, h[0]) < 0:
			h[0] = r
			siftDown(h)
		}
	}
	slices.SortFunc(h, rankOrder)
	return h
}

// siftUp restores TopN's heap order (every parent ranks after its children)
// above an appended leaf.
func siftUp(h []Ranked) {
	for c := len(h) - 1; c > 0; {
		p := (c - 1) / 2
		if rankOrder(h[p], h[c]) >= 0 {
			return
		}
		h[p], h[c] = h[c], h[p]
		c = p
	}
}

// siftDown restores TopN's heap order below a replaced root.
func siftDown(h []Ranked) {
	for p := 0; ; {
		c := 2*p + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && rankOrder(h[c+1], h[c]) > 0 {
			c++
		}
		if rankOrder(h[p], h[c]) >= 0 {
			return
		}
		h[p], h[c] = h[c], h[p]
		p = c
	}
}

// TypeFilter returns a keep-function that retains only nodes of the given type
// and drops the listed excluded nodes (typically the query itself), matching
// the evaluation protocol of Sect. VI-A ("we filter out the query node itself
// and nodes not of the target type").
func TypeFilter(g *graph.Graph, t graph.Type, exclude ...graph.NodeID) func(graph.NodeID) bool {
	ex := make(map[graph.NodeID]bool, len(exclude))
	for _, v := range exclude {
		ex[v] = true
	}
	return func(v graph.NodeID) bool {
		return g.Type(v) == t && !ex[v]
	}
}

// EnumerateRoundTrips computes, for every target node v, the exact probability
// that a round trip of constant length L + Lp starting and ending at q has v
// as its target (the numerator of Eq. 4). It materializes dense transition
// matrix powers and is intended for small validation graphs only (Fig. 4 uses
// L = Lp = 2 on the toy network of Fig. 2). The context is checked between
// matrix-power steps.
func EnumerateRoundTrips(ctx context.Context, view graph.View, q graph.NodeID, L, Lp int) ([]float64, error) {
	ctx = walk.OrBackground(ctx)
	n := view.NumNodes()
	if int(q) < 0 || int(q) >= n {
		return nil, fmt.Errorf("core: query node %d out of range", q)
	}
	if L < 0 || Lp < 0 {
		return nil, fmt.Errorf("core: walk lengths must be non-negative")
	}
	if n > 4096 {
		return nil, fmt.Errorf("core: EnumerateRoundTrips is restricted to small graphs (%d nodes)", n)
	}
	m := denseTransition(view)
	fromQ := unitRow(n, int(q)) // distribution after k steps starting at q
	for i := 0; i < L; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fromQ = mulRow(fromQ, m)
	}
	// For the return leg we need, for each v, the probability that Lp steps
	// from v end at q: column q of M^Lp, computed as a row of the transpose.
	toQ := unitRow(n, int(q))
	mt := transpose(m)
	for i := 0; i < Lp; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		toQ = mulRow(toQ, mt)
	}
	out := make([]float64, n)
	for v := 0; v < n; v++ {
		out[v] = fromQ[v] * toQ[v]
	}
	return out, nil
}

func denseTransition(view graph.View) [][]float64 {
	rows := view.NewRows()
	n := rows.NumNodes()
	m := make([][]float64, n)
	for i := 0; i < n; i++ {
		m[i] = make([]float64, n)
		sum := rows.OutSum(graph.NodeID(i))
		if sum <= 0 {
			continue
		}
		cols, ws := rows.OutRow(graph.NodeID(i))
		for j, to := range cols {
			m[i][to] += ws[j] / sum
		}
	}
	return m
}

func transpose(m [][]float64) [][]float64 {
	n := len(m)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			out[i][j] = m[j][i]
		}
	}
	return out
}

func unitRow(n, i int) []float64 {
	r := make([]float64, n)
	r[i] = 1
	return r
}

func mulRow(row []float64, m [][]float64) []float64 {
	n := len(row)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		if row[i] == 0 {
			continue
		}
		mi := m[i]
		for j := 0; j < n; j++ {
			if mi[j] != 0 {
				out[j] += row[i] * mi[j]
			}
		}
	}
	return out
}

// SpecificityBiasFromSurfers converts a hybrid-surfer composition
// (|Ω11|, |Ω10|, |Ω01|) into the equivalent specificity bias β of Eq. 11–12:
// β = (|Ω11| + |Ω01|) / (|Ω| + |Ω11|). It errors when no surfers are given.
func SpecificityBiasFromSurfers(balanced, importanceOnly, specificityOnly int) (float64, error) {
	if balanced < 0 || importanceOnly < 0 || specificityOnly < 0 {
		return 0, fmt.Errorf("core: surfer counts must be non-negative")
	}
	total := balanced + importanceOnly + specificityOnly
	if total == 0 {
		return 0, fmt.Errorf("core: at least one surfer is required")
	}
	return float64(balanced+specificityOnly) / float64(total+balanced), nil
}
