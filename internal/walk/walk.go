// Package walk implements the random-walk machinery underlying RoundTripRank:
// the query abstraction (single- or multi-node with the PPR Linearity
// Theorem), the exact iterative solvers — F-Rank (Eq. 5 of the paper,
// equivalent to Personalized PageRank by Proposition 1), T-Rank (Eq. 8) and
// global PageRank (used by the ObjSqrtInv baseline), three update rules over
// one power iteration and one row-gather seam (kernels.go), where a gather
// reduces the rows of the solve's support, the nodes a walk can reach — and
// Monte-Carlo walk sampling utilities used by the sampling-based baselines.
package walk

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"roundtriprank/internal/graph"
)

// OrBackground returns ctx, or context.Background when ctx is nil. Every
// solver entry point here and in the dependent packages (core, topk, bca)
// normalizes its context with it once, so the iteration loops can call
// ctx.Err() directly.
func OrBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// DefaultAlpha is the teleport probability used throughout the paper's
// experiments (Sect. VI-A1): walk lengths are Geometric(0.25).
const DefaultAlpha = 0.25

// Params controls the iterative F-Rank / T-Rank solvers.
type Params struct {
	// Alpha is the teleport (restart) probability; the geometric walk-length
	// parameter of Proposition 1. Must be in (0, 1).
	Alpha float64
	// Tol is the L1 convergence tolerance of the power iteration: a solve
	// stops at the first step x → J(x) with ‖J(x) − x‖₁ < Tol. It is a
	// certificate for both legs: every entry of T-Rank's J(x) lies within
	// (1−α)/α·Tol of the exact t, and F-Rank's within that carried through its
	// dangling-mass scaling (tRank, fRank, Bound). Zero means DefaultTol.
	Tol float64
	// MaxIter caps the number of iterations. Zero means DefaultMaxIter.
	MaxIter int
}

// Default tolerances for the iterative solvers.
const (
	DefaultTol     = 1e-9
	DefaultMaxIter = 200
)

// Bound is an exact solve's own error bound, from its last step's L1 change:
// every entry is within Err of the exact value; Converged: that change < Tol.
type Bound struct {
	Err       float64
	Converged bool
}

// DefaultParams returns the parameters used in the paper's effectiveness
// experiments.
func DefaultParams() Params {
	return Params{Alpha: DefaultAlpha, Tol: DefaultTol, MaxIter: DefaultMaxIter}
}

// CheckAlpha is the one predicate for "valid α" behind every door that takes
// one (each prefixes the error with its package), written to fail on NaN.
func CheckAlpha(alpha float64) error {
	if !(alpha > 0 && alpha < 1) {
		return fmt.Errorf("alpha must be in (0,1), got %g", alpha)
	}
	return nil
}

// normalized validates Alpha and Tol and substitutes the default tolerance
// and iteration cap for zero values; every solve, over any Gatherer, passes
// through it.
func (p Params) normalized() (Params, error) {
	if err := CheckAlpha(p.Alpha); err != nil {
		return p, fmt.Errorf("walk: %w", err)
	}
	tol, err := normalizedTol(p.Tol)
	if err != nil {
		return p, err
	}
	p.Tol = tol
	if p.MaxIter <= 0 {
		p.MaxIter = DefaultMaxIter
	}
	return p, nil
}

// normalizedTol refuses a NaN or +Inf tolerance — NaN never converges,
// +Inf stops after one sweep — and substitutes the default for a tolerance
// that is not positive.
func normalizedTol(tol float64) (float64, error) {
	if math.IsNaN(tol) || math.IsInf(tol, 1) {
		return tol, fmt.Errorf("walk: tolerance must be finite, got %g", tol)
	}
	if tol <= 0 {
		tol = DefaultTol
	}
	return tol, nil
}

// Query is a probability distribution over query nodes. Per the Linearity
// Theorem (Jeh & Widom), F-Rank, T-Rank and hence RoundTripRank for a
// multi-node query are the corresponding mixtures of the single-node values,
// so the solvers simply start from the mixture.
type Query struct {
	Nodes   []graph.NodeID
	Weights []float64
}

// SingleNode returns a query concentrated on one node.
func SingleNode(v graph.NodeID) Query {
	return Query{Nodes: []graph.NodeID{v}, Weights: []float64{1}}
}

// MultiNode returns a uniformly weighted query over the given nodes.
// Duplicates accumulate weight.
func MultiNode(nodes ...graph.NodeID) Query {
	w := make([]float64, len(nodes))
	for i := range w {
		w[i] = 1
	}
	return Query{Nodes: nodes, Weights: w}
}

// totalWeight validates the query's shape and weights — finite, non-negative,
// not all zero — and returns their sum. The comparisons are written to fail
// on NaN, which would otherwise normalize into an all-NaN restart vector.
func (q Query) totalWeight() (float64, error) {
	if len(q.Nodes) == 0 || len(q.Nodes) != len(q.Weights) {
		return 0, fmt.Errorf("walk: query must have matching non-empty nodes and weights")
	}
	total := 0.0
	for _, w := range q.Weights {
		if !(w >= 0) || math.IsInf(w, 1) {
			return 0, fmt.Errorf("walk: query weights must be finite and non-negative, got %g", w)
		}
		total += w
	}
	if !(total > 0) || math.IsInf(total, 1) {
		return 0, fmt.Errorf("walk: query weights must sum to a positive finite total, got %g", total)
	}
	return total, nil
}

// Normalize returns a copy of q with weights scaled to sum to one. It returns
// an error if the query is empty, has a negative or non-finite weight, or has
// zero total weight.
func (q Query) Normalize() (Query, error) {
	total, err := q.totalWeight()
	if err != nil {
		return Query{}, err
	}
	out := Query{Nodes: append([]graph.NodeID(nil), q.Nodes...), Weights: make([]float64, len(q.Weights))}
	for i, w := range q.Weights {
		out.Weights[i] = w / total
	}
	return out, nil
}

// NormalizeInto is the allocation-free Normalize used by the pooled online
// hot path: it validates the query against a graph of numNodes nodes and
// appends the normalized, duplicate-merged restart distribution to the
// caller's reusable nodes/weights buffers (pass them resliced to length
// zero). Unlike Normalize it also range-checks the query nodes and merges
// duplicates (first occurrence keeps the position), so the result is a
// deterministic sparse restart vector ready for flat-array iteration.
func (q Query) NormalizeInto(numNodes int, nodes []graph.NodeID, weights []float64) ([]graph.NodeID, []float64, error) {
	total, err := q.totalWeight()
	if err != nil {
		return nodes, weights, err
	}
outer:
	for i, v := range q.Nodes {
		if int(v) < 0 || int(v) >= numNodes {
			return nodes, weights, fmt.Errorf("walk: query node %d out of range [0,%d)", v, numNodes)
		}
		w := q.Weights[i] / total
		for j, u := range nodes {
			if u == v {
				weights[j] += w
				continue outer
			}
		}
		nodes = append(nodes, v)
		weights = append(weights, w)
	}
	return nodes, weights, nil
}

// Contains reports whether v is one of the query nodes.
func (q Query) Contains(v graph.NodeID) bool {
	for _, n := range q.Nodes {
		if n == v {
			return true
		}
	}
	return false
}

// restart scatters the normalized query distribution onto the zeroed dst.
func (q Query) restart(dst []float64) error {
	total, err := q.totalWeight()
	if err != nil {
		return err
	}
	for i, v := range q.Nodes {
		if int(v) < 0 || int(v) >= len(dst) {
			return fmt.Errorf("walk: query node %d out of range [0,%d)", v, len(dst))
		}
		dst[v] += q.Weights[i] / total
	}
	return nil
}

// FRank computes f(q, v) for every node v: the probability that a walk of
// geometric length starting from the query ends at v (Eq. 1), equal to
// Personalized PageRank with teleport probability Alpha (Proposition 1). A walk
// at a dangling node (zero out-weight) ends without a destination, as it does
// on the T-Rank side, so the returned slice sums to one less the mass of the
// walks that end so: to one when no walk from the query reaches a dead end.
//
// It is FRankOver the view's Local Gatherer. The context is checked once per
// power iteration: cancelling it makes FRank return ctx.Err() within one sweep
// over the edges.
func FRank(ctx context.Context, view graph.View, q Query, p Params) ([]float64, error) {
	f, _, err := FRankOver(ctx, Local(view, 0), q, p)
	return f, err
}

// TRank computes t(q, v) for every node v: the probability that a walk of
// geometric length starting from v ends at the query (Eq. 8). Unlike F-Rank,
// t(q, ·) is not a distribution over v; each entry is a probability in [0, 1].
// For a multi-node query, t(q, v) is the query-weighted mixture of the
// single-node values, mirroring the linearity used for F-Rank. It is
// TRankOver the view's Local Gatherer, cancelled exactly as FRank.
func TRank(ctx context.Context, view graph.View, q Query, p Params) ([]float64, error) {
	t, _, err := TRankOver(ctx, Local(view, 0), q, p)
	return t, err
}

// FRankOver is the F-Rank solve over any Gatherer — in-process rows (Local) or
// a worker fleet (distributed.Fleet), bit-identical across them — and its Bound.
func FRankOver(ctx context.Context, g Gatherer, q Query, p Params) ([]float64, Bound, error) {
	return solve(ctx, g, q, p, fRank)
}

// TRankOver is the T-Rank solve over any Gatherer, with its Bound.
func TRankOver(ctx context.Context, g Gatherer, q Query, p Params) ([]float64, Bound, error) {
	return solve(ctx, g, q, p, tRank)
}

// solve is the one door to the personalized rules: it validates the
// parameters and scatters the normalized query onto the restart vector.
func solve(ctx context.Context, g Gatherer, q Query, p Params,
	rule func(context.Context, Gatherer, []float64, Params) ([]float64, Bound, error),
) ([]float64, Bound, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, Bound{}, err
	}
	restart := make([]float64, len(g.OutSums()))
	if err := q.restart(restart); err != nil {
		return nil, Bound{}, err
	}
	return rule(OrBackground(ctx), g, restart, p)
}

// GlobalPageRank computes the standard (non-personalized) PageRank with the
// given damping factor d: the stationary distribution of a surfer that
// teleports to a uniformly random node with probability d. It is used by the
// ObjSqrtInv baseline (global ObjectRank) and as a popularity prior in the
// dataset generators.
func GlobalPageRank(ctx context.Context, view graph.View, d float64, tol float64, maxIter int) ([]float64, error) {
	if !(d > 0 && d < 1) {
		return nil, fmt.Errorf("walk: damping must be in (0,1), got %g", d)
	}
	tol, err := normalizedTol(tol)
	if err != nil {
		return nil, err
	}
	if maxIter <= 0 {
		maxIter = DefaultMaxIter
	}
	if view.NumNodes() == 0 {
		return nil, fmt.Errorf("walk: empty graph")
	}
	return pageRank(OrBackground(ctx), Local(view, 0), d, tol, maxIter)
}

// Sampler draws random-walk trajectories on a View, reading its rows. It is
// used by the Monte-Carlo baselines (SimRank, truncated commute time) and by
// tests that cross-validate the iterative solvers against simulation.
type Sampler struct {
	rows graph.Rows
	rng  *rand.Rand
}

// NewSampler returns a Sampler using the given random source.
func NewSampler(view graph.View, rng *rand.Rand) *Sampler {
	return &Sampler{rows: view.NewRows(), rng: rng}
}

// Step samples one forward random-walk step from v proportionally to edge
// weights. It returns the next node and false when v has no outgoing edges.
func (s *Sampler) Step(v graph.NodeID) (graph.NodeID, bool) {
	cols, ws := s.rows.OutRow(v)
	return s.pick(v, cols, ws, s.rows.OutSum(v))
}

// StepBack samples one backward step (an in-edge) from v proportionally to
// edge weights, i.e. a forward step on the reversed graph.
func (s *Sampler) StepBack(v graph.NodeID) (graph.NodeID, bool) {
	cols, ws := s.rows.InRow(v)
	sum := 0.0
	for _, w := range ws {
		sum += w
	}
	return s.pick(v, cols, ws, sum)
}

// pick draws one entry of a row whose weights total sum.
func (s *Sampler) pick(v graph.NodeID, cols []graph.NodeID, ws []float64, sum float64) (graph.NodeID, bool) {
	if sum <= 0 || len(cols) == 0 {
		return v, false
	}
	target := s.rng.Float64() * sum
	acc := 0.0
	for i, w := range ws {
		acc += w
		if acc >= target {
			return cols[i], true
		}
	}
	// Floating-point slack: fall back to the last edge.
	return cols[len(cols)-1], true
}

// GeometricWalk walks forward from start with a geometric number of steps
// (restart probability alpha) and returns the end node, the F-Rank event
// (Eq. 1). A walk due to step on from a dangling node ends without a
// destination, as in FRank: it returns false.
func (s *Sampler) GeometricWalk(start graph.NodeID, alpha float64) (graph.NodeID, bool) {
	cur := start
	for s.rng.Float64() >= alpha {
		next, ok := s.Step(cur)
		if !ok {
			return cur, false
		}
		cur = next
	}
	return cur, true
}
