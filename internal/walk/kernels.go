package walk

import (
	"context"
	"math"
	"runtime"

	"roundtriprank/internal/fan"
	"roundtriprank/internal/graph"
)

// This file holds the exact solvers: one power iteration over a row-gather
// seam. F-Rank, T-Rank and PageRank are three update rules handed to the same
// loop; where the rows live — flat arrays, packed arrays, a striped worker
// fleet (internal/distributed) — is a Gatherer beneath it. Every Gatherer
// reduces each output row sequentially, in stored entry order, and everything
// around the gather (transition scaling, dangling mass, update, L1 test,
// T-Rank's tail jump) is serial in ascending node order, so a solve is
// bit-identical across representations, worker counts and stripe counts by
// construction (the serial references in kernels_test.go pin it, gather by
// gather).

// Gatherer is the row-gather seam of the exact solvers: one sparse
// matrix-vector product per power iteration. x and dst have one entry per
// node; a gather must overwrite every entry of dst, reducing each row
// sequentially in stored entry order, and must not retain either slice. A
// failed gather aborts the solve.
type Gatherer interface {
	// OutSums returns every node's total out-weight; its length is the node
	// count. Read-only, and constant for the Gatherer's lifetime.
	OutSums() []float64
	// GatherIn fills dst[v] = Σ_{u→v} w(u,v)·x[u], the pull over the
	// transposed adjacency that drives F-Rank and PageRank.
	GatherIn(ctx context.Context, x, dst []float64) error
	// GatherOut fills dst[v] = Σ_{v→to} w(v,to)·x[to], the reduction of each
	// node's own forward row that drives T-Rank.
	GatherOut(ctx context.Context, x, dst []float64) error
}

// local is the in-process Gatherer: the layout's own row reductions
// (graph.View.GatherIn/GatherOut), row-partitioned over the goroutines of one
// gather. Pull form is what makes the partitioning race-free — dst[v] is
// written by exactly one of them — and each row is reduced sequentially by
// whoever owns it, so the worker count changes who computes a row, never the
// floating-point operation order within it.
type local struct {
	view    graph.View
	workers int
}

// Local returns the in-process Gatherer of a view — flat rows or packed rows,
// whichever the layout holds. workers is the number of goroutines each gather
// runs on, as Params.Workers. A Local holds nothing but the view: gathers on
// it, concurrent ones included, share no worker and cannot wait on each other.
func Local(view graph.View, workers int) Gatherer {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return local{view: view, workers: workers}
}

func (l local) OutSums() []float64 { return l.view.OutSums() }

func (l local) GatherIn(ctx context.Context, x, dst []float64) error {
	return split(ctx, len(dst), l.workers, func(lo, hi int) { l.view.GatherIn(x, dst, lo, hi) })
}

func (l local) GatherOut(ctx context.Context, x, dst []float64) error {
	return split(ctx, len(dst), l.workers, func(lo, hi int) { l.view.GatherOut(x, dst, lo, hi) })
}

// split partitions [0, n) into contiguous chunks of ⌈n/k⌉ and runs fn(lo, hi)
// on each through fan.Do, on up to k goroutines that live for the one call. A
// goroutine start costs about a microsecond against a chunk's share of a pass
// over the edges.
func split(ctx context.Context, n, k int, fn func(lo, hi int)) error {
	chunk := max((n+k-1)/k, 1)
	return fan.Do(ctx, (n+chunk-1)/chunk, k, func(_ context.Context, i int) error {
		lo := i * chunk
		fn(lo, min(lo+chunk, n))
		return nil
	})
}

// iterate is the power iteration, written once: check the context, gather
// every row against this iteration's input vector, let the rule rewrite the
// row sums in next into the new iterate while it accumulates Σ|cur−next|,
// swap, stop below tol. cur is consumed. The seam is per vector — a per-row
// callback costs an indirect call per node per iteration. jump, when not nil,
// may move next after a step that neither stops the run nor is its last, so
// the vector returned is always a plain step.
func iterate(ctx context.Context, cur []float64, tol float64, maxIter int,
	gather func(ctx context.Context, x, dst []float64) error,
	input func(cur []float64) []float64,
	update func(cur, next []float64) float64,
	jump func(cur, next []float64, diff float64),
) ([]float64, error) {
	next := make([]float64, len(cur))
	for iter := 0; iter < maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := gather(ctx, input(cur), next); err != nil {
			return nil, err
		}
		diff := update(cur, next)
		if diff < tol {
			return next, nil
		}
		if jump != nil && iter+1 < maxIter {
			jump(cur, next, diff)
		}
		cur, next = next, cur
	}
	return cur, nil
}

// scale fills scaled[u] = cur[u]/outSum[u], the transition scaling of a pull
// over the transposed adjacency, and returns the mass sitting on dangling
// nodes (zero out-weight).
func scale(scaled, cur, outSum []float64) (dangling float64) {
	for u, sum := range outSum {
		if sum > 0 {
			scaled[u] = cur[u] / sum
		} else {
			scaled[u] = 0
			dangling += cur[u]
		}
	}
	return dangling
}

// fRank is the F-Rank rule (Eq. 5), f = α·(I − (1−α)Pᵀ)⁻¹·restart, under
// the walk model every layer shares: a walk at a dangling node ends. It
// iterates
//
//	next[v] = α·restart[v] + (1−α)·Σ_{u→v} w(u,v)·cur[u]/outSum(u) + (1−α)·D·restart[v]
//
// with D the mass on dangling nodes, restarted at the query. Restarting keeps
// the iterate a distribution, and it converges much faster than the plain
// form of Eq. 5: 15–22 iterations against 55 on the bench spine's directed
// R-MAT queries. Its fixed point x solves x = (α + (1−α)·D)·(I − (1−α)Pᵀ)⁻¹·
// restart for x's own D, so one scaling by α/(α + (1−α)·D) turns it into f;
// without dangling mass x is f as it stands, bit for bit.
func fRank(ctx context.Context, g Gatherer, restart []float64, p Params) ([]float64, error) {
	outSum := g.OutSums()
	scaled := make([]float64, len(restart))
	oneMinus := 1 - p.Alpha
	dadd := 0.0
	x, err := iterate(ctx, append([]float64(nil), restart...), p.Tol, p.MaxIter, g.GatherIn,
		func(cur []float64) []float64 {
			dadd = oneMinus * scale(scaled, cur, outSum)
			return scaled
		},
		func(cur, next []float64) (diff float64) {
			for v, sum := range next {
				r := restart[v]
				nv := p.Alpha*r + oneMinus*sum
				if dadd > 0 && r > 0 {
					nv += dadd * r
				}
				next[v] = nv
				diff += math.Abs(cur[v] - nv)
			}
			return diff
		}, nil)
	if err != nil {
		return nil, err
	}
	dangling := 0.0
	for u, sum := range outSum {
		if sum <= 0 {
			dangling += x[u]
		}
	}
	if dangling > 0 {
		c := p.Alpha / (p.Alpha + oneMinus*dangling)
		for v := range x {
			x[v] *= c
		}
	}
	return x, nil
}

// tRank is the T-Rank rule (Eq. 8), the Jacobi step
//
//	J(x)[v] = α·restart[v] + (1−α)·(Σ_{v→to} w(v,to)·x[to]) / outSum(v)
//
// with a geometric-tail jump between steps (geometricTail). The run stops at
// the first plain step whose L1 change ‖J(x) − x‖₁ is below Tol and returns
// that step, J(x). J is a (1−α)-contraction in the ∞-norm, so for any x,
// jumped or not, ‖t − J(x)‖∞ ≤ (1−α)/α·‖J(x) − x‖∞: the returned vector is
// within (1−α)/α·Tol of t in every entry.
func tRank(ctx context.Context, g Gatherer, restart []float64, p Params) ([]float64, error) {
	outSum := g.OutSums()
	cur := make([]float64, len(restart))
	for i := range cur {
		cur[i] = p.Alpha * restart[i]
	}
	oneMinus := 1 - p.Alpha
	tail := geometricTail{prev: make([]float64, len(restart))}
	return iterate(ctx, cur, p.Tol, p.MaxIter, g.GatherOut,
		func(cur []float64) []float64 { return cur },
		func(cur, next []float64) (diff float64) {
			for v, s := range next {
				acc := p.Alpha * restart[v]
				if sum := outSum[v]; sum > 0 {
					acc += oneMinus * s / sum
				}
				next[v] = acc
				diff += math.Abs(cur[v] - acc)
			}
			return diff
		},
		tail.jump)
}

// tailGate is δ, how closely the last two changes must be one geometric mode
// before geometricTail trusts it: ‖d_k − ρ·d_{k−1}‖₁ ≤ δ·‖d_k‖₁. The part of
// d_k the mode does not explain is carried into the jump with the same
// factor ρ/(1−ρ) as the mode itself, so a jump leaves about δ of the
// distance to t it removes: 1 % is a 100-fold cut, some 15 plain sweeps at
// the R-MAT spine's ρ ≈ 0.73. The gate is not a tuning knob: on the spine's
// 32 exact queries T takes 604 gathers in all at δ = 10⁻², and 615–627 at
// any δ from 10⁻⁴ to 10⁻¹, against 2 144 for the plain iteration. A
// sign-alternating mode fails the gate at any δ, since ρ is a ratio of norms
// and so never negative.
const tailGate = 1e-2

// geometricTail is T-Rank's extrapolation of a geometric tail (Kamvar,
// Haveliwala, Manning, Golub, "Extrapolation Methods for Accelerating
// PageRank Computations", WWW 2003, reduced to its scalar case). T's slow
// mode is the walks that leak slowly out of a graph's core: its change
// shrinks by ρ ≈ (1−α)·ρ(P) a sweep and, unlike F's, it cannot be restarted
// away. When d_k = ρ·d_{k−1} holds, the steps still to come sum to
// ρ/(1−ρ)·d_k, and jump takes them at once. The jump is serial vector math
// over the iterate, above the Gatherer seam, so a solve stays bit-identical
// across layouts, worker counts and fleets.
type geometricTail struct {
	prev  []float64 // d_{k−1}, the last plain step's change
	norm  float64   // ‖d_{k−1}‖₁
	fresh int       // plain steps recorded since the start or the last jump
}

// jump records the change d_k = next − cur of a plain step that moved by
// diff = ‖d_k‖₁, and, when ρ = diff/‖d_{k−1}‖₁ is below one and passes the
// gate, moves next to next + ρ/(1−ρ)·d_k, clamped to [0, 1] where every t
// lies. Both changes must be plain steps taken since the last jump, so two
// plain steps follow every jump.
func (t *geometricTail) jump(cur, next []float64, diff float64) {
	t.fresh++
	rho := diff / t.norm
	armed := t.fresh >= 2 && rho < 1
	resid := 0.0
	for v, nv := range next {
		d := nv - cur[v]
		if armed {
			resid += math.Abs(d - rho*t.prev[v])
		}
		t.prev[v] = d
	}
	t.norm = diff
	if !armed || resid > tailGate*diff {
		return
	}
	c := rho / (1 - rho)
	for v, d := range t.prev {
		next[v] = min(max(next[v]+c*d, 0), 1)
	}
	t.fresh = 0
}

// pageRank is the global PageRank rule: the same pull as fRank, but with a
// uniform restart and dangling mass spread uniformly. It keeps its own update
// expression — base + (1−d)·sum is not F-Rank with a uniform restart bit for
// bit, and the ObjSqrtInv baseline's published figures consume it.
func pageRank(ctx context.Context, g Gatherer, d, tol float64, maxIter int) ([]float64, error) {
	outSum := g.OutSums()
	uniform := 1.0 / float64(len(outSum))
	cur := make([]float64, len(outSum))
	for i := range cur {
		cur[i] = uniform
	}
	scaled := make([]float64, len(outSum))
	oneMinus := 1 - d
	base := 0.0
	return iterate(ctx, cur, tol, maxIter, g.GatherIn,
		func(cur []float64) []float64 {
			dangling := scale(scaled, cur, outSum)
			base = d*uniform + oneMinus*dangling*uniform
			return scaled
		},
		func(cur, next []float64) (diff float64) {
			for v, sum := range next {
				nv := base + oneMinus*sum
				next[v] = nv
				diff += math.Abs(cur[v] - nv)
			}
			return diff
		}, nil)
}
