package walk

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"roundtriprank/internal/fan"
	"roundtriprank/internal/graph"
)

// This file holds the exact solvers: one power iteration over a row-gather
// seam. F-Rank, T-Rank and PageRank are three update rules handed to the same
// loop; where the rows live — flat arrays, packed ones decoded once a solve,
// a striped worker fleet (internal/distributed) — is a Gatherer beneath it.
// A personalized solve sweeps only its support, the rows a walk can reach,
// listed once per solve: T-Rank the nodes with out-weight and the query
// nodes, F-Rank the nodes with an in-row or restart weight. A gather reduces
// the support's rows alone, and the passes around it visit its nodes alone —
// unless the support is nearly the whole graph (listedShare); every node a
// sweep skips holds an exact zero it would only have added to a non-negative
// sum. Every Gatherer reduces each row sequentially, in stored entry order,
// and everything around the gather (transition scaling, dangling mass,
// update, L1 test, the accelerator's mixing) is serial in ascending
// node order, so a solve is bit-identical across representations, worker
// counts, stripe counts and to a sweep over every row by construction (the
// serial references in kernels_test.go pin it, gather by gather).

// Gatherer is the row-gather seam of the exact solvers: one sparse
// matrix-vector product per power iteration. x and dst have one entry per
// node; a gather must fill dst[v] for every row v in rows, an ascending list —
// for every row when rows is nil — reducing each row sequentially in stored
// entry order. It may fill other rows of dst with their own reductions, and
// must not retain x or dst; it may keep what it fetched for a row list while
// gathers pass that same list, which the caller must not change. A failed
// gather aborts the solve.
type Gatherer interface {
	// OutSums returns every node's total out-weight; its length is the node
	// count. Read-only, and constant for the Gatherer's lifetime.
	OutSums() []float64
	// InSums returns every node's total in-weight, or nil where the rows do
	// not say (a worker fleet): F-Rank lists its support from it. Read-only,
	// and constant for the Gatherer's lifetime.
	InSums() []float64
	// GatherIn fills dst[v] = Σ_{u→v} w(u,v)·x[u], the pull over the
	// transposed adjacency that drives F-Rank and PageRank.
	GatherIn(ctx context.Context, x, dst []float64, rows []graph.NodeID) error
	// GatherOut fills dst[v] = Σ_{v→to} w(v,to)·x[to], the reduction of each
	// node's own forward row that drives T-Rank.
	GatherOut(ctx context.Context, x, dst []float64, rows []graph.NodeID) error
}

// local is the in-process Gatherer: graph.CSR.Gather over the rows the view
// hands out for a row list (graph.View.FlatRows), the listed rows — or the
// row range — partitioned over the goroutines of one gather. Pull form is
// what makes the partitioning race-free — dst[v] is written by exactly one of
// them — and each row is reduced sequentially by whoever owns it, so the
// worker count changes who computes a row, never the floating-point
// operation order within it.
type local struct {
	view    graph.View
	workers int
	fetched [2]atomic.Pointer[fetched] // indexed by graph.Dir
}

// fetched is one direction's rows as the view served them for one row list.
type fetched struct {
	list []graph.NodeID
	rows graph.CSR
}

// Local returns the in-process Gatherer of a view — flat rows or packed rows,
// whichever the layout holds. workers is the number of goroutines each gather
// runs on: zero or negative means GOMAXPROCS, one a serial solve on the
// calling goroutine; results are identical for every count. Per direction a
// Local keeps the rows it fetched for the last list gathered — a packed
// view's decoded once, held as long as the Local: make one per solve, or per
// pair of legs as core.Compute does.
// Gathers on it, concurrent ones included, share no worker and never wait on
// each other (two first gathers of one direction may both fetch).
func Local(view graph.View, workers int) Gatherer {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &local{view: view, workers: workers}
}

func (l *local) OutSums() []float64 { return l.view.OutSums() }

func (l *local) InSums() []float64 { return l.view.InSums() }

func (l *local) GatherIn(ctx context.Context, x, dst []float64, rows []graph.NodeID) error {
	return l.gather(ctx, graph.In, x, dst, rows)
}

func (l *local) GatherOut(ctx context.Context, x, dst []float64, rows []graph.NodeID) error {
	return l.gather(ctx, graph.Out, x, dst, rows)
}

// gather sweeps one direction's rows, fetched first unless they were fetched
// for this very list.
func (l *local) gather(ctx context.Context, dir graph.Dir, x, dst []float64, rows []graph.NodeID) error {
	f := l.fetched[dir].Load()
	if f == nil || !sameList(f.list, rows) {
		f = &fetched{list: rows, rows: l.view.FlatRows(dir, rows)}
		l.fetched[dir].Store(f)
	}
	return split(ctx, extent(rows, dst), l.workers, func(lo, hi int) { f.rows.Gather(x, dst, rows, lo, hi) })
}

// sameList reports whether a and b are one list, or both nil.
func sameList(a, b []graph.NodeID) bool {
	return (a == nil) == (b == nil) && len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// extent is what a gather into dst partitions: the listed rows, or every row
// when rows is nil.
func extent(rows []graph.NodeID, dst []float64) int {
	if rows != nil {
		return len(rows)
	}
	return len(dst)
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

// listedShare is the crossover of the size dispatch: a solve sweeps a
// support listed when the list holds at most this share of the nodes, and
// every node in range order otherwise. A listed node costs an index read and
// a jump that range order does not; what listing buys is the nodes it skips,
// and on R-MAT also the branch on out-weight that flips from node to node.
// Measured per solve on one core of a 2-core x86-64 host: on the bench
// spine's R-MAT 10^5, whose supports hold 52 % of the nodes, listing takes
// 25–30 % off F and T; on the bench BibNet (2 407 of 2 427 nodes have
// out-weight), padded with isolated nodes to shares from 0.99 down, it adds
// 5 % at 0.99, 1–6 % at 0.9 and breaks even at 0.8.
const listedShare = 0.8

// crowded reports whether count of n nodes is more than share of them: too
// many to sweep listed.
func crowded(count, n int, share float64) bool {
	return float64(count) > share*float64(n)
}

// support lists, ascending, the nodes with weight in sums — out- or
// in-weight — or restart weight; it returns nil, every node, when they are
// more than share of the nodes. It counts them first, so a solve allocates
// no list it does not sweep, and exactly the one it does.
func support(sums, restart []float64, share float64) []graph.NodeID {
	count := 0
	for v, sum := range sums {
		if sum > 0 || restart[v] > 0 {
			count++
		}
	}
	if crowded(count, len(sums), share) {
		return nil
	}
	rows := make([]graph.NodeID, 0, count)
	for v, sum := range sums {
		if sum > 0 || restart[v] > 0 {
			rows = append(rows, graph.NodeID(v))
		}
	}
	return rows
}

// fSupport lists F-Rank's sweeps. rows is its support, the nodes with an
// in-row or restart weight — the only ones a walk from the query can be at —
// or nil, every node, where inSum is nil or the support is crowded. live and
// dead split rows (every node where rows is nil) by out-weight: the
// transition scaling divides over live, the dangling mass sums over dead.
// Both are nil, every node, when live is crowded.
func fSupport(outSum, inSum, restart []float64, share float64) (rows, live, dead []graph.NodeID) {
	if inSum != nil {
		rows = support(inSum, restart, share)
	}
	// One buffer holds both: live from the front, dead from the back.
	split := make([]graph.NodeID, extent(rows, outSum))
	front, back := 0, len(split)
	for i := range split {
		u := graph.NodeID(i)
		if rows != nil {
			u = rows[i]
		}
		if outSum[u] > 0 {
			split[front] = u
			front++
		} else {
			back--
			split[back] = u
		}
	}
	if crowded(front, len(outSum), share) {
		return rows, nil, nil
	}
	dead = split[front:]
	slices.Reverse(dead)
	return rows, split[:front], dead
}

// gatherBuffer returns the buffer a gather over rows fills apart from the
// iterate: n entries when rows is a list, none for every row. A listed gather
// may leave any row it skips as it was or fill it with its own reduction, so
// it must not fill next: outside the support next keeps the zeros it starts
// with. A gather of every row fills next, which the update rewrites in place.
func gatherBuffer(rows []graph.NodeID, n int) []float64 {
	if rows == nil {
		return nil
	}
	return make([]float64, n)
}

// gatherInto is where a step gathers: into sums, the buffer gatherBuffer
// made, or into next when it made none.
func gatherInto(sums, next []float64) []float64 {
	if sums == nil {
		return next
	}
	return sums
}

// iterate is the power iteration, written once: check the context, take one
// step from cur into next — a gather against cur and the rule's update,
// which returns the L1 change Σ|cur−next| — swap, stop below tol. cur is
// consumed. The seam is per vector — a per-row callback costs an indirect
// call per node per iteration. accel, when not nil, may move next after a
// step that neither stops the run nor is its last, so the vector returned is
// always a plain step, and diff that step's L1 change.
func iterate(ctx context.Context, cur []float64, tol float64, maxIter int,
	step func(ctx context.Context, cur, next []float64) (float64, error),
	accel func(cur, next []float64, diff float64),
) (x []float64, diff float64, err error) {
	next := make([]float64, len(cur))
	for iter := 0; iter < maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		if diff, err = step(ctx, cur, next); err != nil {
			return nil, 0, err
		}
		if diff < tol {
			return next, diff, nil
		}
		if accel != nil && iter+1 < maxIter {
			accel(cur, next, diff)
		}
		cur, next = next, cur
	}
	return cur, diff, nil
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
// without dangling mass x is f as it stands, bit for bit. The step G is a
// (1−α)-contraction in L1, so its fixed point is within e = (1−α)/α·‖G(x) − x‖₁
// of the last step x̂ = G(x) in L1, its dangling mass within e of x̂'s D, and
// f(v) in [(x̂(v) − e)·α/(α + (1−α)·(D + e)), (x̂(v) + e)·α/(α + (1−α)·max(0, D − e))]:
// the Bound is that interval's wider side about the scaled x̂(v), at the largest x̂(v).
// None of it asks where x came from, so a leg that stalls — eight steps in a
// row contracting by ρ ≥ ½ on a change the one before explains — switches to
// Anderson mixing for the rest of its solve (accelerator), which moves only
// the x a plain step starts from: the run still stops on, and returns, a
// plain step G(x), and the Bound holds.
func fRank(ctx context.Context, g Gatherer, restart []float64, p Params) ([]float64, Bound, error) {
	return fRankShare(ctx, g, restart, p, listedShare)
}

// fRankShare is fRank with the size dispatch's crossover as a parameter.
func fRankShare(ctx context.Context, g Gatherer, restart []float64, p Params, share float64) ([]float64, Bound, error) {
	outSum := g.OutSums()
	rows, live, dead := fSupport(outSum, g.InSums(), restart, share)
	scaled, sums := make([]float64, len(restart)), gatherBuffer(rows, len(restart))
	oneMinus := 1 - p.Alpha
	accel := accelerator{rows: rows}
	defer accel.release()
	x, diff, err := iterate(ctx, append([]float64(nil), restart...), p.Tol, p.MaxIter,
		func(ctx context.Context, cur, next []float64) (diff float64, err error) {
			dangling := 0.0
			if live == nil {
				dangling = scale(scaled, cur, outSum)
			} else {
				for _, u := range live {
					scaled[u] = cur[u] / outSum[u]
				}
				for _, u := range dead {
					dangling += cur[u]
				}
			}
			if err := g.GatherIn(ctx, scaled, gatherInto(sums, next), rows); err != nil {
				return 0, err
			}
			dadd := oneMinus * dangling
			if rows == nil {
				for v, sum := range next {
					nv := fNext(p.Alpha, dadd, restart[v], sum)
					next[v] = nv
					diff += math.Abs(cur[v] - nv)
				}
				return diff, nil
			}
			for _, v := range rows {
				nv := fNext(p.Alpha, dadd, restart[v], sums[v])
				next[v] = nv
				diff += math.Abs(cur[v] - nv)
			}
			return diff, nil
		}, accel.step)
	if err != nil {
		return nil, Bound{}, err
	}
	dangling := 0.0
	if dead == nil {
		for u, sum := range outSum {
			if sum <= 0 {
				dangling += x[u]
			}
		}
	} else {
		for _, u := range dead {
			dangling += x[u]
		}
	}
	e, scaling := oneMinus/p.Alpha*diff, func(d float64) float64 { return p.Alpha / (p.Alpha + oneMinus*d) }
	c, cUp, cLo, xMax := scaling(dangling), scaling(max(0, dangling-e)), scaling(dangling+e), slices.Max(x)
	width := max(xMax*(cUp-c)+e*cUp, xMax*(c-cLo)+e*cLo)
	if dangling > 0 {
		if rows == nil {
			for v := range x {
				x[v] *= c
			}
		} else {
			for _, v := range rows {
				x[v] *= c
			}
		}
	}
	return x, bound(width, x, diff < p.Tol), nil
}

// errUlps is the floor of every exact leg's Bound, in ulps of the largest
// entry it returns: a last step that moves by exactly 0 pins the answer only
// up to the rounding of the sums that made it.
const errUlps = 4

// bound is the Bound of a leg that returns x with error err.
func bound(err float64, x []float64, converged bool) Bound {
	top := slices.Max(x)
	return Bound{Err: max(err, errUlps*(math.Nextafter(top, math.Inf(1))-top)), Converged: converged}
}

// fNext is F-Rank's update of a node with restart weight r from its gathered
// row sum, dadd being (1−α)·D.
func fNext(alpha, dadd, r, sum float64) float64 {
	nv := alpha*r + (1-alpha)*sum
	if dadd > 0 && r > 0 {
		nv += dadd * r
	}
	return nv
}

// tRank is the T-Rank rule (Eq. 8), the Jacobi step
//
//	J(x)[v] = α·restart[v] + (1−α)·(Σ_{v→to} w(v,to)·x[to]) / outSum(v)
//
// with fRank's accelerator between steps: once the leg stalls, Anderson
// mixing for the rest of the solve. The run stops at the first plain step
// whose L1 change ‖J(x) − x‖₁ is below Tol and returns that step, J(x). J is
// a (1−α)-contraction in the ∞-norm, so for any x, mixed or not,
// ‖t − J(x)‖∞ ≤ (1−α)/α·‖J(x) − x‖∞: the returned vector is within
// (1−α)/α·‖J(x) − x‖₁ of t in every entry, its Bound.
func tRank(ctx context.Context, g Gatherer, restart []float64, p Params) ([]float64, Bound, error) {
	return tRankShare(ctx, g, restart, p, listedShare)
}

// tRankShare is tRank with the size dispatch's crossover as a parameter.
func tRankShare(ctx context.Context, g Gatherer, restart []float64, p Params, share float64) ([]float64, Bound, error) {
	outSum := g.OutSums()
	// T's support: the nodes with out-weight, the only ones a gather reduces
	// to anything, and the query nodes, whose restart weight every sweep
	// adds. Every other node's t is zero, and stays zero.
	rows := support(outSum, restart, share)
	cur, sums := make([]float64, len(restart)), gatherBuffer(rows, len(restart))
	for i := range cur {
		cur[i] = p.Alpha * restart[i]
	}
	accel := accelerator{rows: rows}
	defer accel.release()
	t, diff, err := iterate(ctx, cur, p.Tol, p.MaxIter,
		func(ctx context.Context, cur, next []float64) (diff float64, err error) {
			if err := g.GatherOut(ctx, cur, gatherInto(sums, next), rows); err != nil {
				return 0, err
			}
			if rows == nil {
				for v, s := range next {
					acc := tNext(p.Alpha, restart[v], s, outSum[v])
					next[v] = acc
					diff += math.Abs(cur[v] - acc)
				}
				return diff, nil
			}
			for _, v := range rows {
				acc := tNext(p.Alpha, restart[v], sums[v], outSum[v])
				next[v] = acc
				diff += math.Abs(cur[v] - acc)
			}
			return diff, nil
		},
		accel.step)
	if err != nil {
		return nil, Bound{}, err
	}
	return t, bound((1-p.Alpha)/p.Alpha*diff, t, diff < p.Tol), nil
}

// tNext is T-Rank's update of a node with restart weight r and out-weight
// sum from its gathered row sum s.
func tNext(alpha, r, s, sum float64) float64 {
	acc := alpha * r
	if sum > 0 {
		acc += (1 - alpha) * s / sum
	}
	return acc
}

// The switch to mixing. A plain step stalls when it contracts by
// ρ = δ_k/δ_{k−1} ≥ stallRatio and the change before it explains part of it:
// ‖d_k ∓ ρ·d_{k−1}‖₁ ≤ stallFit·δ_k for one sign. After stallRun stalled
// steps in a row a leg takes Anderson steps of depth mixDepth for the rest of
// its solve. The second clause keeps a travelling change on the plain path: a
// walk front that moves one node a step, along a cycle or a line, leaves
// ‖d_k ∓ ρ·d_{k−1}‖₁ at 2·δ_k for T and, up to rounding, at δ_k for F, whose
// front trails a negative change; stallFit stays clear of that rounding.
// Measured at seed 42 on 100 BibNet paper queries (the bench's scale 0.12)
// and 228 R-MAT 10^5 nodes (the spine's tail and hub rule): BibNet's 200 legs
// all engage and take 6 300 gathers against 12 100 plain; on R-MAT every T
// leg engages and takes 3 768 gathers in all against 15 044 plain, while F's
// restart leaves it no stall (3 800 gathers, none mixed). The run length is
// not a sharp knob: 4, 6, 8 and 10 took 40 of those BibNet queries' F legs
// 1 235 / 1 251 / 1 242 / 1 295 gathers against 2 102, and a mixed step
// streams about as much memory as a gather.
const (
	stallRatio = 0.5
	stallFit   = 0.95
	stallRun   = 8
	mixDepth   = 3
)

// mixDrop is how much of a column's norm must lie outside the span of the
// newer ones, squared, for the mixing to keep it: below it the column and
// every older one leave the history, since the normal equations square the
// history's condition number.
const mixDrop = 1e-10

// accelerator moves the iterate between plain steps, serial vector math over
// the solve's support above the Gatherer seam, so a solve stays
// bit-identical across layouts, worker counts and fleets: once a leg stalls,
// Anderson mixing for the rest of its solve (Walker, Ni, "Anderson
// Acceleration for Fixed-Point Iterations", SIAM J. Numer. Anal. 2011, type
// II). A leg stalls where slow modes decay together: on a near-bipartite
// graph such as BibNet a sign-alternating one beside a slow positive one, on
// R-MAT T's walks that leak slowly out of the graph's core, which F's restart
// removes. With f_k = G(x_k) − x_k and g_k = G(x_k), the history holds the
// last mixDepth differences ΔF of the f and ΔG of the g; each step solves
// min_γ ‖f_k − ΔF·γ‖₂ by its normal equations and moves to g_k − ΔG·γ,
// clamped to [0, 1] where every f and t lies. A mixed step whose residual
// grew clears the history.
//
// Mixing only moves the iterate a plain step starts from: the solve
// stops on, and returns, a plain step G(x), and its Bound, (1−α)/α·‖G(x) − x‖₁
// carried through F's scaling, holds for any x.
type accelerator struct {
	rows    []graph.NodeID // the solve's support; nil for every node
	prev    []float64      // d_{k−1}, the last recorded plain change; f_{k−1} once mixing
	norm    float64        // δ_{k−1}, the last step's L1 change
	fresh   bool           // prev holds the change just before this one
	stalled int            // stalled steps in a row

	// Anderson mixing, from the switch on: slab, taken from mixSlabs, holds
	// g and the columns.
	slab   *[]float64
	g      []float64                   // g_{k−1}
	df, dg [mixDepth][]float64         // ΔF and ΔG columns, a ring whose newest is slot
	gram   [mixDepth][mixDepth]float64 // ΔFᵀ·ΔF, by slot
	slot   int
	cols   int  // columns held
	mixed  bool // the last step moved by mixing
}

// step runs between two plain steps: the one that took cur to next and moved
// by diff = ‖next − cur‖₁, and the one to come from next, which it may move.
func (a *accelerator) step(cur, next []float64, diff float64) {
	rho := diff / a.norm
	a.norm = diff
	if a.g != nil {
		a.mix(cur, next, rho)
		return
	}
	// A leg records its changes only while it might stall: a fast step
	// stalls nothing, and on the spine's R-MAT most of F's steps are fast;
	// recording every one costs an R-MAT 10^5 F solve 5–10 %
	// (WalkKernels/RMAT/FRank, one core).
	if !(rho >= stallRatio) {
		a.fresh, a.stalled = false, 0
		return
	}
	if a.prev == nil {
		a.prev = make([]float64, len(next))
	}
	fit := a.fresh
	same, flip := 0.0, 0.0
	rows := a.rows
	for i := range extent(rows, next) {
		v := i
		if rows != nil {
			v = int(rows[i])
		}
		d := next[v] - cur[v]
		if fit {
			same += math.Abs(d - rho*a.prev[v])
			flip += math.Abs(d + rho*a.prev[v])
		}
		a.prev[v] = d
	}
	a.fresh = true
	if fit && min(same, flip) <= stallFit*diff {
		a.stalled++
	} else {
		a.stalled = 0
	}
	if a.stalled == stallRun {
		a.startMixing(next)
	}
}

// mixSlabs recycles the mixing history, 7 vectors a mixed leg: on the
// bench's BibNet serving loop, where every leg mixes, allocating it afresh
// more than doubled what an exact solve allocates, and the garbage
// collections with it.
var mixSlabs sync.Pool // of *[]float64

// startMixing switches to mixing after the plain step to next = g_k, whose
// change f_k prev holds; the first columns join the history at the next step.
func (a *accelerator) startMixing(next []float64) {
	n := len(next)
	size := (1 + 2*mixDepth) * n
	a.slab, _ = mixSlabs.Get().(*[]float64)
	if a.slab == nil || cap(*a.slab) < size {
		buf := make([]float64, size)
		a.slab = &buf
	}
	buf := (*a.slab)[:size]
	clear(buf)
	a.g, buf = buf[:n:n], buf[n:]
	copy(a.g, next)
	for j := range mixDepth {
		a.df[j], a.dg[j], buf = buf[:n:n], buf[n:2*n:2*n], buf[2*n:]
	}
}

// release hands the mixing history back to mixSlabs at the end of a solve.
func (a *accelerator) release() {
	if a.slab != nil {
		mixSlabs.Put(a.slab)
		a.slab = nil
	}
}

// mix takes one Anderson step from next = g_k, which moved by ρ times the
// step before it: it adds the newest ΔF and ΔG columns, solves the normal
// equations for γ and moves next to g_k − ΔG·γ. The columns and the Gram
// matrix are written for depth 3.
func (a *accelerator) mix(cur, next []float64, rho float64) {
	if a.mixed && rho > 1 {
		a.cols = 0
	}
	s := (a.slot + 1) % mixDepth
	older, oldest := (s+2)%mixDepth, (s+1)%mixDepth
	a.slot, a.cols = s, min(a.cols+1, mixDepth)
	dfS, dgS, dfO, dfOO := a.df[s], a.dg[s], a.df[older], a.df[oldest]
	var ss, so, soo, rs, ro, roo float64
	rows := a.rows
	for i := range extent(rows, next) {
		v := i
		if rows != nil {
			v = int(rows[i])
		}
		f := next[v] - cur[v]
		df := f - a.prev[v]
		a.prev[v] = f
		dfS[v], dgS[v] = df, next[v]-a.g[v]
		a.g[v] = next[v]
		ss += df * df
		so += df * dfO[v]
		soo += df * dfOO[v]
		rs += df * f
		ro += dfO[v] * f
		roo += dfOO[v] * f
	}
	a.gram[s][s] = ss
	a.gram[s][older], a.gram[older][s] = so, so
	a.gram[s][oldest], a.gram[oldest][s] = soo, soo
	// Newest first: the Cholesky factor keeps the longest prefix of columns
	// each far enough from the span of the newer ones.
	idx := [mixDepth]int{s, older, oldest}
	rhs := [mixDepth]float64{rs, ro, roo}
	cols, gamma := choleskySolve(&a.gram, idx, rhs, a.cols)
	a.cols = cols
	a.mixed = a.cols > 0
	if !a.mixed {
		return
	}
	g0, g1, g2 := gamma[0], gamma[1], gamma[2]
	c0, c1, c2 := a.dg[s], a.dg[older], a.dg[oldest]
	for i := range extent(rows, next) {
		v := i
		if rows != nil {
			v = int(rows[i])
		}
		next[v] = min(max(next[v]-(g0*c0[v]+g1*c1[v]+g2*c2[v]), 0), 1)
	}
}

// choleskySolve solves the normal equations of the first cols columns of idx,
// newest first: gram restricted to them times γ equals rhs. It factors them
// one column at a time and stops before the first whose share outside the
// span of the newer ones, squared, is at most mixDrop; it returns the columns
// kept and γ for them, zero for the rest.
func choleskySolve(gram *[mixDepth][mixDepth]float64, idx [mixDepth]int, rhs [mixDepth]float64, cols int) (kept int, gamma [mixDepth]float64) {
	var l [mixDepth][mixDepth]float64
	for j := range cols {
		for k := range j {
			sum := gram[idx[j]][idx[k]]
			for m := range k {
				sum -= l[j][m] * l[k][m]
			}
			l[j][k] = sum / l[k][k]
		}
		diag := gram[idx[j]][idx[j]]
		d := diag
		for m := range j {
			d -= l[j][m] * l[j][m]
		}
		if !(d > mixDrop*diag) {
			break
		}
		l[j][j] = math.Sqrt(d)
		kept = j + 1
	}
	var y [mixDepth]float64
	for j := range kept {
		sum := rhs[j]
		for m := range j {
			sum -= l[j][m] * y[m]
		}
		y[j] = sum / l[j][j]
	}
	for j := kept - 1; j >= 0; j-- {
		sum := y[j]
		for m := j + 1; m < kept; m++ {
			sum -= l[m][j] * gamma[m]
		}
		gamma[j] = sum / l[j][j]
	}
	return kept, gamma
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
	x, _, err := iterate(ctx, cur, tol, maxIter,
		func(ctx context.Context, cur, next []float64) (diff float64, err error) {
			dangling := scale(scaled, cur, outSum)
			base := d*uniform + oneMinus*dangling*uniform
			if err := g.GatherIn(ctx, scaled, next, nil); err != nil {
				return 0, err
			}
			for v, sum := range next {
				nv := base + oneMinus*sum
				next[v] = nv
				diff += math.Abs(cur[v] - nv)
			}
			return diff, nil
		}, nil)
	return x, err
}
