package bounds

import (
	"fmt"

	"roundtriprank/internal/bca"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/scratch"
	"roundtriprank/internal/walk"
)

// FFlat maintains lower/upper bounds on F-Rank over the f-neighborhood Sf
// (the nodes with a non-zero BCA estimate) plus a common upper bound for all
// unseen nodes: Stage I folds each BCA expansion into the bounds (Prop. 4,
// Eq. 19–21), Stage II refines them over Sf (Eq. 17–18) on the kernel's copy
// of the subgraph Sf induces, built from one read of every seen in-row per
// refinement. Per-node bounds live in one generation-stamped dense structure
// and InitRows rebinds the whole tracker to a new query in O(1), so a pooled
// instance serves a stream of queries with no steady-state allocation.
type FFlat struct {
	opt  FOptions
	rows graph.Rows // the graph; the Stage-II build reads its in-rows

	engine  bca.Flat
	restart scratch.Floats
	b       scratch.Bounds
	unseen  float64

	k refiner // Stage-II kernel arrays, rebuilt by every Refine
}

// Init is InitRows over a flat CSR view. It survives only because
// bench/probes.go calls it: the next [benchmark] PR (ROADMAP item 1) repoints
// the probe at InitRows and deletes this.
func (fb *FFlat) Init(view graph.CSRView, q walk.Query, opt FOptions) error {
	return fb.InitRows(graph.Compact(view), q, opt)
}

// InitRows starts (or restarts) an F-Rank bounds computation for the query,
// reusing the tracker's internal arrays; see bca.Flat.InitRows. The Stage-II
// build only revisits rows the BCA engine already processed, so on a caching
// provider Refine never causes a fetch of its own.
func (fb *FFlat) InitRows(rows graph.Rows, q walk.Query, opt FOptions) error {
	opt = opt.normalized()
	if err := fb.engine.InitRows(rows, q, opt.Alpha); err != nil {
		return fmt.Errorf("bounds: %w", err)
	}
	fb.rows = rows
	fb.opt = opt
	fb.restart.Reset(rows.NumNodes())
	fb.engine.EachRestart(fb.restart.Set)
	fb.b.Reset(rows.NumNodes())
	fb.unseen = 1
	return nil
}

// Detach drops the tracker's reference to the graph so a pooled instance does
// not pin a superseded snapshot between queries; InitRows rebinds one.
func (fb *FFlat) Detach() {
	fb.rows = nil
	fb.engine.Detach()
}

// ResidualTouchedCount forwards the BCA engine's count of rows its working
// set can reach; ResidualTouched the membership test. See bca.Flat.
func (fb *FFlat) ResidualTouchedCount() int { return fb.engine.ResidualTouchedCount() }

// ResidualTouched reports whether the BCA engine ever held residual at v.
func (fb *FFlat) ResidualTouched(v graph.NodeID) bool { return fb.engine.ResidualTouched(v) }

// SeenCount returns |Sf|.
func (fb *FFlat) SeenCount() int { return fb.b.Len() }

// Seen reports whether v is in the f-neighborhood.
func (fb *FFlat) Seen(v graph.NodeID) bool { return fb.b.Seen(v) }

// Lower returns the lower bound for a seen node (zero for unseen nodes).
func (fb *FFlat) Lower(v graph.NodeID) float64 { return fb.b.Lower(v) }

// Upper returns the upper bound for v: its individual bound when seen, the
// unseen upper bound otherwise.
func (fb *FFlat) Upper(v graph.NodeID) float64 {
	if u, ok := fb.b.Upper(v); ok {
		return u
	}
	return fb.unseen
}

// UnseenUpper returns the common upper bound for all unseen nodes.
func (fb *FFlat) UnseenUpper() float64 { return fb.unseen }

// SeenList returns the f-neighborhood in insertion order; the slice is valid
// until the next InitRows and must not be mutated.
func (fb *FFlat) SeenList() []graph.NodeID { return fb.b.Touched() }

// EachSeen calls fn for every node in the f-neighborhood with its bounds.
func (fb *FFlat) EachSeen(fn func(v graph.NodeID, lower, upper float64)) {
	fb.b.Each(fn)
}

// Exhausted reports whether further expansion cannot meaningfully tighten
// the bounds.
func (fb *FFlat) Exhausted() bool {
	return fb.engine.TotalResidual() < 1e-15
}

// Expand performs one Stage-I step: process up to M best-benefit nodes with
// BCA, fold the new estimates into the bounds, and recompute the unseen upper
// bound. When StageII is enabled it then refines the bounds iteratively. It
// returns the number of BCA processing operations performed (zero when the
// computation is exhausted).
func (fb *FFlat) Expand() int {
	processed := fb.engine.ProcessBest(fb.opt.M)
	fb.initializeBounds()
	if fb.opt.StageII {
		fb.Refine()
	}
	return processed
}

// initializeBounds applies the Stage-I bound initialization (Prop. 4 for the
// improved scheme, the first-arrival-only bound otherwise), keeping bounds
// monotone: lower bounds never decrease, upper bounds never increase.
func (fb *FFlat) initializeBounds() {
	alpha := fb.opt.Alpha
	maxRes := fb.engine.MaxResidual()
	totRes := fb.engine.TotalResidual()

	var unseen float64
	if fb.opt.ImprovedBound {
		// Eq. 19: α/(2−α)·max_u µ(u) + (1−α)/(2−α)·Σ_u µ(u).
		unseen = alpha/(2-alpha)*maxRes + (1-alpha)/(2-alpha)*totRes
	} else {
		// Weaker first-arrival bound (Gupta et al.): residual may reach an
		// unseen node once and convert entirely; no credit for the α-split of
		// repeated returns.
		unseen = maxRes + (1-alpha)*totRes
	}
	if unseen < fb.unseen {
		fb.unseen = unseen
	}

	fb.engine.EachSeen(func(v graph.NodeID, rho float64) {
		lo, up, seen := fb.b.Get(v)
		if !seen {
			fb.b.Set(v, rho, rho+fb.unseen) // Eq. 20–21
			return
		}
		if rho > lo {
			lo = rho
		}
		if u := rho + fb.unseen; u < up {
			up = u
		}
		fb.b.Set(v, lo, up)
	})
}

// Refine runs the Stage-II iterative refinement of Eq. 17–18 over the
// f-neighborhood until the bounds converge or the iteration cap is reached.
// It reads the in-row of every seen node once (and the out-sum of each of its
// in-neighbors) to build the induced subgraph, then sweeps that copy; see
// refiner. An unseen in-neighbor contributes lower bound zero and the unseen
// upper bound.
func (fb *FFlat) Refine() {
	if fb.b.Len() == 0 {
		return
	}
	k, b := &fb.k, &fb.b
	k.begin(b)
	for _, v := range k.nodes {
		unseenMass := 0.0
		cols, wts := fb.rows.InRow(v)
		for i, from := range cols {
			outSum := fb.rows.OutSum(from)
			if outSum <= 0 {
				continue
			}
			if m := wts[i] / outSum; !k.edge(b, from, m) {
				unseenMass += m
			}
		}
		k.endRow(b, v, fb.restart.Get(v), unseenMass)
	}
	k.run(fb.opt.Alpha, fb.opt.RefineMaxIter, fb.opt.RefineTol, fb.unseen, false)
	k.commit(b)
}

// CheckConsistent verifies 0 <= lower <= upper for every seen node and that
// the unseen upper bound is finite and non-negative. Used by tests.
func (fb *FFlat) CheckConsistent() error {
	return checkBounds(&fb.b, fb.unseen, false)
}
