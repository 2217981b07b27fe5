package bounds

import (
	"fmt"

	"roundtriprank/internal/bca"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/walk"
)

// FFlat maintains lower/upper bounds on F-Rank over the f-neighborhood Sf (the
// nodes with a non-zero BCA estimate) plus a common upper bound for all unseen
// nodes, zero once BCA has no border left (see Expand): Stage I folds each BCA
// expansion into the bounds (Prop. 4, Eq. 19–21), Stage II refines them over Sf
// (Eq. 17–18) on the kernel's edge log of the subgraph Sf induces and reads no
// rows: join, the one place a node enters Sf, scans the newcomer's rows once
// and logs the induced edges it closes, as TFlat's does. Sf's membership is the
// BCA engine's: its index of the touched nodes and its side map from a shared
// slot to an F slot, given a node when the engine first processes it. The
// kernel keeps the bounds, restart weights and rows by F slot, and a node is
// seen once the kernel holds its slot. This side keys nothing by node itself.
// InitRows rebinds the whole tracker to a new query in O(1), so a pooled
// instance serves a stream of queries with no steady-state allocation.
type FFlat struct {
	neighborhood
	opt  FOptions
	rows graph.Rows // the graph; join reads a newcomer's rows
	// probs is join's buffer of the newcomer's in-row transition
	// probabilities, as long as the longest in-row joined.
	probs []float64

	engine bca.Flat
}

// Init is InitRows over a flat CSR view. It survives only because
// bench/probes.go calls it: ROADMAP item 1(h) repoints the probe at InitRows
// and deletes this.
func (fb *FFlat) Init(view graph.CSRView, q walk.Query, opt FOptions) error {
	return fb.InitRows(graph.Compact(view), q, opt)
}

// InitRows starts (or restarts) an F-Rank bounds computation for the query,
// reusing the tracker's internal arrays; see bca.Flat.InitRows. A node joins
// Sf once the BCA engine has processed it, so on a caching provider join only
// revisits a row the engine already fetched.
func (fb *FFlat) InitRows(rows graph.Rows, q walk.Query, opt FOptions) error {
	opt = opt.normalized()
	if err := fb.engine.InitRows(rows, q, opt.Alpha); err != nil {
		return fmt.Errorf("bounds: %w", err)
	}
	fb.rows = rows
	fb.opt = opt
	fb.idx = fb.engine.Index()
	fb.at, fb.nodes, _ = fb.engine.Seen()
	fb.reset()
	fb.unseen = 1
	return nil
}

// Detach drops the tracker's reference to the graph so a pooled instance does
// not pin a superseded snapshot between queries; InitRows rebinds one.
func (fb *FFlat) Detach() {
	fb.rows = nil
	fb.engine.Detach()
}

// Expand performs one Stage-I step: process up to M best-benefit nodes with
// BCA, fold the new estimates into the bounds, and recompute the unseen upper
// bound; then refine them iteratively (Stage II). In the round BCA's border
// closes (bca.Flat.Border) no node outside Sf can ever score: the unseen bound
// drops to zero — Sf's upper bounds keep their Prop. 4 slack, which residual
// inside Sf still owes — and the refinement, of the exact system on Sf, stops
// on refineTol alone. Later calls do nothing. It returns the number of BCA
// processing operations performed.
func (fb *FFlat) Expand() int {
	if fb.engine.Border() == 0 {
		return 0
	}
	processed := fb.engine.ProcessBest(fb.opt.M)
	fb.initializeBounds()
	closed := fb.engine.Border() == 0
	if closed {
		fb.unseen = 0
	}
	fb.k.refine(fb.opt.Alpha, fb.unseen, false, expandRel(closed))
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

	// Sf is the engine's side map: its leading F slots have bounds already,
	// the rest are this round's newcomers, in the order they join.
	var rhos []float64
	fb.at, fb.nodes, rhos = fb.engine.Seen()
	los, ups := fb.Slots()
	for slot := range los {
		rho := rhos[slot]
		if rho > los[slot] {
			los[slot] = rho
		}
		if u := rho + fb.unseen; u < ups[slot] {
			ups[slot] = u
		}
	}
	for slot := len(los); slot < len(rhos); slot++ {
		fb.join(fb.nodes[slot], rhos[slot], rhos[slot]+fb.unseen) // Eq. 20–21
	}
}

// join admits v into Sf with the given bounds. The F-Rank recursion at a node
// sums over its in-neighbors, each weighted by that neighbor's own transition
// probability, so v's in-row yields the total mass of its row — every
// probability computed this once, and summed in row order — and its entries
// for the in-neighbors already seen (itself among them on a self-loop, being a
// member by now), which reuse those probabilities. Its out-row yields the
// entries v gains in the rows of its seen out-neighbors; it is read only when v
// has out-weight, so exactly the rows BCA read when it processed v. Nodes join
// one at a time, so of two adjacent nodes the later finds the earlier seen and
// their edges are logged once — and since a round's newcomers all hold F
// slots before the first of them joins, a neighbor counts as seen only when
// its F slot is below the number joined so far (neighborhood.SideSlot), v's
// own included. Each row is scanned once by the filter of seen nodes
// (neighborhood.filter), and only the entries it passes cost a stamped probe,
// for their shared slot. The restart weight comes from the BCA engine's
// restart distribution, the one copy of it on this side.
func (fb *FFlat) join(v graph.NodeID, lo, up float64) {
	self := fb.enter(v, fb.engine.RestartWeight(v), 0, lo, up) // mass: the in-row's, below
	cols, wts := fb.rows.InRow(v)
	if cap(fb.probs) < len(cols) {
		fb.probs = make([]float64, len(cols))
	}
	probs := fb.probs[:len(cols)]
	mass := 0.0
	for i, from := range cols {
		p := -1.0 // from has no out-weight, so no transition, not even to v
		if outSum := fb.rows.OutSum(from); outSum > 0 {
			p = wts[i] / outSum
			mass += p
		}
		probs[i] = p
	}
	fb.k.mass[self] = mass
	for _, i := range fb.filter(cols) {
		if p := probs[i]; p >= 0 {
			if slot, seen := fb.probe(cols[i]); seen {
				fb.k.add(self, slot, p)
			}
		}
	}

	if outSum := fb.rows.OutSum(v); outSum > 0 {
		cols, wts = fb.rows.OutRow(v)
		for _, i := range fb.filter(cols) {
			if to := cols[i]; to != v {
				if slot, seen := fb.probe(to); seen {
					fb.k.add(slot, self, wts[i]/outSum)
				}
			}
		}
	}
}

// CheckConsistent verifies 0 <= lower <= upper for every seen node and that
// the unseen upper bound is finite and non-negative. Used by tests.
func (fb *FFlat) CheckConsistent() error { return fb.checkConsistent(false) }
