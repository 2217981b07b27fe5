package bounds

import (
	"fmt"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/scratch"
	"roundtriprank/internal/walk"
)

// TFlat maintains lower/upper bounds on T-Rank over the t-neighborhood St
// plus the unseen upper bound of Eq. 22. St starts as the query nodes (lower
// bound α·w(q_i), upper bound 1, unseen bound 1−α) and grows by pulling in all
// in-neighbors of the border nodes with the largest upper bounds, which makes
// those nodes interior and therefore lowers the unseen bound; Stage II refines
// the bounds over St (Eq. 17–18) on the kernel's edge log of the subgraph St
// induces and reads no rows: join, the one place a node enters St, scans the
// newcomer's rows once, for the border counters and the log alike. What is
// keyed by node is the index the tracker is bound to — the BCA engine's in the
// searcher (InitShared), its own only when bound alone (InitRows) — and
// nothing else: admission adds a node to that index if it is not a member yet
// and gives it the next T slot if it has none, and the node joins after, as
// FFlat's newcomers do (see neighborhood). Admission to St is having no T
// slot yet, never being new to the index, which BCA's residual also fills.
// Bounds, border counters, restart weights and rows live once, by T slot, and
// the per-round passes walk them sequentially. Binding rebinds the tracker to
// a new query in O(1).
type TFlat struct {
	neighborhood
	opt TOptions
	// rows is the graph, pre its optional prefetch capability.
	rows graph.Rows
	pre  graph.RowPrefetcher
	own  *scratch.Index // the index when bound alone, allocated on first use

	restartNodes []graph.NodeID
	restartW     []float64

	// outsideIn counts, by slot, how many in-neighbors of each node in St are
	// still outside St; a node is a border node iff its count is positive.
	outsideIn []int32
	// outSum holds, by slot, the total out-weight of each node in St: the
	// divisor of its entries in a newcomer's in-row.
	outSum []float64

	// pickN/pickP are the reusable top-M border selection (descending by
	// upper bound, ties keep earlier insertion).
	pickN []graph.NodeID
	pickP []float64
}

// Init is InitRows over a flat CSR view. It survives only because
// bench/probes.go calls it: ROADMAP item 1(h) repoints the probe at InitRows
// and deletes this.
func (tb *TFlat) Init(view graph.CSRView, q walk.Query, opt TOptions) error {
	return tb.InitRows(graph.Compact(view), q, opt)
}

// InitRows starts (or restarts) a T-Rank bounds computation for the query,
// reusing the tracker's internal arrays, over an index of the tracker's own;
// see InitShared.
func (tb *TFlat) InitRows(rows graph.Rows, q walk.Query, opt TOptions) error {
	return tb.InitShared(rows, q, opt, nil)
}

// InitShared is InitRows over idx, an index the caller has reset for rows and
// shares: the searcher hands it the BCA engine's, so that one index holds every
// node the query touches. A nil idx binds the tracker's own index, reset here.
// Binding admits the query nodes and joins them (joinAdmitted), which reads
// their rows, and returns rows.Err() if that already failed.
func (tb *TFlat) InitShared(rows graph.Rows, q walk.Query, opt TOptions, idx *scratch.Index) error {
	opt = opt.normalized()
	if err := walk.CheckAlpha(opt.Alpha); err != nil {
		return fmt.Errorf("bounds: %w", err)
	}
	n := rows.NumNodes()
	var err error
	tb.restartNodes, tb.restartW, err =
		q.NormalizeInto(n, tb.restartNodes[:0], tb.restartW[:0])
	if err != nil {
		return fmt.Errorf("bounds: %w", err)
	}
	tb.rows = rows
	tb.pre, _ = rows.(graph.RowPrefetcher)
	tb.opt = opt
	if idx == nil {
		if tb.own == nil {
			tb.own = new(scratch.Index)
		}
		idx = tb.own
		idx.Reset(n)
	}
	tb.idx = idx
	tb.at, tb.nodes = tb.at[:0], tb.nodes[:0]
	tb.outsideIn, tb.outSum = tb.outsideIn[:0], tb.outSum[:0]
	tb.reset()
	tb.unseen = 1 - opt.Alpha
	for _, v := range tb.restartNodes {
		tb.admit(v)
	}
	tb.joinAdmitted(1)
	tb.recomputeUnseen()
	return rows.Err()
}

// admit gives v the next T slot unless it has one — adding it to the index
// first when it is not a member — and reports whether it did.
func (tb *TFlat) admit(v graph.NodeID) bool {
	shared, _ := tb.idx.Add(v)
	for int(shared) >= len(tb.at) {
		tb.at = append(tb.at, -1)
	}
	if tb.at[shared] >= 0 {
		return false
	}
	tb.at[shared] = int32(len(tb.nodes))
	tb.nodes = append(tb.nodes, v)
	return true
}

// joinAdmitted joins every admitted node that has not joined yet, in T-slot
// order, with upper bound up, after announcing them to the prefetcher as one
// batch: the rows join reads are then fetched in one round trip.
func (tb *TFlat) joinAdmitted(up float64) {
	admitted := tb.nodes[tb.SeenCount():]
	if tb.pre != nil && len(admitted) > 0 {
		tb.pre.Prefetch(admitted)
	}
	for _, v := range admitted {
		tb.join(v, up)
	}
}

// join gives v, the first admitted node without a slot in the kernel, that
// slot, with upper bound up and lower bound α times its restart weight: the
// query nodes hold the leading slots, in restartW's order, and every later
// node has none. Its in-row splits into the in-neighbors still outside (v's
// border count) and those already seen, whose rows gain v as an entry — v
// itself among them on a self-loop, being a member by now. Its out-row yields
// v's own entries and takes one outside in-neighbor off every seen
// out-neighbor. Nodes join one at a time, so of two adjacent nodes the later
// finds the earlier seen and their edges are logged once. Each row is scanned
// once by the filter of seen nodes (neighborhood.filter), and only the
// entries it passes cost a stamped probe, for their shared slot: v's border
// count is its in-row's length less the seen entries, and all else is by slot,
// a seen in-neighbor's out-weight included.
func (tb *TFlat) join(v graph.NodeID, up float64) {
	restart := 0.0
	if n := tb.SeenCount(); n < len(tb.restartW) {
		restart = tb.restartW[n]
	}
	outSum := tb.rows.OutSum(v)
	mass := 0.0
	if outSum > 0 {
		mass = 1 // a row's transition probabilities sum to one
	}
	self := tb.enter(v, restart, mass, tb.opt.Alpha*restart, up)
	tb.outSum = append(tb.outSum, outSum)

	cols, wts := tb.rows.InRow(v)
	seenIn := 0
	for _, i := range tb.filter(cols) {
		if slot, seen := tb.probe(cols[i]); seen {
			seenIn++
			if sum := tb.outSum[slot]; sum > 0 {
				tb.k.add(slot, self, wts[i]/sum)
			}
		}
	}
	tb.outsideIn = append(tb.outsideIn, int32(len(cols)-seenIn))

	cols, wts = tb.rows.OutRow(v)
	for _, i := range tb.filter(cols) {
		if to := cols[i]; to != v {
			if slot, seen := tb.probe(to); seen {
				tb.outsideIn[slot]--
				if outSum > 0 {
					tb.k.add(self, slot, wts[i]/outSum)
				}
			}
		}
	}
}

// Detach drops the tracker's reference to the graph so a pooled instance does
// not pin a superseded snapshot between queries; InitRows rebinds one.
func (tb *TFlat) Detach() { tb.rows, tb.pre = nil, nil }

// Exhausted reports whether the t-neighborhood has no border nodes left.
func (tb *TFlat) Exhausted() bool {
	for _, outside := range tb.outsideIn {
		if outside > 0 {
			return false
		}
	}
	return true
}

// Expand performs one Stage-I step: pick up to M border nodes with the largest
// upper bounds, pull all of their in-neighbors into St (up to the frontier
// cap), initialize the bounds of the newcomers, recompute the unseen upper
// bound, and run the Stage-II refinement, on refineTol alone in the round St
// closes; later calls do nothing. It returns the number of new nodes added.
func (tb *TFlat) Expand() int {
	// Select the M border nodes with the largest upper bounds into the
	// reusable pick buffers (kept sorted descending; ties keep T-slot order,
	// so budget-capped results are deterministic).
	m := tb.opt.M
	tb.pickN, tb.pickP = tb.pickN[:0], tb.pickP[:0]
	seen := tb.SeenList()
	_, ups := tb.Slots()
	for slot, outside := range tb.outsideIn {
		if outside <= 0 {
			continue
		}
		up := ups[slot]
		if len(tb.pickN) == m && up <= tb.pickP[m-1] {
			continue
		}
		tb.pickN = append(tb.pickN, seen[slot])
		tb.pickP = append(tb.pickP, up)
		for i := len(tb.pickN) - 1; i > 0 && tb.pickP[i] > tb.pickP[i-1]; i-- {
			tb.pickN[i], tb.pickN[i-1] = tb.pickN[i-1], tb.pickN[i]
			tb.pickP[i], tb.pickP[i-1] = tb.pickP[i-1], tb.pickP[i]
		}
		if len(tb.pickN) > m {
			tb.pickN = tb.pickN[:m]
			tb.pickP = tb.pickP[:m]
		}
	}
	if len(tb.pickN) == 0 {
		return 0
	}
	// Admit the picks' outside in-neighbors, in in-row order and up to the
	// frontier cap, then join them: newcomers start at lower bound zero and
	// the unseen upper bound of the previous expansion.
	if tb.pre != nil {
		tb.pre.Prefetch(tb.pickN)
	}
	limit := tb.opt.FrontierCap
	admitted := 0
	for _, u := range tb.pickN {
		if limit > 0 && admitted >= limit {
			break
		}
		cols, _ := tb.rows.InRow(u)
		for _, from := range cols {
			if limit > 0 && admitted >= limit {
				break
			}
			if tb.admit(from) {
				admitted++
			}
		}
	}
	tb.joinAdmitted(tb.unseen)
	tb.recomputeUnseen()
	tb.refine(expandRel(tb.Exhausted()))
	return admitted
}

// recomputeUnseen applies Eq. 22, keeping the bound monotone non-increasing.
func (tb *TFlat) recomputeUnseen() {
	maxBorder := 0.0
	_, ups := tb.Slots()
	for slot, outside := range tb.outsideIn {
		if outside > 0 && ups[slot] > maxBorder {
			maxBorder = ups[slot]
		}
	}
	candidate := (1 - tb.opt.Alpha) * maxBorder
	if candidate < tb.unseen {
		tb.unseen = candidate
	}
}

// refine runs the Stage-II iterative refinement of Eq. 17–18 over the
// t-neighborhood, with relative part rel in the stop rule (see expandRel),
// re-tightening the unseen bound after every sweep — and moving the rows with
// it — when the scheme asks for it. It reads nothing from the graph: the
// kernel sweeps the induced edges join has logged; see refiner.refine.
func (tb *TFlat) refine(rel float64) {
	tighten := tb.opt.TightenUnseenInRefine
	tb.k.border = tb.k.border[:0]
	if tighten {
		for slot, outside := range tb.outsideIn {
			if outside > 0 {
				tb.k.border = append(tb.k.border, int32(slot))
			}
		}
	}
	tb.unseen = tb.k.refine(tb.opt.Alpha, tb.unseen, tighten, rel)
}

// CheckConsistent verifies 0 <= lower <= upper <= 1 for every seen node and a
// finite, non-negative unseen bound. Used by tests.
func (tb *TFlat) CheckConsistent() error { return tb.checkConsistent(true) }
