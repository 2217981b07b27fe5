package bounds

import (
	"fmt"

	"roundtriprank/internal/graph"
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
// keyed by node is the stamped index of b — membership and slot, St's own — and
// nothing else; bounds, border counters, restart weights and rows live once, by
// slot, and the per-round passes walk them sequentially. InitRows rebinds the
// tracker to a new query in O(1).
type TFlat struct {
	neighborhood
	opt TOptions
	// rows is the graph; pre is its optional prefetch capability and wave the
	// reusable buffer of rows each expansion announces to it.
	rows graph.Rows
	pre  graph.RowPrefetcher
	wave []graph.NodeID

	restartNodes []graph.NodeID
	restartW     []float64

	// outsideIn counts, by slot, how many in-neighbors of each node in St are
	// still outside St; a node is a border node iff its count is positive.
	outsideIn []int32

	// pickN/pickP are the reusable top-M border selection (descending by
	// upper bound, ties keep earlier insertion).
	pickN []graph.NodeID
	pickP []float64
}

// Init is InitRows over a flat CSR view. It survives only because
// bench/probes.go calls it: the next [benchmark] PR (ROADMAP item 2(e)) repoints
// the probe at InitRows and deletes this.
func (tb *TFlat) Init(view graph.CSRView, q walk.Query, opt TOptions) error {
	return tb.InitRows(graph.Compact(view), q, opt)
}

// InitRows starts (or restarts) a T-Rank bounds computation for the query,
// reusing the tracker's internal arrays; see bca.Flat.InitRows. Binding reads
// the query nodes' rows (announced to the provider's prefetcher first) and
// returns rows.Err() if that already failed. Expansions announce each wave
// (the picked border rows, then the newcomer rows they pull in) before
// streaming them.
func (tb *TFlat) InitRows(rows graph.Rows, q walk.Query, opt TOptions) error {
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
	if tb.pre != nil {
		tb.pre.Prefetch(tb.restartNodes)
	}
	tb.b.Reset(n)
	tb.outsideIn = tb.outsideIn[:0]
	tb.k.reset()
	tb.unseen = 1 - opt.Alpha
	for i, v := range tb.restartNodes {
		w := tb.restartW[i]
		tb.join(v, w, opt.Alpha*w, 1)
	}
	tb.recomputeUnseen()
	return rows.Err()
}

// join admits v into St with the given restart weight (zero for all but the
// query nodes InitRows joins) and bounds. Its in-row splits into the
// in-neighbors still outside (v's border count) and those already seen, whose
// rows gain v as an entry — v itself among them on a self-loop, being a member
// by now. Its out-row yields v's own entries and takes one outside in-neighbor
// off every seen out-neighbor. Nodes join one at a time, so of two adjacent
// nodes the later finds the earlier seen and their edges are logged once. Each
// scanned neighbor costs one stamped probe, for its slot; all else is by slot.
func (tb *TFlat) join(v graph.NodeID, restart, lo, up float64) {
	self := tb.b.Add(v, lo, up)
	outSum := tb.rows.OutSum(v)
	mass := 0.0
	if outSum > 0 {
		mass = 1 // a row's transition probabilities sum to one
	}
	tb.k.join(restart, mass)

	outside := 0
	cols, wts := tb.rows.InRow(v)
	for i, from := range cols {
		slot, seen := tb.b.Index(from)
		if !seen {
			outside++
		} else if sum := tb.rows.OutSum(from); sum > 0 {
			tb.k.add(slot, self, wts[i]/sum)
		}
	}
	tb.outsideIn = append(tb.outsideIn, int32(outside))

	cols, wts = tb.rows.OutRow(v)
	for i, to := range cols {
		if to == v {
			continue
		}
		if slot, seen := tb.b.Index(to); seen {
			tb.outsideIn[slot]--
			if outSum > 0 {
				tb.k.add(self, slot, wts[i]/outSum)
			}
		}
	}
}

// Detach drops the tracker's reference to the graph so a pooled instance does
// not pin a superseded snapshot between queries; InitRows rebinds one.
func (tb *TFlat) Detach() { tb.rows, tb.pre = nil, nil }

// BorderCount returns the number of border nodes of St.
func (tb *TFlat) BorderCount() int {
	n := 0
	for _, outside := range tb.outsideIn {
		if outside > 0 {
			n++
		}
	}
	return n
}

// Exhausted reports whether the t-neighborhood has no border nodes left.
func (tb *TFlat) Exhausted() bool { return tb.BorderCount() == 0 }

// Expand performs one Stage-I step: pick up to M border nodes with the largest
// upper bounds, pull all of their in-neighbors into St (up to the frontier
// cap), initialize the bounds of the newcomers, recompute the unseen upper
// bound, and run the Stage-II refinement. It returns the number of new nodes
// added.
func (tb *TFlat) Expand() int {
	// Select the M border nodes with the largest upper bounds into the
	// reusable pick buffers (kept sorted descending; ties keep the touched
	// list's insertion order, so budget-capped results are deterministic).
	m := tb.opt.M
	tb.pickN, tb.pickP = tb.pickN[:0], tb.pickP[:0]
	seen := tb.b.Touched()
	_, ups := tb.b.Slots()
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
	limit := tb.opt.FrontierCap
	if tb.pre != nil {
		// Announce the wave in two coalesced batches: the picked border rows,
		// then the newcomer rows those picks will pull in. The pre-pass below
		// only reads membership, so the mutation loop that follows runs
		// unchanged — same order, same bounds, bit-identical to local.
		//
		// Under a frontier cap the wave is truncated at the cap's raw entry
		// count: an unseen entry at raw index p has at most p admissions
		// before it in processing order, so every truncated-wave entry is
		// provably admitted — never an over-prefetch of an untouched row. A
		// node first admitted past the truncation point (possible when
		// duplicates precede it) is simply fetched on demand; it still joins
		// St, so "rows fetched ≤ rows touched" holds with or without the cap.
		tb.pre.Prefetch(tb.pickN)
		tb.wave = tb.wave[:0]
	collect:
		for _, u := range tb.pickN {
			cols, _ := tb.rows.InRow(u)
			for _, from := range cols {
				if !tb.b.Seen(from) {
					if limit > 0 && len(tb.wave) >= limit {
						break collect
					}
					tb.wave = append(tb.wave, from)
				}
			}
		}
		tb.pre.Prefetch(tb.wave)
	}
	added := 0
	prevUnseen := tb.unseen
	for _, u := range tb.pickN {
		if limit > 0 && added >= limit {
			break
		}
		cols, _ := tb.rows.InRow(u)
		for _, from := range cols {
			if limit > 0 && added >= limit {
				break
			}
			if tb.b.Seen(from) {
				continue
			}
			// Newly included node: lower bound zero, upper bound is the
			// unseen upper bound from the previous expansion.
			tb.join(from, 0, 0, prevUnseen)
			added++
		}
	}
	tb.recomputeUnseen()
	tb.Refine()
	return added
}

// recomputeUnseen applies Eq. 22, keeping the bound monotone non-increasing.
func (tb *TFlat) recomputeUnseen() {
	maxBorder := 0.0
	_, ups := tb.b.Slots()
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

// Refine runs the Stage-II iterative refinement of Eq. 17–18 over the
// t-neighborhood, re-tightening the unseen bound after every sweep — and
// moving the rows with it — when the scheme asks for it. It reads nothing from
// the graph: the kernel sweeps the induced edges join has logged; see
// refiner.refine.
func (tb *TFlat) Refine() {
	tighten := tb.opt.TightenUnseenInRefine
	tb.k.border = tb.k.border[:0]
	if tighten {
		for slot, outside := range tb.outsideIn {
			if outside > 0 {
				tb.k.border = append(tb.k.border, int32(slot))
			}
		}
	}
	tb.unseen = tb.k.refine(&tb.b, tb.opt.Alpha, tb.unseen, tighten)
}

// CheckConsistent verifies 0 <= lower <= upper <= 1 for every seen node and a
// finite, non-negative unseen bound. Used by tests.
func (tb *TFlat) CheckConsistent() error { return tb.checkConsistent(true) }
