package bounds

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/walk"
)

// clone returns a deep copy of the kernel's state, so that one
// pre-refinement state can be refined several ways.
func (k *refiner) clone() refiner {
	c := *k
	c.log = slices.Clone(k.log)
	c.lo, c.up = slices.Clone(k.lo), slices.Clone(k.up)
	c.restart, c.mass = slices.Clone(k.restart), slices.Clone(k.mass)
	c.lowered, c.border = slices.Clone(k.lowered), slices.Clone(k.border)
	c.end, c.col, c.m, c.out, c.sens = nil, nil, nil, nil, nil
	return c
}

// TestQuickStageIIRelativeStop checks the stop rule of refiner.refine: a
// bound moved when it changed by more than max(refineTol, refineRel·its new
// value), and the Newton step on the unseen bound is judged against the bound
// it lowers.
//
// First at its edges, on one-slot kernels built by hand whose first sweep
// moves the row to a value known exactly: a move just under refineRel of the
// new value is no move, one just over it is, though the old value would have
// judged both the other way; a move under refineTol of a bound near zero is
// no move, though it is far above refineRel of it; and a sweep whose only move
// is the Newton step is followed by another.
//
// Then as a property, on randomGraph's and unitGraph's draws over flat and
// packed rows, F and T, T with the tightening on and off: every round's
// refinement is replayed from its pre-refinement state (the trackers run Stage
// I with a sweep cap of zero) under the rule Expand applies (the absolute one
// in the round a side's border is gone, and none after), and (a) when it ended
// before refineMaxIter, one more sweep — a one-sweep refinement of a copy —
// moves no bound, and not the unseen bound, by more than the rule allows; (b)
// its bounds contain those the same kernel reaches under the absolute rule
// (refineRel 0), lo ≤ lo_abs, up ≥ up_abs and the same for the unseen bound,
// bit for bit since both sweep the same state in the same order; and (c) unless
// the graph has a self-loop, both contain the exact values.
func TestQuickStageIIRelativeStop(t *testing.T) {
	edges := []struct {
		name           string
		restart        float64 // at α 0.5 and no mass the row's new value is restart/2
		lo, up, unseen float64
		lowered        bool // tighten, with the slot on the border
		sweeps         int
	}{
		{"lower moves just under refineRel", 2, 1 - 0.99999e-4, 1, 0, false, 1},
		{"upper moves just over refineRel", 2, 1, 1 + 1.00001e-4, 0, false, 2},
		{"near zero under refineTol", 2e-10, 1e-10 - 5e-13, 1e-10, 0, false, 1},
		{"only the Newton step moves", 0, 0, 0.5, 1, true, 2},
	}
	for _, c := range edges {
		var k refiner
		k.reset()
		mass := 0.0
		if c.lowered {
			mass = 1 // all of it into unseen neighbors: the row sits at unseen/2 = c.up
		}
		k.join(c.restart, mass, c.lo, c.up)
		if c.lowered {
			k.lowered[0] = true
			k.border = append(k.border, 0)
		}
		k.refine(0.5, c.unseen, c.lowered, refineRel)
		if k.sweeps != c.sweeps {
			t.Errorf("%s: %d sweeps, want %d", c.name, k.sweeps, c.sweeps)
		}
	}

	f := func(seed int64, roundsRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var g graph.CSRView
		selfLoop := false
		if rng.Intn(3) == 0 {
			g = unitGraph(rng)
		} else {
			g, selfLoop = randomGraph(rng)
		}
		n := g.NumNodes()
		alpha := []float64{0.15, 0.25, 0.5}[rng.Intn(3)]
		q := walk.SingleNode(graph.NodeID(rng.Intn(n)))
		if rng.Intn(3) == 0 {
			q = walk.MultiNode(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		var exactF, exactT []float64
		if !selfLoop {
			p := walk.Params{Alpha: alpha, Tol: 1e-13, MaxIter: 2000}
			var err error
			if exactF, err = walk.FRank(context.Background(), graph.Compact(g), q, p); err != nil {
				t.Logf("FRank: %v", err)
				return false
			}
			if exactT, err = walk.TRank(context.Background(), graph.Compact(g), q, p); err != nil {
				t.Logf("TRank: %v", err)
				return false
			}
		}
		bind := []binding{csrBinding, rowsBinding}[rng.Intn(2)]
		fOpt := FOptions{Alpha: alpha, M: 1 + int(mRaw%6), ImprovedBound: rng.Intn(2) == 0}
		tOpt := TOptions{Alpha: alpha, M: 1 + int(mRaw%6), TightenUnseenInRefine: rng.Intn(2) == 0}
		var fb FFlat
		var tb TFlat
		if err := bind.f(&fb, g, q, fOpt); err != nil {
			t.Logf("FFlat: %v", err)
			return false
		}
		if err := bind.t(&tb, g, q, tOpt); err != nil {
			t.Logf("TFlat: %v", err)
			return false
		}

		// replay refines the kernel k from its pre-refinement state under
		// rule, as Expand would have, and checks (a)–(c) on it; it returns
		// the refined unseen bound.
		replay := func(label string, k *refiner, seen []graph.NodeID, unseen float64, tighten bool, rule stopRule, exact []float64) (float64, bool) {
			pre := k.clone()
			k.maxIter = refineMaxIter
			sweeps := k.sweeps
			refined := k.refine(alpha, unseen, tighten, rule.rel)
			sweeps = k.sweeps - sweeps

			abs := pre.clone()
			abs.maxIter = refineMaxIter
			absUnseen := abs.refine(alpha, unseen, tighten, 0)
			ok := refined >= absUnseen
			for r := range k.lo {
				if k.lo[r] > abs.lo[r] || k.up[r] < abs.up[r] {
					t.Logf("%s: slot %d [%g, %g] inside the absolute rule's [%g, %g]", label, r, k.lo[r], k.up[r], abs.lo[r], abs.up[r])
					ok = false
				}
			}
			if !ok {
				t.Logf("%s: unseen %g, absolute rule %g", label, refined, absUnseen)
				return refined, false
			}

			if sweeps < refineMaxIter {
				next := pre.clone() // the absolute rule runs the same sweeps, and stops no earlier
				next.maxIter = sweeps + 1
				nextUnseen := next.refine(alpha, unseen, tighten, 0)
				if rule.moved(refined-nextUnseen, nextUnseen) {
					t.Logf("%s: after %d sweeps one more moves the unseen bound %g → %g", label, sweeps, refined, nextUnseen)
					return refined, false
				}
				for r := range k.lo {
					if rule.moved(next.lo[r]-k.lo[r], next.lo[r]) || rule.moved(k.up[r]-next.up[r], next.up[r]) {
						t.Logf("%s: after %d sweeps one more moves slot %d [%g, %g] → [%g, %g]",
							label, sweeps, r, k.lo[r], k.up[r], next.lo[r], next.up[r])
						return refined, false
					}
				}
			}

			if exact != nil {
				in := make([]bool, len(exact))
				for r, v := range seen {
					in[v] = true
					for _, b := range []*refiner{k, &abs} {
						if e := exact[v]; e < b.lo[r]-1e-8 || e > b.up[r]+1e-8 {
							t.Logf("%s: node %d exact %g outside [%g, %g]", label, v, e, b.lo[r], b.up[r])
							return refined, false
						}
					}
				}
				for v, e := range exact {
					if !in[v] && e > absUnseen+1e-8 {
						t.Logf("%s: unseen node %d exact %g above the unseen bound %g", label, v, e, absUnseen)
						return refined, false
					}
				}
			}
			return refined, true
		}

		for round := 1 + int(roundsRaw%8); round > 0; round-- {
			if fb.engine.Border() > 0 { // Expand on a closed Sf does nothing at all
				fb.k.maxIter = 0
				fb.Expand()
				if _, ok := replay("F", &fb.k, fb.SeenList(), fb.unseen, false, expandRule(fb.engine.Border() == 0), exactF); !ok {
					return false
				}
			}
			if tb.Exhausted() {
				continue
			}
			tb.k.maxIter = 0
			tb.Expand()
			unseen, ok := replay("T", &tb.k, tb.SeenList(), tb.unseen, tOpt.TightenUnseenInRefine, expandRule(tb.Exhausted()), exactT)
			if !ok {
				return false
			}
			tb.unseen = unseen
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.6}); err != nil {
		t.Error(err)
	}
}
