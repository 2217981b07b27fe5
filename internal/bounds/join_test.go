package bounds

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/scratch"
	"roundtriprank/internal/walk"
)

// refJoins is the plain reference join both trackers' joins are held to. It
// replays, from the rows alone and in slot order, the joins of a side's seen
// members, probing the shared slot and side slot of every scanned neighbor
// with no filter, and keeps what those joins must have produced: the edge
// log, the row masses and, on the T side, the border counters.
type refJoins struct {
	log       []logged
	mass      []float64
	outsideIn []int32
}

// seenBy reports the side slot of u and whether u was seen when the member at
// slot self joined: a member of the index whose side slot is not past self's.
func seenBy(s *neighborhood, u graph.NodeID, self int32) (int32, bool) {
	shared, ok := s.idx.Slot(u)
	if !ok || int(shared) >= len(s.at) {
		return 0, false
	}
	slot := s.at[shared]
	return slot, slot >= 0 && slot <= self
}

// catchUp joins every seen member of s that r has not joined yet.
func (r *refJoins) catchUp(s *neighborhood, rows graph.Rows, tSide bool) {
	for self := int32(len(r.mass)); int(self) < s.SeenCount(); self++ {
		if tSide {
			r.joinT(s, rows, self)
		} else {
			r.joinF(s, rows, self)
		}
	}
}

// joinT is TFlat.join for the member at slot self.
func (r *refJoins) joinT(s *neighborhood, rows graph.Rows, self int32) {
	v := s.nodes[self]
	outSum := rows.OutSum(v)
	mass := 0.0
	if outSum > 0 {
		mass = 1
	}
	r.mass = append(r.mass, mass)
	outside := int32(0)
	cols, wts := rows.InRow(v)
	for i, from := range cols {
		slot, seen := seenBy(s, from, self)
		if !seen {
			outside++
		} else if sum := rows.OutSum(from); sum > 0 {
			r.log = append(r.log, logged{slot, self, wts[i] / sum})
		}
	}
	r.outsideIn = append(r.outsideIn, outside)
	cols, wts = rows.OutRow(v)
	for i, to := range cols {
		if slot, seen := seenBy(s, to, self); seen && to != v {
			r.outsideIn[slot]--
			if outSum > 0 {
				r.log = append(r.log, logged{self, slot, wts[i] / outSum})
			}
		}
	}
}

// joinF is FFlat.join for the member at slot self.
func (r *refJoins) joinF(s *neighborhood, rows graph.Rows, self int32) {
	v := s.nodes[self]
	mass := 0.0
	cols, wts := rows.InRow(v)
	for i, from := range cols {
		sum := rows.OutSum(from)
		if sum <= 0 {
			continue
		}
		m := wts[i] / sum
		mass += m
		if slot, seen := seenBy(s, from, self); seen {
			r.log = append(r.log, logged{self, slot, m})
		}
	}
	r.mass = append(r.mass, mass)
	if outSum := rows.OutSum(v); outSum > 0 {
		cols, wts = rows.OutRow(v)
		for i, to := range cols {
			if slot, seen := seenBy(s, to, self); seen && to != v {
				r.log = append(r.log, logged{slot, self, wts[i] / outSum})
			}
		}
	}
}

// matches reports whether a tracker's kernel and border counters (nil on the
// F side) hold what r does, bit for bit and in the same order.
func (r *refJoins) matches(t *testing.T, label string, k *refiner, outsideIn []int32) bool {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if len(k.log) != len(r.log) || len(k.mass) != len(r.mass) || len(outsideIn) != len(r.outsideIn) {
		t.Logf("%s: %d edges, %d masses, %d border counters; the reference has %d, %d and %d",
			label, len(k.log), len(k.mass), len(outsideIn), len(r.log), len(r.mass), len(r.outsideIn))
		return false
	}
	for i, e := range r.log {
		if got := k.log[i]; got.src != e.src || got.dst != e.dst || !same(got.m, e.m) {
			t.Logf("%s: log entry %d is %d→%d m %v, the reference's %d→%d m %v", label, i, got.src, got.dst, got.m, e.src, e.dst, e.m)
			return false
		}
	}
	for slot, m := range r.mass {
		if !same(k.mass[slot], m) {
			t.Logf("%s: slot %d row mass %v, the reference's %v", label, slot, k.mass[slot], m)
			return false
		}
	}
	for slot, c := range r.outsideIn {
		if outsideIn[slot] != c {
			t.Logf("%s: slot %d border counter %d, the reference's %d", label, slot, outsideIn[slot], c)
			return false
		}
	}
	return true
}

// unitGraph draws a graph of 5–29 nodes whose every weight is 1, built by
// graph.Builder and so held in the unit form: random edges without
// self-loops, one node with no out-edge (a dead end) and one with no in-edge
// (a source).
func unitGraph(rng *rand.Rand) *graph.Graph {
	n := 5 + rng.Intn(25)
	b := graph.NewBuilder()
	b.AddNodes(n, nil)
	deadEnd, source := rng.Intn(n), rng.Intn(n)
	have := make(map[[2]int]bool)
	for i := 2 * n * (1 + rng.Intn(3)); i > 0; i-- {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && u != deadEnd && v != source && !have[[2]int{u, v}] {
			have[[2]int{u, v}] = true
			b.MustAddEdge(graph.NodeID(u), graph.NodeID(v), 1)
		}
	}
	return b.MustBuild()
}

// Property: after every round, FFlat's and TFlat's joins leave exactly what
// the plain reference join (refJoins) makes of the same membership — the same
// edge log, entry for entry and bit for bit, the same row masses and the same
// T border counters. The draws are randomGraph's (weighted and unit rows,
// dead ends, sources, self-loops) and unitGraph's (the unit form), over flat
// and packed rows, with 1–3-node queries. Each is run with the trackers bound
// alone and bound as the searcher binds them, T over the BCA engine's index;
// and each of those twice: with the filter of seen nodes as built, and
// saturated from the first round on, so that every scanned entry reaches a
// probe — which no collision in graphs this small would bring about.
func TestQuickJoinMatchesReference(t *testing.T) {
	f := func(seed int64, roundsRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var g graph.CSRView
		if rng.Intn(3) == 0 {
			g = unitGraph(rng)
		} else {
			g, _ = randomGraph(rng)
		}
		n := g.NumNodes()
		nodes := make([]graph.NodeID, 1+rng.Intn(3))
		for i, v := range rng.Perm(n)[:len(nodes)] {
			nodes[i] = graph.NodeID(v)
		}
		q := walk.MultiNode(nodes...)
		rounds := 1 + int(roundsRaw%8)
		fOpt := FOptions{Alpha: 0.25, M: 1 + int(mRaw%4), ImprovedBound: true}
		tOpt := DefaultTOptions(0.25)
		tOpt.M = 1 + int(mRaw/4%4)
		if rng.Intn(2) == 0 {
			tOpt.FrontierCap = 1 + rng.Intn(3)
		}
		for _, rows := range []graph.Rows{graph.Compact(g), hidden(g)} {
			for _, shared := range []bool{false, true} {
				for _, saturate := range []bool{false, true} {
					label := fmt.Sprintf("shared %v, saturated %v", shared, saturate)
					var fb FFlat
					var tb TFlat
					if err := fb.InitRows(rows, q, fOpt); err != nil {
						t.Logf("FFlat.InitRows: %v", err)
						return false
					}
					var idx *scratch.Index
					if shared {
						idx = fb.Shared()
					}
					if err := tb.InitShared(rows, q, tOpt, idx); err != nil {
						t.Logf("TFlat.InitShared: %v", err)
						return false
					}
					var fRef, tRef refJoins
					ok := true
					run := func() {
						for round := 0; ok && round < rounds; round++ {
							fb.Expand()
							tb.Expand()
							fRef.catchUp(&fb.neighborhood, rows, false)
							tRef.catchUp(&tb.neighborhood, rows, true)
							ok = fRef.matches(t, "F, "+label, &fb.k, nil) &&
								tRef.matches(t, "T, "+label, &tb.k, tb.outsideIn)
						}
					}
					tRef.catchUp(&tb.neighborhood, rows, true) // the query nodes, joined by the binding
					if !tRef.matches(t, "T bound, "+label, &tb.k, tb.outsideIn) {
						return false
					}
					if saturate {
						saturated(&fb.neighborhood, func() { saturated(&tb.neighborhood, run) })
					} else {
						run()
					}
					if !ok {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.6}); err != nil {
		t.Error(err)
	}
}
