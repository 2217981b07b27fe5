package walk

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/testgraphs"
)

// TestQuickFRankBound is the property every exact solve's Bound must keep,
// for both legs: on random graphs with dead ends (drawDeadEndGraph),
// multi-node queries and α ∈ {0.1, 0.25, 0.5}, every entry of F-Rank and of
// T-Rank is a probability and lies within the Bound the solve reports of a
// plain serial solve at Tol 1e-15, also on the half of the draws capped at
// MaxIter 1–5. The reference's own error is at most (1−α)/α²·1e-15, which
// the check adds. A solve run to MaxIter 5 000 must report that it
// converged, and a converged solve's Bound is pinned from above: at most
// (1−α)/α·Tol for T, and for F, whose widening through the dangling-mass
// scaling costs at most a factor 1/α, at most (1−α)/α²·Tol. Most capped legs
// stop short of Tol (a leg whose support is the query alone converges in one
// step); fewer than a quarter of all legs doing so means the property no
// longer reaches the bound of an unconverged solve. About a third of the
// uncapped legs switch to mixing and so differ from the plain recurrence at
// their own Tol; fewer than one in ten means the property no longer reaches
// a mixed solve.
func TestQuickFRankBound(t *testing.T) {
	legs, short, uncapped, mixed := 0, 0, 0, 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, restart := drawDeadEndGraph(rng)
		alpha := []float64{0.1, 0.25, 0.5}[rng.Intn(3)]
		p := Params{Alpha: alpha, Tol: []float64{1e-4, 1e-6, 1e-9}[rng.Intn(3)], MaxIter: 5000}
		capped := rng.Intn(2) == 0
		if capped {
			p.MaxIter = 1 + rng.Intn(5)
		}
		const refTol = 1e-15
		ref := Params{Alpha: alpha, Tol: refTol, MaxIter: 100000}
		refErr := (1 - alpha) / (alpha * alpha) * refTol
		for _, leg := range []struct {
			name        string
			rule        func(context.Context, Gatherer, []float64, Params) ([]float64, Bound, error)
			want, plain []float64
			ceiling     float64 // a converged solve's Bound at most, over Tol
		}{
			{"F", fRank, serialFRankReference(g, restart, ref), serialFRankReference(g, restart, p), (1 - alpha) / (alpha * alpha)},
			{"T", tRank, serialTRankReference(g, restart, ref), serialTRankReference(g, restart, p), (1 - alpha) / alpha},
		} {
			got, b, err := leg.rule(context.Background(), Local(g, 1), restart, p)
			if err != nil {
				t.Logf("seed %d: %s: %v", seed, leg.name, err)
				return false
			}
			legs++
			if !b.Converged {
				short++
			}
			if !capped {
				uncapped++
				if !sameBits(got, leg.plain) {
					mixed++
				}
			}
			if (!capped && !b.Converged) || (b.Converged && b.Err > leg.ceiling*p.Tol) {
				t.Logf("seed %d (α %g, tol %g, MaxIter %d): %s reports %+v", seed, alpha, p.Tol, p.MaxIter, leg.name, b)
				return false
			}
			for v, x := range got {
				if !(x >= 0 && x <= 1) || math.Abs(x-leg.want[v]) > b.Err+refErr {
					t.Logf("seed %d (α %g, tol %g, MaxIter %d): %s[%d] = %g, plain solve %g, bound %g",
						seed, alpha, p.Tol, p.MaxIter, leg.name, v, x, leg.want[v], b.Err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.6}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d legs stopped short of Tol; %d of the %d uncapped ones moved by mixing", short, legs, mixed, uncapped)
	if 4*short < legs {
		t.Errorf("%d of %d legs stopped short of Tol: too few to check an unconverged bound", short, legs)
	}
	if 10*mixed < uncapped {
		t.Errorf("%d of %d uncapped legs moved by mixing: too few to check a mixed solve's bound", mixed, uncapped)
	}
}

// TestExactLastStepBoundIsFloored pins the floor on a Bound: on a line
// queried at its dead end, T reaches its fixed point to the bit one node a
// sweep and F at once, so each leg's last step moves by exactly 0 and its
// error, (1−α)/α times that step, is 0 — yet each reports errUlps ulps of
// its largest entry, the rounding its sums carry.
func TestExactLastStepBoundIsFloored(t *testing.T) {
	g := testgraphs.Line(5)
	restart := []float64{0, 0, 0, 0, 1}
	for name, rule := range map[string]func(context.Context, Gatherer, []float64, Params) ([]float64, Bound, error){
		"F": fRank, "T": tRank,
	} {
		x, b, err := rule(context.Background(), Local(g, 1), restart, DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		top := slices.Max(x)
		if floor := errUlps * (math.Nextafter(top, 2) - top); !b.Converged || !(b.Err > 0) || b.Err != floor {
			t.Errorf("%s: %+v, want converged with Err %g", name, b, floor)
		}
	}
}

// drawDeadEndGraph draws a graph of 10–59 nodes whose first quarter or so
// have no out-edges, the rest one to four weighted out-edges each, and a
// normalized restart vector on one to three of its nodes.
func drawDeadEndGraph(rng *rand.Rand) (*graph.Graph, []float64) {
	n := 10 + rng.Intn(50)
	b := graph.NewBuilder()
	b.AddNodes(n, nil)
	dead := 1 + rng.Intn(n/4+1) // nodes [0, dead) have no out-edges
	for u := dead; u < n; u++ {
		for e := 1 + rng.Intn(4); e > 0; e-- {
			if v := rng.Intn(n); v != u {
				b.MustAddEdge(graph.NodeID(u), graph.NodeID(v), 0.5+rng.Float64())
			}
		}
	}
	restart := make([]float64, n)
	for k := 1 + rng.Intn(3); k > 0; k-- {
		restart[rng.Intn(n)] += 1 + rng.Float64()
	}
	total := 0.0
	for _, r := range restart {
		total += r
	}
	for v := range restart {
		restart[v] /= total
	}
	return b.MustBuild(), restart
}
