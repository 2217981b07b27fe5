package walk

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/testgraphs"
)

// This file checks T-Rank's single-mode jump (accelerator): where it
// fires, the answer keeps the certificate of a plain solve; where it does
// not, the answer is the plain recurrence's bit for bit; and on the bench
// spine's graph family it cuts the gathers a solve takes by more than half.

// countingGatherer counts the gathers of a solve.
type countingGatherer struct {
	Gatherer
	gathers int
}

func (c *countingGatherer) GatherIn(ctx context.Context, x, dst []float64, rows []graph.NodeID) error {
	c.gathers++
	return c.Gatherer.GatherIn(ctx, x, dst, rows)
}

func (c *countingGatherer) GatherOut(ctx context.Context, x, dst []float64, rows []graph.NodeID) error {
	c.gathers++
	return c.Gatherer.GatherOut(ctx, x, dst, rows)
}

// TestTRankTailNeverFiresOnSmallGraphs pins that the gate holds the jump back
// where no single geometric mode dominates: on the toy graph, a cycle, a line
// and a star, for every query node, α and tolerance, T-Rank is the plain
// recurrence bit for bit. (Nor does T switch to mixing there: its change
// moves to nodes the last one did not touch.)
func TestTRankTailNeverFiresOnSmallGraphs(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"toy":   testgraphs.NewToy().Graph,
		"cycle": testgraphs.Cycle(23),
		"line":  testgraphs.Line(17),
		"star":  testgraphs.Star(9),
	}
	for name, g := range graphs {
		gth := Local(g, 1)
		for _, alpha := range []float64{0.1, 0.25, 0.5} {
			for _, tol := range []float64{1e-6, 1e-9, 1e-11} {
				p := Params{Alpha: alpha, Tol: tol, MaxIter: 1000}
				for v := 0; v < g.NumNodes(); v++ {
					restart := make([]float64, g.NumNodes())
					restart[v] = 1
					got, _, err := tRank(context.Background(), gth, restart, p)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					assertBitIdentical(t, name, serialTRankReference(g, restart, p), got)
				}
			}
		}
	}
}

// TestQuickTRankTailWithinCertificate is the property the jump must keep: on
// random graphs with dead ends, multi-node queries and α ∈ {0.1, 0.25, 0.5},
// the jumped solve lies within (1−α)/α·Tol, in every entry, of a plain solve
// at Tol 1e-15 (each side's certificate, so the bound adds the reference's
// own), and every entry is a probability. The jump fires on about two draws
// in five (less often at α 0.5, whose plain solve is short); fewer than one
// in ten means the property no longer reaches it.
func TestQuickTRankTailWithinCertificate(t *testing.T) {
	draws, jumped := 0, 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, restart := drawDeadEndGraph(rng)
		alpha := []float64{0.1, 0.25, 0.5}[rng.Intn(3)]
		p := Params{Alpha: alpha, Tol: []float64{1e-4, 1e-6, 1e-9}[rng.Intn(3)], MaxIter: 5000}
		gth := &countingGatherer{Gatherer: Local(g, 1)}
		got, _, err := tRank(context.Background(), gth, restart, p)
		if err != nil || gth.gathers == p.MaxIter {
			t.Logf("seed %d: solve did not converge (%d gathers, %v)", seed, gth.gathers, err)
			return false
		}
		const refTol = 1e-15
		want := serialTRankReference(g, restart, Params{Alpha: alpha, Tol: refTol, MaxIter: 100000})
		bound := (1 - alpha) / alpha * (p.Tol + refTol)
		plain := serialTRankReference(g, restart, p)
		draws++
		for v := range got {
			if got[v] != plain[v] {
				jumped++
				break
			}
		}
		for v, x := range got {
			if !(x >= 0 && x <= 1) || math.Abs(x-want[v]) > bound {
				t.Logf("seed %d (α %g, tol %g): t[%d] = %g, plain solve %g, bound %g", seed, alpha, p.Tol, v, x, want[v], bound)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.6}); err != nil {
		t.Fatal(err)
	}
	if 10*jumped < draws {
		t.Errorf("the jump fired on %d of %d draws: too few to check it", jumped, draws)
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

// TestTRankTailGathers pins what the jump buys on the bench spine's graph
// family (directed R-MAT, 10^4 nodes, seed 42) at the default parameters: a
// tail query and the top hub each converge in the pinned number of gathers,
// at most half of what the plain recurrence takes. A change to the count is a
// change to the solver's arithmetic or the gate.
func TestTRankTailGathers(t *testing.T) {
	g := rmatGraph(10000, 42)
	hub, tail := graph.NodeID(0), graph.NoNode
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
		out, _ := g.OutNeighbors(v)
		if d := g.Degree(v); tail == graph.NoNode && len(out) > 0 && d > len(out) && d <= 16 {
			tail = v
		}
	}
	p := DefaultParams()
	for _, tc := range []struct {
		name    string
		q       graph.NodeID
		gathers int
	}{
		{"tail", tail, 18},
		{"hub", hub, 24},
	} {
		restart := make([]float64, g.NumNodes())
		restart[tc.q] = 1
		gth := &countingGatherer{Gatherer: Local(g, 0)}
		if _, _, err := tRank(context.Background(), gth, restart, p); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_, plain, _ := serialTRank(g, restart, p, false, false)
		if gth.gathers != tc.gathers {
			t.Errorf("%s (node %d): %d gathers, pinned %d", tc.name, tc.q, gth.gathers, tc.gathers)
		}
		if 2*gth.gathers > plain {
			t.Errorf("%s (node %d): %d gathers, more than half the plain recurrence's %d", tc.name, tc.q, gth.gathers, plain)
		}
	}
}

// TestTailJumpArithmetic pins the jump on hand-made histories of dyadic
// values, so every expected vector is exact: a geometric history jumps to its
// limit, clamped to [0, 1]; a sign-alternating one fails the gate; and after
// a jump two plain steps pass before the next.
func TestTailJumpArithmetic(t *testing.T) {
	// steps feeds the plain steps xs[1], xs[2], … through a fresh tail, each
	// taken from where the one before left the iterate, and returns where the
	// last one leaves it.
	steps := func(xs ...[]float64) []float64 {
		tail := accelerator{tail: true}
		cur := xs[0]
		for _, x := range xs[1:] {
			next := append([]float64(nil), x...)
			diff := 0.0
			for v := range next {
				diff += math.Abs(next[v] - cur[v])
			}
			tail.step(cur, next, diff)
			cur = next
		}
		return cur
	}
	// Changes (1/8, 1/16, −1/4) then half that: ρ = 1/2, so the steps still
	// to come sum to d₂ itself.
	x0, x1, x2 := []float64{0.25, 0.5, 0.75}, []float64{0.375, 0.5625, 0.5}, []float64{0.4375, 0.59375, 0.375}
	assertBitIdentical(t, "no history", x1, steps(x0, x1))
	assertBitIdentical(t, "geometric", []float64{0.5, 0.625, 0.25}, steps(x0, x1, x2))
	// ρ = 3/4: the limit x₂ + 3·d₂ = (1.5, −0.25) leaves [0, 1].
	assertBitIdentical(t, "clamped", []float64{1, 0},
		steps([]float64{0.5, 0.25}, []float64{0.75, 0.125}, []float64{0.9375, 0.03125}))
	// d₂ = −d₁/2: the norms shrink by half, but the mode alternates.
	alt := []float64{0.3125, 0.53125, 0.625}
	assertBitIdentical(t, "alternating", alt, steps(x0, x1, alt))
	// After the jump to (1/2, 5/8, 1/4), a step that halves again is the
	// first of two fresh ones and stands; the second jumps.
	x3 := []float64{0.53125, 0.640625, 0.1875}
	x4 := []float64{0.546875, 0.6484375, 0.15625}
	assertBitIdentical(t, "first step after a jump", x3, steps(x0, x1, x2, x3))
	assertBitIdentical(t, "second step after a jump", []float64{0.5625, 0.65625, 0.125}, steps(x0, x1, x2, x3, x4))
}
