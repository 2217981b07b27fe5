package walk

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"roundtriprank/internal/datasets"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/testgraphs"
)

// This file checks the switch to Anderson mixing (accelerator): a mixed solve
// stays within the Bound it reports, and the switch engages where a leg
// stalls on slow modes — where it cuts the gathers — and not where the change
// travels.

// TestQuickMixedSolveBound is TestQuickFRankBound on draws that engage the
// mixing: near-bipartite random graphs (drawNearBipartiteGraph), α 0.1 and
// 0.25, a quarter of the draws capped at MaxIter 10–39. Each leg must equal
// its serial reference (serialFRank, serialTRank) bit for bit, lie in
// [0, 1], and lie within the Bound it reports of a plain serial solve at Tol
// 1e-15, whose own error (1−α)/α²·1e-15 the check adds; an uncapped leg must
// converge. At least a quarter of the legs must switch to mixing, or the
// property no longer reaches it.
func TestQuickMixedSolveBound(t *testing.T) {
	legs, engaged := 0, 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, restart := drawNearBipartiteGraph(rng)
		alpha := []float64{0.1, 0.25}[rng.Intn(2)]
		p := Params{Alpha: alpha, Tol: []float64{1e-6, 1e-9}[rng.Intn(2)], MaxIter: 5000}
		capped := rng.Intn(4) == 0
		if capped {
			p.MaxIter = 10 + rng.Intn(30)
		}
		const refTol = 1e-15
		ref := Params{Alpha: alpha, Tol: refTol, MaxIter: 100000}
		refErr := (1 - alpha) / (alpha * alpha) * refTol
		mirrorF, _, onF := serialFRank(g, restart, p, true)
		mirrorT, _, onT := serialTRank(g, restart, p, true)
		for _, leg := range []struct {
			name         string
			rule         func(context.Context, Gatherer, []float64, Params) ([]float64, Bound, error)
			mirror, want []float64
			on           bool
		}{
			{"F", fRank, mirrorF, serialFRankReference(g, restart, ref), onF},
			{"T", tRank, mirrorT, serialTRankReference(g, restart, ref), onT},
		} {
			got, b, err := leg.rule(context.Background(), Local(g, 1), restart, p)
			if err != nil {
				t.Logf("seed %d: %s: %v", seed, leg.name, err)
				return false
			}
			legs++
			if leg.on {
				engaged++
			}
			if !capped && !b.Converged {
				t.Logf("seed %d (α %g, tol %g): %s did not converge: %+v", seed, alpha, p.Tol, leg.name, b)
				return false
			}
			for v, x := range got {
				if x != leg.mirror[v] {
					t.Logf("seed %d: %s[%d] = %g, its serial reference %g", seed, leg.name, v, x, leg.mirror[v])
					return false
				}
				if !(x >= 0 && x <= 1) || math.Abs(x-leg.want[v]) > b.Err+refErr {
					t.Logf("seed %d (α %g, tol %g, MaxIter %d, mixed %v): %s[%d] = %g, plain solve %g, bound %g",
						seed, alpha, p.Tol, p.MaxIter, leg.on, leg.name, v, x, leg.want[v], b.Err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.6}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d legs switched to mixing", engaged, legs)
	if 4*engaged < legs {
		t.Errorf("%d of %d legs switched to mixing: too few to check it", engaged, legs)
	}
}

// drawNearBipartiteGraph draws a graph of 10–59 nodes on two alternating
// sides: each node but a few dead ends has one to four weighted out-edges,
// nine in ten to the other side, half of them with their reverse edge, and a
// normalized restart vector on one to three of its nodes. A walk on it
// alternates sides, so its change carries a sign-alternating mode beside the
// slow one, as on BibNet.
func drawNearBipartiteGraph(rng *rand.Rand) (*graph.Graph, []float64) {
	n := 10 + rng.Intn(50)
	b := graph.NewBuilder()
	b.AddNodes(n, nil)
	dead := rng.Intn(n/8 + 1) // nodes [0, dead) have no out-edges
	for u := dead; u < n; u++ {
		for e := 1 + rng.Intn(4); e > 0; e-- {
			v := rng.Intn(n)
			if rng.Intn(10) > 0 && v%2 == u%2 {
				v = (v + 1) % n
			}
			if v == u {
				continue
			}
			w := 0.5 + rng.Float64()
			b.MustAddEdge(graph.NodeID(u), graph.NodeID(v), w)
			if v >= dead && rng.Intn(2) == 0 {
				b.MustAddEdge(graph.NodeID(v), graph.NodeID(u), w)
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

// TestMixArithmetic pins a mixed step on a hand-made one-mode map of dyadic
// values, G(x) = x* + ½·(x − x*), so the expected vector is exact: with one
// column of history, the first mixed step after the switch lands on the
// fixed point x* = (1.25, −0.5, 0.5), clamped to [0, 1].
func TestMixArithmetic(t *testing.T) {
	g0, g1 := []float64{0.875, 0, 0.5}, []float64{1.0625, -0.25, 0.5}
	// The switch after the plain step from (½, ½, ½) to g0 = G(½, ½, ½),
	// which moved by 0.875; then the plain step from g0 to g1 = G(g0).
	a := accelerator{prev: []float64{0.375, -0.5, 0}, norm: 0.875}
	a.startMixing(g0)
	next := append([]float64(nil), g1...)
	a.step(g0, next, 0.4375)
	assertBitIdentical(t, "one mode", []float64{1, 0, 0.5}, next)
	if a.cols != 1 || !a.mixed {
		t.Errorf("%d columns held, mixed %v; want 1 and a mixed step", a.cols, a.mixed)
	}
}

// TestMixedSolveGathers pins where the switch engages, at the default
// parameters. On the small BibNet ten paper queries take at most 0.7× the
// gathers of the plain F and T iterations, every leg engaging. On an R-MAT
// graph of 2 000 nodes (every 20th node a query) most T legs engage — 82 of
// the 100 — on the slow mode of the walks that leak out of its core, and no
// F leg, whose restart removes that mode. On a directed cycle neither leg
// engages, nor does a star's T, whose change flips between the hub and the
// leaves. A star's F engages: its change is one sign-alternating mode,
// d_k = −(1−α)·d_{k−1}, which the first mixed steps remove.
func TestMixedSolveGathers(t *testing.T) {
	p := DefaultParams()
	net, err := datasets.GenerateBibNet(datasets.SmallBibNetConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph
	mixed, plain := 0, 0
	for _, q := range net.Papers[:10] {
		restart := make([]float64, g.NumNodes())
		restart[q] = 1
		gth := &countingGatherer{Gatherer: Local(g, 0)}
		if _, _, err := fRank(context.Background(), gth, restart, p); err != nil {
			t.Fatal(err)
		}
		if _, _, err := tRank(context.Background(), gth, restart, p); err != nil {
			t.Fatal(err)
		}
		mixed += gth.gathers
		_, sweepsF, onF := serialFRank(g, restart, p, true)
		_, sweepsT, onT := serialTRank(g, restart, p, true)
		if !onF || !onT {
			t.Errorf("paper %d: F engaged %v, T engaged %v", q, onF, onT)
		}
		if sweepsF+sweepsT != gth.gathers {
			t.Errorf("paper %d: %d gathers, the serial references %d", q, gth.gathers, sweepsF+sweepsT)
		}
		_, sweepsF, _ = serialFRank(g, restart, p, false)
		_, sweepsT, _ = serialTRank(g, restart, p, false)
		plain += sweepsF + sweepsT
	}
	t.Logf("small BibNet, 10 paper queries: %d gathers, %d without mixing", mixed, plain)
	if 10*mixed > 7*plain {
		t.Errorf("%d gathers, more than 0.7× the %d without mixing", mixed, plain)
	}

	rmat := rmatGraph(2000, 42)
	for _, tc := range []struct {
		name           string
		g              *graph.Graph
		every          int
		fMixes, tMixes bool // every F leg engages; most T legs do
	}{
		{"cycle", testgraphs.Cycle(23), 1, false, false},
		{"rmat", rmat, 20, false, true},
		{"star", testgraphs.Star(9), 1, true, false},
	} {
		queries, tMixed := 0, 0
		for v := 0; v < tc.g.NumNodes(); v += tc.every {
			restart := make([]float64, tc.g.NumNodes())
			restart[v] = 1
			if _, _, on := serialFRank(tc.g, restart, p, true); on != tc.fMixes {
				t.Errorf("%s, query %d: F engaged %v", tc.name, v, on)
			}
			queries++
			if _, _, on := serialTRank(tc.g, restart, p, true); on {
				tMixed++
			}
		}
		if (tc.tMixes && 2*tMixed <= queries) || (!tc.tMixes && tMixed > 0) {
			t.Errorf("%s: %d of %d T legs engaged", tc.name, tMixed, queries)
		}
	}
}

// TestTRankTailGathers pins what the mixing buys T on the bench spine's
// graph family (directed R-MAT, 10^4 nodes, seed 42) at the default
// parameters: a tail query and the top hub each converge in the pinned number
// of gathers, at most half of what the plain recurrence takes. A change to
// the count is a change to the solver's arithmetic or the stall rule.
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
		{"tail", tail, 16},
		{"hub", hub, 18},
	} {
		restart := make([]float64, g.NumNodes())
		restart[tc.q] = 1
		gth := &countingGatherer{Gatherer: Local(g, 0)}
		if _, _, err := tRank(context.Background(), gth, restart, p); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_, plain, _ := serialTRank(g, restart, p, false)
		if gth.gathers != tc.gathers {
			t.Errorf("%s (node %d): %d gathers, pinned %d", tc.name, tc.q, gth.gathers, tc.gathers)
		}
		if 2*gth.gathers > plain {
			t.Errorf("%s (node %d): %d gathers, more than half the plain recurrence's %d", tc.name, tc.q, gth.gathers, plain)
		}
	}
}

// TestQuickTRankTailWithinCertificate is the property the mixing must keep
// for T, checked against T's fixed certificate rather than the Bound a solve
// reports: on random graphs with dead ends, multi-node queries and
// α ∈ {0.1, 0.25, 0.5}, the solve lies within (1−α)/α·Tol, in every entry,
// of a plain solve at Tol 1e-15 (each side's certificate, so the bound adds
// the reference's own), and every entry is a probability. Fewer than one draw
// in ten that mixes, and so differs from the plain recurrence at its own Tol,
// means the property no longer reaches a mixed solve.
func TestQuickTRankTailWithinCertificate(t *testing.T) {
	draws, mixed := 0, 0
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
		draws++
		if !sameBits(got, serialTRankReference(g, restart, p)) {
			mixed++
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
	t.Logf("%d of %d draws moved by mixing", mixed, draws)
	if 10*mixed < draws {
		t.Errorf("%d of %d draws moved by mixing: too few to check a mixed solve", mixed, draws)
	}
}

// TestTRankNeverMixesOnSmallGraphs pins that T does not stall where its
// change travels: on the toy graph, a cycle, a line and a star, for every
// query node, α and tolerance, T-Rank is the plain recurrence bit for bit,
// since each step's change moves to nodes the last one did not touch.
func TestTRankNeverMixesOnSmallGraphs(t *testing.T) {
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

// countingGatherer counts the gathers of a solve.
type countingGatherer struct {
	Gatherer
	gathers int
}

func (c *countingGatherer) Gather(ctx context.Context, dir graph.Dir, x, dst []float64, rows []graph.NodeID) error {
	c.gathers++
	return c.Gatherer.Gather(ctx, dir, x, dst, rows)
}
