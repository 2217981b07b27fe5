package baselines

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"roundtriprank/internal/core"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/testgraphs"
	"roundtriprank/internal/walk"
)

func newToyContext(seed int64) (*testgraphs.Toy, *Context) {
	toy := testgraphs.NewToy()
	ctx := NewContext(toy.Graph, walk.SingleNode(toy.T1))
	ctx.Rand = rand.New(rand.NewSource(seed))
	return toy, ctx
}

func TestMeasureNames(t *testing.T) {
	cases := map[string]Measure{
		"F-Rank/PPR":     NewFRank(),
		"T-Rank":         NewTRank(),
		"RoundTripRank":  NewRoundTripRank(),
		"RoundTripRank+": NewRoundTripRankPlus(0.3),
		"SimRank":        NewSimRank(),
		"AdamicAdar":     NewAdamicAdar(),
		"TCommute":       NewTCommute(10),
		"TCommute+":      NewTCommutePlus(10, 0.3),
		"ObjSqrtInv":     NewObjSqrtInv(0.25),
		"ObjSqrtInv+":    NewObjSqrtInvPlus(0.25, 0.3),
		"Harmonic":       NewHarmonic(),
		"Harmonic+":      NewHarmonicPlus(0.3),
		"Arithmetic":     NewArithmetic(),
		"Arithmetic+":    NewArithmeticPlus(0.3),
	}
	for want, m := range cases {
		if m.Name() != want {
			t.Errorf("Name() = %q, want %q", m.Name(), want)
		}
	}
}

func TestFTAndRoundTripMeasuresAgreeWithCore(t *testing.T) {
	toy, ctx := newToyContext(1)
	scores, err := core.Compute(context.Background(), toy.Graph, walk.SingleNode(toy.T1), core.DefaultParams())
	if err != nil {
		t.Fatalf("core.Compute: %v", err)
	}
	fScores, err := NewFRank().Score(ctx)
	if err != nil {
		t.Fatalf("FRank: %v", err)
	}
	tScores, err := NewTRank().Score(ctx)
	if err != nil {
		t.Fatalf("TRank: %v", err)
	}
	rScores, err := NewRoundTripRank().Score(ctx)
	if err != nil {
		t.Fatalf("RoundTripRank: %v", err)
	}
	for v := range fScores {
		if math.Abs(fScores[v]-scores.F[v]) > 1e-9 || math.Abs(tScores[v]-scores.T[v]) > 1e-9 {
			t.Fatalf("measure F/T disagrees with core at node %d", v)
		}
		if math.Abs(rScores[v]-scores.R[v]) > 1e-9 {
			t.Fatalf("measure R disagrees with core at node %d", v)
		}
	}
	// Mutating the returned slice must not corrupt the memoized context state.
	fScores[0] = 42
	again, _ := NewFRank().Score(ctx)
	if again[0] == 42 {
		t.Errorf("Score should return a copy of the memoized vector")
	}
}

func TestRoundTripRankPlusBetaValidation(t *testing.T) {
	_, ctx := newToyContext(1)
	if _, err := NewRoundTripRankPlus(1.5).Score(ctx); err == nil {
		t.Errorf("invalid beta should error")
	}
}

func TestHarmonicAndArithmetic(t *testing.T) {
	toy, ctx := newToyContext(1)
	f, _ := ctx.F()
	tr, _ := ctx.T()
	h, err := NewHarmonic().Score(ctx)
	if err != nil {
		t.Fatalf("Harmonic: %v", err)
	}
	a, err := NewArithmetic().Score(ctx)
	if err != nil {
		t.Fatalf("Arithmetic: %v", err)
	}
	for v := range h {
		if f[v] > 0 && tr[v] > 0 {
			wantH := 2 * f[v] * tr[v] / (f[v] + tr[v])
			if math.Abs(h[v]-wantH) > 1e-9 {
				t.Errorf("harmonic at %d = %g, want %g", v, h[v], wantH)
			}
		} else if h[v] != 0 {
			t.Errorf("harmonic with a zero component should be zero at %d", v)
		}
		wantA := (f[v] + tr[v]) / 2
		if math.Abs(a[v]-wantA) > 1e-9 {
			t.Errorf("arithmetic at %d = %g, want %g", v, a[v], wantA)
		}
	}
	// Weighted variants at beta=0 reduce to F-Rank.
	h0, _ := NewHarmonicPlus(0).Score(ctx)
	a0, _ := NewArithmeticPlus(0).Score(ctx)
	for v := range h0 {
		if f[v] > 0 && tr[v] > 0 && math.Abs(h0[v]-f[v]) > 1e-9 {
			t.Errorf("Harmonic+ at beta=0 should equal F-Rank at %d", v)
		}
		if math.Abs(a0[v]-f[v]) > 1e-9 {
			t.Errorf("Arithmetic+ at beta=0 should equal F-Rank at %d", v)
		}
	}
	_ = toy
}

func TestObjSqrtInv(t *testing.T) {
	toy, ctx := newToyContext(1)
	scores, err := NewObjSqrtInv(0.25).Score(ctx)
	if err != nil {
		t.Fatalf("ObjSqrtInv: %v", err)
	}
	f, _ := ctx.F()
	global, err := walk.GlobalPageRank(context.Background(), toy.Graph, 0.25, 0, 0)
	if err != nil {
		t.Fatalf("GlobalPageRank: %v", err)
	}
	for v := range scores {
		if f[v] <= 0 {
			if scores[v] != 0 {
				t.Errorf("unreachable node %d should score 0", v)
			}
			continue
		}
		want := f[v] / math.Sqrt(global[v])
		if math.Abs(scores[v]-want) > 1e-6*(1+want) {
			t.Errorf("ObjSqrtInv at %d = %g, want %g", v, scores[v], want)
		}
	}
	if _, err := NewObjSqrtInv(0).Score(ctx); err == nil {
		t.Errorf("invalid damping should error")
	}
	// Supplying a precomputed global PageRank short-circuits the computation.
	ctx2 := NewContext(toy.Graph, walk.SingleNode(toy.T1))
	ctx2.GlobalPR = global
	scores2, err := NewObjSqrtInv(0.25).Score(ctx2)
	if err != nil {
		t.Fatalf("ObjSqrtInv with provided PR: %v", err)
	}
	for v := range scores {
		if math.Abs(scores[v]-scores2[v]) > 1e-9 {
			t.Errorf("provided global PR changed scores at %d", v)
		}
	}
}

func TestAdamicAdar(t *testing.T) {
	toy, ctx := newToyContext(1)
	scores, err := NewAdamicAdar().Score(ctx)
	if err != nil {
		t.Fatalf("AdamicAdar: %v", err)
	}
	// v2's common neighbors with t1 are p3, p4 (degree 2 each); same for v1
	// via p1, p2; v3 shares only p5.
	wantV2 := 2 / math.Log(2)
	if math.Abs(scores[toy.V2]-wantV2) > 1e-9 {
		t.Errorf("AA(v2) = %g, want %g", scores[toy.V2], wantV2)
	}
	if math.Abs(scores[toy.V1]-scores[toy.V2]) > 1e-9 {
		t.Errorf("AA(v1) should equal AA(v2)")
	}
	if !(scores[toy.V3] < scores[toy.V2]) {
		t.Errorf("AA(v3) should be smaller than AA(v2)")
	}
	// Nodes beyond two hops score zero (e.g. t2 shares no neighbor with t1).
	if scores[toy.T2] != 0 {
		t.Errorf("AA(t2) = %g, want 0", scores[toy.T2])
	}
}

func TestTCommute(t *testing.T) {
	toy, ctx := newToyContext(7)
	m := NewTCommute(10)
	m.Samples = 2000
	scores, err := m.Score(ctx)
	if err != nil {
		t.Fatalf("TCommute: %v", err)
	}
	// The query itself has commute time 0, hence the maximum score 1.
	if math.Abs(scores[toy.T1]-1) > 1e-9 {
		t.Errorf("score(q) = %g, want 1", scores[toy.T1])
	}
	// Venues with on-topic papers should be closer than the off-topic term t2.
	if !(scores[toy.V2] > scores[toy.T2]) {
		t.Errorf("v2 (%g) should be closer than t2 (%g)", scores[toy.V2], scores[toy.T2])
	}
	for v, s := range scores {
		if s < -1e-9 || s > 1+1e-9 {
			t.Errorf("score out of [0,1] at %d: %g", v, s)
		}
	}
	if _, err := NewTCommute(0).Score(ctx); err == nil {
		t.Errorf("zero horizon should error")
	}
	bad := NewTCommute(10)
	bad.Samples = 0
	if _, err := bad.Score(ctx); err == nil {
		t.Errorf("zero samples should error")
	}
}

func TestTCommuteHittingTimeExactOnCycle(t *testing.T) {
	// On a directed 3-cycle with query node 0, the exact truncated hitting
	// times to the query with T = 10 are h(1)=2, h(2)=1.
	g := testgraphs.Cycle(3)
	ctx := NewContext(g, walk.SingleNode(0))
	ctx.Rand = rand.New(rand.NewSource(3))
	m := NewTCommute(10)
	m.Samples = 4000
	m.Beta = 1 // score from the exact DP side only
	scores, err := m.Score(ctx)
	if err != nil {
		t.Fatalf("TCommute: %v", err)
	}
	want1 := 1 - 2.0/10
	want2 := 1 - 1.0/10
	if math.Abs(scores[1]-want1) > 1e-9 || math.Abs(scores[2]-want2) > 1e-9 {
		t.Errorf("cycle hitting scores = %g, %g; want %g, %g", scores[1], scores[2], want1, want2)
	}
}

func TestSimRankMonteCarloAgainstExact(t *testing.T) {
	toy, _ := newToyContext(1)
	exact, err := ExactSimRank(toy.Graph, 0.85, 15)
	if err != nil {
		t.Fatalf("ExactSimRank: %v", err)
	}
	ctx := NewContext(toy.Graph, walk.SingleNode(toy.T1))
	ctx.Rand = rand.New(rand.NewSource(11))
	m := NewSimRank()
	m.Samples = 4000
	m.Depth = 8
	scores, err := m.Score(ctx)
	if err != nil {
		t.Fatalf("SimRank: %v", err)
	}
	// The Monte-Carlo estimator should be within a few percent of the exact
	// fixed point for the venue nodes (all edges have weight 1, so weighted
	// backward steps equal the uniform steps assumed by SimRank).
	for _, v := range []graph.NodeID{toy.V1, toy.V2, toy.V3, toy.P[0]} {
		if math.Abs(scores[v]-exact[toy.T1][v]) > 0.05 {
			t.Errorf("SimRank MC at node %d = %.4f, exact %.4f", v, scores[v], exact[toy.T1][v])
		}
	}
	if scores[toy.T1] != 1 {
		t.Errorf("s(q,q) should be 1, got %g", scores[toy.T1])
	}
}

func TestSimRankValidation(t *testing.T) {
	_, ctx := newToyContext(1)
	if _, err := (SimRankMeasure{C: 1.5, Samples: 10, Depth: 3}).Score(ctx); err == nil {
		t.Errorf("invalid C should error")
	}
	if _, err := (SimRankMeasure{C: 0.8, Samples: 0, Depth: 3}).Score(ctx); err == nil {
		t.Errorf("zero samples should error")
	}
	if _, err := ExactSimRank(testgraphs.Cycle(3), 0, 5); err == nil {
		t.Errorf("ExactSimRank invalid C should error")
	}
}

func TestExactSimRankProperties(t *testing.T) {
	g := testgraphs.NewToy().Graph
	s, err := ExactSimRank(g, 0.85, 12)
	if err != nil {
		t.Fatalf("ExactSimRank: %v", err)
	}
	n := g.NumNodes()
	for a := 0; a < n; a++ {
		if s[a][a] != 1 {
			t.Errorf("s(%d,%d) = %g, want 1", a, a, s[a][a])
		}
		for b := 0; b < n; b++ {
			if s[a][b] < -1e-12 || s[a][b] > 1+1e-12 {
				t.Errorf("s(%d,%d) = %g out of range", a, b, s[a][b])
			}
			if math.Abs(s[a][b]-s[b][a]) > 1e-9 {
				t.Errorf("SimRank should be symmetric at (%d,%d)", a, b)
			}
		}
	}
}

func TestMeasuresOnMaskedView(t *testing.T) {
	// All measures must work on a graph with edges masked out (the
	// evaluation removes query-to-ground-truth edges).
	toy := testgraphs.NewToy()
	masked := toy.Graph.Without([]graph.EdgeKey{
		{From: toy.T1, To: toy.P[0]}, {From: toy.P[0], To: toy.T1},
	})
	ctx := NewContext(masked, walk.SingleNode(toy.T1))
	ctx.Rand = rand.New(rand.NewSource(5))
	measures := []Measure{
		NewFRank(), NewTRank(), NewRoundTripRank(), NewRoundTripRankPlus(0.3),
		NewSimRank(), NewAdamicAdar(), NewTCommute(5), NewObjSqrtInv(0.25),
		NewHarmonic(), NewArithmetic(),
	}
	for _, m := range measures {
		scores, err := m.Score(ctx)
		if err != nil {
			t.Fatalf("%s on masked view: %v", m.Name(), err)
		}
		if len(scores) != toy.Graph.NumNodes() {
			t.Fatalf("%s returned %d scores", m.Name(), len(scores))
		}
	}
}

// TestExactSimRankPackedMatchesFlat holds ExactSimRank over a packed view to
// the same graph's flat arrays bit for bit: it keeps every in-row for the
// whole iteration, longer than a packed session's row lives.
func TestExactSimRankPackedMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 40
	b := graph.NewBuilder()
	b.AddNodes(n, nil)
	for u := 0; u < n; u++ {
		for e := 1 + rng.Intn(4); e > 0; e-- {
			if v := rng.Intn(n); v != u {
				b.MustAddEdge(graph.NodeID(u), graph.NodeID(v), 0.5+rng.Float64())
			}
		}
	}
	g := b.MustBuild()
	want, err := ExactSimRank(g, 0.8, 6)
	if err != nil {
		t.Fatalf("ExactSimRank flat: %v", err)
	}
	got, err := ExactSimRank(graph.Pack(g), 0.8, 6)
	if err != nil {
		t.Fatalf("ExactSimRank packed: %v", err)
	}
	for a := range want {
		for b := range want[a] {
			if math.Float64bits(got[a][b]) != math.Float64bits(want[a][b]) {
				t.Fatalf("s(%d,%d): packed %g, flat %g", a, b, got[a][b], want[a][b])
			}
		}
	}
}
