package bounds

import (
	"context"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/testgraphs"
	"roundtriprank/internal/walk"
)

// binding is one of the two ways the trackers attach to a graph: directly to
// its CSR arrays (Init), or through a graph.Rows session (InitRows) — here the
// graph.ViewRows adapter over a wrapper that hides the CSR, the route every
// view without flat arrays takes. The soundness tests run under both, against
// the independent walk.FRank/TRank reference.
type binding struct {
	f func(*FFlat, *graph.Graph, walk.Query, FOptions) error
	t func(*TFlat, *graph.Graph, walk.Query, TOptions) error
}

func hidden(g *graph.Graph) graph.Rows { return graph.ViewRows(struct{ graph.View }{g}) }

var (
	csrBinding = binding{
		f: func(fb *FFlat, g *graph.Graph, q walk.Query, o FOptions) error { return fb.Init(g, q, o) },
		t: func(tb *TFlat, g *graph.Graph, q walk.Query, o TOptions) error { return tb.Init(g, q, o) },
	}
	rowsBinding = binding{
		f: func(fb *FFlat, g *graph.Graph, q walk.Query, o FOptions) error { return fb.InitRows(hidden(g), q, o) },
		t: func(tb *TFlat, g *graph.Graph, q walk.Query, o TOptions) error { return tb.InitRows(hidden(g), q, o) },
	}
)

// exactFT computes the exact F-Rank and T-Rank vectors for checking bounds.
func exactFT(t *testing.T, view graph.View, q walk.Query, alpha float64) ([]float64, []float64) {
	t.Helper()
	p := walk.Params{Alpha: alpha, Tol: 1e-13, MaxIter: 2000}
	f, err := walk.FRank(context.Background(), view, q, p)
	if err != nil {
		t.Fatalf("FRank: %v", err)
	}
	tr, err := walk.TRank(context.Background(), view, q, p)
	if err != nil {
		t.Fatalf("TRank: %v", err)
	}
	return f, tr
}

// tracker is what FFlat and TFlat share for the soundness checks.
type tracker interface {
	CheckConsistent() error
	Seen(graph.NodeID) bool
	Lower(graph.NodeID) float64
	Upper(graph.NodeID) float64
	UnseenUpper() float64
}

// sandwiched reports the first node whose exact value escapes its bounds.
func sandwiched(b tracker, exact []float64, tol float64) (int, bool) {
	for v := range exact {
		node := graph.NodeID(v)
		if b.Seen(node) {
			if exact[v] < b.Lower(node)-tol || exact[v] > b.Upper(node)+tol {
				return v, false
			}
		} else if exact[v] > b.UnseenUpper()+tol {
			return v, false
		}
	}
	return 0, true
}

func checkSound(t *testing.T, b tracker, exact []float64, label string) {
	t.Helper()
	if err := b.CheckConsistent(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if v, ok := sandwiched(b, exact, 1e-9); !ok {
		node := graph.NodeID(v)
		t.Errorf("%s: node %d (seen=%v) exact %.9f outside [%.9f, %.9f], unseen bound %.9f",
			label, v, b.Seen(node), exact[v], b.Lower(node), b.Upper(node), b.UnseenUpper())
	}
}

func fSoundnessOnToy(t *testing.T, bind binding) {
	toy := testgraphs.NewToy()
	q := walk.SingleNode(toy.T1)
	alpha := 0.25
	exactF, _ := exactFT(t, toy.Graph, q, alpha)

	for _, improved := range []bool{true, false} {
		for _, stageII := range []bool{true, false} {
			opt := DefaultFOptions(alpha)
			opt.M = 2
			opt.ImprovedBound = improved
			opt.StageII = stageII
			var fb FFlat
			if err := bind.f(&fb, toy.Graph, q, opt); err != nil {
				t.Fatalf("Init: %v", err)
			}
			label := "improved=" + strconv.FormatBool(improved) + " stageII=" + strconv.FormatBool(stageII)
			prevUnseen := fb.UnseenUpper()
			for round := 0; round < 12; round++ {
				fb.Expand()
				checkSound(t, &fb, exactF, label)
				if fb.UnseenUpper() > prevUnseen+1e-12 {
					t.Errorf("%s: unseen upper bound increased", label)
				}
				prevUnseen = fb.UnseenUpper()
			}
			if fb.SeenCount() == 0 {
				t.Errorf("f-neighborhood should not be empty after expansions")
			}
		}
	}
}

func TestFFlatSoundnessOnToy(t *testing.T)   { fSoundnessOnToy(t, csrBinding) }
func TestFBoundsSoundnessOnToy(t *testing.T) { fSoundnessOnToy(t, rowsBinding) }

// expandedF returns an F tracker on the toy graph after the given number of
// expansions with M = 3.
func expandedF(t *testing.T, improved, stageII bool, rounds int) (*FFlat, *testgraphs.Toy) {
	t.Helper()
	toy := testgraphs.NewToy()
	fb := new(FFlat)
	opt := FOptions{Alpha: 0.25, M: 3, ImprovedBound: improved, StageII: stageII}
	if err := fb.Init(toy.Graph, walk.SingleNode(toy.T1), opt); err != nil {
		t.Fatalf("Init: %v", err)
	}
	for i := 0; i < rounds; i++ {
		fb.Expand()
	}
	return fb, toy
}

func TestImprovedFBoundTighterThanWeak(t *testing.T) {
	strong, _ := expandedF(t, true, false, 5)
	weak, _ := expandedF(t, false, false, 5)
	if strong.UnseenUpper() > weak.UnseenUpper()+1e-12 {
		t.Errorf("Proposition 4 bound (%g) should not be looser than the first-arrival bound (%g)",
			strong.UnseenUpper(), weak.UnseenUpper())
	}
}

func TestStageIITightensFBounds(t *testing.T) {
	with, toy := expandedF(t, true, true, 4)
	without, _ := expandedF(t, true, false, 4)
	// Width of the interval at the query node should be no larger with
	// Stage II enabled.
	widthWith := with.Upper(toy.T1) - with.Lower(toy.T1)
	widthWithout := without.Upper(toy.T1) - without.Lower(toy.T1)
	if widthWith > widthWithout+1e-12 {
		t.Errorf("Stage II should tighten bounds: width %.9f vs %.9f", widthWith, widthWithout)
	}
}

func tSoundnessOnToy(t *testing.T, bind binding) {
	toy := testgraphs.NewToy()
	q := walk.SingleNode(toy.T1)
	alpha := 0.25
	_, exactT := exactFT(t, toy.Graph, q, alpha)

	for _, stageII := range []bool{true, false} {
		opt := DefaultTOptions(alpha)
		opt.M = 2
		opt.StageII = stageII
		var tb TFlat
		if err := bind.t(&tb, toy.Graph, q, opt); err != nil {
			t.Fatalf("Init: %v", err)
		}
		label := "stageII=" + strconv.FormatBool(stageII)
		checkSound(t, &tb, exactT, "initial "+label)
		if math.Abs(tb.Lower(toy.T1)-alpha) > 1e-12 {
			t.Errorf("initial lower bound at query should be alpha, got %g", tb.Lower(toy.T1))
		}
		if tb.Upper(toy.T1) != 1 {
			t.Errorf("initial upper bound at query should be 1, got %g", tb.Upper(toy.T1))
		}
		if tb.UnseenUpper() > 1-alpha+1e-12 {
			t.Errorf("initial unseen bound should be at most 1-alpha, got %g", tb.UnseenUpper())
		}
		prevUnseen := tb.UnseenUpper()
		for round := 0; round < 10; round++ {
			added := tb.Expand()
			checkSound(t, &tb, exactT, label)
			if tb.UnseenUpper() > prevUnseen+1e-12 {
				t.Errorf("unseen upper bound increased")
			}
			prevUnseen = tb.UnseenUpper()
			if added == 0 && !tb.Exhausted() {
				t.Errorf("Expand added nothing but border nodes remain")
			}
			if tb.Exhausted() {
				break
			}
		}
		// The toy graph is strongly connected (undirected edges), so the
		// expansion eventually covers all nodes and the unseen bound drops.
		if !tb.Exhausted() {
			t.Errorf("t-neighborhood should eventually exhaust on the toy graph")
		}
		if tb.UnseenUpper() != 0 {
			t.Errorf("exhausted neighborhood should have zero unseen bound, got %g", tb.UnseenUpper())
		}
		if tb.SeenCount() != toy.Graph.NumNodes() {
			t.Errorf("exhausted neighborhood should contain all nodes: %d vs %d",
				tb.SeenCount(), toy.Graph.NumNodes())
		}
	}
}

func TestTFlatSoundnessOnToy(t *testing.T)   { tSoundnessOnToy(t, csrBinding) }
func TestTBoundsSoundnessOnToy(t *testing.T) { tSoundnessOnToy(t, rowsBinding) }

// On a directed line 0->1->2->3 with query 0, only node 0 can reach the query;
// the t-neighborhood exhausts immediately with no border nodes beyond the
// query's in-neighbors (there are none).
func tDirectedLine(t *testing.T, bind binding) {
	g := testgraphs.Line(4)
	q := walk.SingleNode(0)
	var tb TFlat
	if err := bind.t(&tb, g, q, DefaultTOptions(0.25)); err != nil {
		t.Fatalf("Init: %v", err)
	}
	if !tb.Exhausted() {
		t.Fatalf("query with no in-neighbors should exhaust immediately")
	}
	if tb.UnseenUpper() != 0 {
		t.Errorf("unseen bound should be 0, got %g", tb.UnseenUpper())
	}
	if tb.Expand() != 0 {
		t.Errorf("Expand on an exhausted neighborhood should add nothing")
	}
	_, exactT := exactFT(t, g, q, 0.25)
	checkSound(t, &tb, exactT, "line")
}

func TestTFlatDirectedLine(t *testing.T)   { tDirectedLine(t, csrBinding) }
func TestTBoundsDirectedLine(t *testing.T) { tDirectedLine(t, rowsBinding) }

func boundsValidation(t *testing.T, bind binding) {
	toy := testgraphs.NewToy()
	var fb FFlat
	if err := bind.f(&fb, toy.Graph, walk.Query{}, DefaultFOptions(0.25)); err == nil {
		t.Errorf("empty query should error for FFlat")
	}
	if err := bind.f(&fb, toy.Graph, walk.SingleNode(toy.T1), DefaultFOptions(0)); err == nil {
		t.Errorf("alpha 0 should error for FFlat")
	}
	var tb TFlat
	if err := bind.t(&tb, toy.Graph, walk.Query{}, DefaultTOptions(0.25)); err == nil {
		t.Errorf("empty query should error for TFlat")
	}
	if err := bind.t(&tb, toy.Graph, walk.SingleNode(toy.T1), DefaultTOptions(1.5)); err == nil {
		t.Errorf("alpha out of range should error for TFlat")
	}
	if err := bind.t(&tb, toy.Graph, walk.SingleNode(999), DefaultTOptions(0.25)); err == nil {
		t.Errorf("out-of-range query should error for TFlat")
	}
}

func TestFlatBoundsValidation(t *testing.T) { boundsValidation(t, csrBinding) }
func TestBoundsValidation(t *testing.T)     { boundsValidation(t, rowsBinding) }

func TestMultiNodeQueryBounds(t *testing.T) {
	toy := testgraphs.NewToy()
	q := walk.MultiNode(toy.T1, toy.T2)
	alpha := 0.25
	exactF, exactT := exactFT(t, toy.Graph, q, alpha)

	var fb FFlat
	if err := fb.Init(toy.Graph, q, DefaultFOptions(alpha)); err != nil {
		t.Fatalf("FFlat.Init: %v", err)
	}
	var tb TFlat
	if err := tb.Init(toy.Graph, q, DefaultTOptions(alpha)); err != nil {
		t.Fatalf("TFlat.Init: %v", err)
	}
	for i := 0; i < 6; i++ {
		fb.Expand()
		tb.Expand()
	}
	checkSound(t, &fb, exactF, "multi-node F")
	checkSound(t, &tb, exactT, "multi-node T")
}

// TestTBoundsAdjacentMultiNodeBorderCount pins the two-pass initialization of
// the T-side tracker: with a multi-node query whose nodes are adjacent (cycle
// 0→1→2→0, query {0,1}), node 1's only in-neighbor is node 0 — also a query
// node — so node 1 must never be counted as a border node, whichever query
// node is initialized first.
func TestTBoundsAdjacentMultiNodeBorderCount(t *testing.T) {
	g := testgraphs.Cycle(3)
	for _, q := range []walk.Query{walk.MultiNode(0, 1), walk.MultiNode(1, 0)} {
		for _, bind := range []binding{csrBinding, rowsBinding} {
			var tb TFlat
			if err := bind.t(&tb, g, q, DefaultTOptions(0.25)); err != nil {
				t.Fatalf("Init: %v", err)
			}
			if tb.BorderCount() != 1 {
				t.Fatalf("query %v: BorderCount %d, want 1 (node 1's in-neighbor is a query node)", q.Nodes, tb.BorderCount())
			}
		}
	}
}

// TestFlatBoundsReuseAcrossGraphs re-Inits one tracker pair across graphs of
// different sizes (the pool-resize situation after an engine epoch swap) and
// checks every reused run produces exactly the bounds of a fresh tracker.
func TestFlatBoundsReuseAcrossGraphs(t *testing.T) {
	toy := testgraphs.NewToy()
	cases := []struct {
		name string
		g    *graph.Graph
		q    graph.NodeID
	}{
		{"toy", toy.Graph, toy.T1},
		{"cycle", testgraphs.Cycle(50), 3},
		{"star", testgraphs.Star(6), 0},
	}
	var rfb FFlat
	var rtb TFlat
	for round := 0; round < 2; round++ {
		for _, tc := range cases {
			q := walk.SingleNode(tc.q)
			if err := rfb.Init(tc.g, q, DefaultFOptions(0.25)); err != nil {
				t.Fatalf("%s: FFlat Init: %v", tc.name, err)
			}
			if err := rtb.Init(tc.g, q, DefaultTOptions(0.25)); err != nil {
				t.Fatalf("%s: TFlat Init: %v", tc.name, err)
			}
			var ffb FFlat
			var ftb TFlat
			if err := ffb.Init(tc.g, q, DefaultFOptions(0.25)); err != nil {
				t.Fatalf("%s: fresh FFlat Init: %v", tc.name, err)
			}
			if err := ftb.Init(tc.g, q, DefaultTOptions(0.25)); err != nil {
				t.Fatalf("%s: fresh TFlat Init: %v", tc.name, err)
			}
			for i := 0; i < 4; i++ {
				rfb.Expand()
				ffb.Expand()
				rtb.Expand()
				ftb.Expand()
			}
			if rfb.SeenCount() != ffb.SeenCount() || rtb.SeenCount() != ftb.SeenCount() {
				t.Fatalf("%s: reused and fresh trackers grew different neighborhoods", tc.name)
			}
			for v := 0; v < tc.g.NumNodes(); v++ {
				node := graph.NodeID(v)
				if rfb.Lower(node) != ffb.Lower(node) || rfb.Upper(node) != ffb.Upper(node) {
					t.Fatalf("%s: F bounds at %d differ between reused and fresh", tc.name, v)
				}
				if rtb.Lower(node) != ftb.Lower(node) || rtb.Upper(node) != ftb.Upper(node) {
					t.Fatalf("%s: T bounds at %d differ between reused and fresh", tc.name, v)
				}
			}
		}
	}
}

// Property: on random strongly connected graphs, both trackers always sandwich
// the exact F-Rank / T-Rank values after a random number of expansions, under
// every scheme combination.
func quickBoundsSoundness(t *testing.T, bind binding) {
	f := func(seed int64, roundsRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(25)
		b := graph.NewBuilder()
		ids := make([]graph.NodeID, n)
		for i := 0; i < n; i++ {
			ids[i] = b.AddNode(graph.Untyped, "n"+strconv.Itoa(i))
		}
		// Base cycle guarantees strong connectivity, then random chords.
		for i := 0; i < n; i++ {
			b.MustAddEdge(ids[i], ids[(i+1)%n], 1)
		}
		extra := rng.Intn(3 * n)
		for i := 0; i < extra; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				v = (u + 1) % n
			}
			b.MustAddEdge(ids[u], ids[v], 0.25+rng.Float64())
		}
		g := b.MustBuild()
		alpha := 0.15 + 0.5*rng.Float64()
		q := walk.SingleNode(ids[rng.Intn(n)])
		p := walk.Params{Alpha: alpha, Tol: 1e-13, MaxIter: 2000}
		exactF, err := walk.FRank(context.Background(), g, q, p)
		if err != nil {
			return false
		}
		exactT, err := walk.TRank(context.Background(), g, q, p)
		if err != nil {
			return false
		}
		rounds := 1 + int(roundsRaw%8)
		m := 1 + int(mRaw%6)

		improved := rng.Intn(2) == 0
		stageII := rng.Intn(2) == 0
		var fb FFlat
		if err := bind.f(&fb, g, q, FOptions{Alpha: alpha, M: m, ImprovedBound: improved, StageII: stageII}); err != nil {
			return false
		}
		var tb TFlat
		if err := bind.t(&tb, g, q, TOptions{Alpha: alpha, M: m, StageII: stageII}); err != nil {
			return false
		}
		for i := 0; i < rounds; i++ {
			fb.Expand()
			tb.Expand()
		}
		if fb.CheckConsistent() != nil || tb.CheckConsistent() != nil {
			return false
		}
		_, fOK := sandwiched(&fb, exactF, 1e-8)
		_, tOK := sandwiched(&tb, exactT, 1e-8)
		return fOK && tOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuickFlatBoundsSoundness(t *testing.T) { quickBoundsSoundness(t, csrBinding) }
func TestQuickBoundsSoundness(t *testing.T)     { quickBoundsSoundness(t, rowsBinding) }
