package bounds

import (
	"context"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"testing/quick"

	"roundtriprank/internal/datasets"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/scratch"
	"roundtriprank/internal/testgraphs"
	"roundtriprank/internal/walk"
)

// binding is one of the two kinds of graph.Rows the trackers attach to: flat
// CSR arrays (Init forwards them to InitRows), or a per-query session — here
// the row-decoding session of the packed form of the same arrays, the
// production Rows that is not flat. The soundness tests run under both,
// against the independent walk.FRank/TRank reference.
type binding struct {
	f func(*FFlat, graph.CSRView, walk.Query, FOptions) error
	t func(*TFlat, graph.CSRView, walk.Query, TOptions) error
}

func hidden(g graph.CSRView) graph.Rows { return graph.Pack(g).NewRows() }

var (
	csrBinding = binding{
		f: func(fb *FFlat, g graph.CSRView, q walk.Query, o FOptions) error { return fb.Init(g, q, o) },
		t: func(tb *TFlat, g graph.CSRView, q walk.Query, o TOptions) error { return tb.Init(g, q, o) },
	}
	rowsBinding = binding{
		f: func(fb *FFlat, g graph.CSRView, q walk.Query, o FOptions) error { return fb.InitRows(hidden(g), q, o) },
		t: func(tb *TFlat, g graph.CSRView, q walk.Query, o TOptions) error { return tb.InitRows(hidden(g), q, o) },
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
		opt := DefaultFOptions(alpha)
		opt.M = 2
		opt.ImprovedBound = improved
		var fb FFlat
		if err := bind.f(&fb, toy.Graph, q, opt); err != nil {
			t.Fatalf("Init: %v", err)
		}
		label := "improved=" + strconv.FormatBool(improved)
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

func TestFFlatSoundnessOnToy(t *testing.T)   { fSoundnessOnToy(t, csrBinding) }
func TestFBoundsSoundnessOnToy(t *testing.T) { fSoundnessOnToy(t, rowsBinding) }

// expandedF returns an F tracker on the toy graph after the given number of
// expansions with M = 3, each refined by at most maxIter sweeps (none leaves
// the Stage-I bounds as they are).
func expandedF(t *testing.T, improved bool, maxIter, rounds int) (*FFlat, *testgraphs.Toy) {
	t.Helper()
	toy := testgraphs.NewToy()
	fb := new(FFlat)
	opt := FOptions{Alpha: 0.25, M: 3, ImprovedBound: improved}
	if err := fb.Init(toy.Graph, walk.SingleNode(toy.T1), opt); err != nil {
		t.Fatalf("Init: %v", err)
	}
	fb.k.maxIter = maxIter
	for i := 0; i < rounds; i++ {
		fb.Expand()
	}
	return fb, toy
}

func TestImprovedFBoundTighterThanWeak(t *testing.T) {
	strong, _ := expandedF(t, true, refineMaxIter, 5)
	weak, _ := expandedF(t, false, refineMaxIter, 5)
	if strong.UnseenUpper() > weak.UnseenUpper()+1e-12 {
		t.Errorf("Proposition 4 bound (%g) should not be looser than the first-arrival bound (%g)",
			strong.UnseenUpper(), weak.UnseenUpper())
	}
}

func TestStageIITightensFBounds(t *testing.T) {
	with, toy := expandedF(t, true, refineMaxIter, 4)
	without, _ := expandedF(t, true, 0, 4)
	// Width of the interval at the query node should be no larger with
	// Stage II than with Stage I alone.
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

	opt := DefaultTOptions(alpha)
	opt.M = 2
	var tb TFlat
	if err := bind.t(&tb, toy.Graph, q, opt); err != nil {
		t.Fatalf("Init: %v", err)
	}
	checkSound(t, &tb, exactT, "initial")
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
		checkSound(t, &tb, exactT, "expanded")
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
	if err := bind.f(&fb, toy.Graph, walk.SingleNode(toy.T1), DefaultFOptions(math.NaN())); err == nil {
		t.Errorf("alpha NaN should error for FFlat")
	}
	var tb TFlat
	if err := bind.t(&tb, toy.Graph, walk.Query{}, DefaultTOptions(0.25)); err == nil {
		t.Errorf("empty query should error for TFlat")
	}
	for _, alpha := range []float64{0, 1, -0.25, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := bind.t(&tb, toy.Graph, walk.SingleNode(toy.T1), DefaultTOptions(alpha)); err == nil {
			t.Errorf("alpha %g should error for TFlat", alpha)
		}
	}
	for _, alpha := range []float64{math.SmallestNonzeroFloat64, math.Nextafter(1, 0)} {
		if err := bind.t(&tb, toy.Graph, walk.SingleNode(toy.T1), DefaultTOptions(alpha)); err != nil {
			t.Errorf("alpha %g is inside (0,1) for TFlat: %v", alpha, err)
		}
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

// TestTBoundsAdjacentMultiNodeBorderCount pins the initialization of the
// T-side tracker: with a multi-node query whose nodes are adjacent (cycle
// 0→1→2→0, query {0,1}), node 1's only in-neighbor is node 0 — also a query
// node — so node 1 must never be counted as a border node, and the edge 0→1
// must be logged once, whichever query node joins first.
func TestTBoundsAdjacentMultiNodeBorderCount(t *testing.T) {
	g := testgraphs.Cycle(3)
	for _, q := range []walk.Query{walk.MultiNode(0, 1), walk.MultiNode(1, 0)} {
		for _, bind := range []binding{csrBinding, rowsBinding} {
			var tb TFlat
			if err := bind.t(&tb, g, q, DefaultTOptions(0.25)); err != nil {
				t.Fatalf("Init: %v", err)
			}
			border := 0
			for _, outside := range tb.outsideIn {
				if outside > 0 {
					border++
				}
			}
			if border != 1 {
				t.Fatalf("query %v: %d border nodes, want 1 (node 1's in-neighbor is a query node)", q.Nodes, border)
			}
			if !logMatchesInduced(t, "T", &tb.k, &tb.neighborhood, tRow(tb.rows)) || len(tb.k.log) != 1 {
				t.Fatalf("query %v: edge log %v, want the one edge 0→1", q.Nodes, tb.k.log)
			}
		}
	}
}

// TestFBoundsSameRoundNewcomersLoggedOnce pins the rule FFlat.join rests on
// now that Sf's membership is the BCA engine's: one expansion (M = 3) processes
// the query 0 and both its out-neighbors 1 and 2, which point at each other
// and back at 0, so all three are in the engine's index before the first of
// them joins. A neighbor counts as seen only when its slot is below the
// number joined so far: each of the six induced edges — 1↔2, between the two
// adjacent same-round newcomers, included — is then logged exactly once and by
// its later endpoint. Counting every member of the index as seen would log
// the edges among same-round newcomers twice, once from each endpoint's join.
func TestFBoundsSameRoundNewcomersLoggedOnce(t *testing.T) {
	g := newRawGraph(4, []rawEdge{
		{0, 1, 1}, {0, 2, 1}, {1, 2, 1}, {2, 1, 1}, {1, 0, 1}, {2, 0, 1}, {2, 3, 1},
	})
	for _, bind := range []binding{csrBinding, rowsBinding} {
		var fb FFlat
		if err := bind.f(&fb, g, walk.SingleNode(0), FOptions{Alpha: 0.25, M: 3, ImprovedBound: true}); err != nil {
			t.Fatalf("Init: %v", err)
		}
		if fb.Expand() != 3 || fb.SeenCount() != 3 {
			t.Fatalf("the first expansion processed nodes %v, want 0, 1 and 2 in one round", fb.SeenList())
		}
		if !logMatchesInduced(t, "F", &fb.k, &fb.neighborhood, fRow(fb.rows)) || len(fb.k.log) != 6 {
			t.Fatalf("edge log %v, want the six edges among 0, 1 and 2 once each", fb.k.log)
		}
		joiner := int32(0)
		for _, e := range fb.k.log {
			if later := max(e.src, e.dst); later < joiner {
				t.Fatalf("edge log %v: %d→%d was not logged by its later endpoint", fb.k.log, e.src, e.dst)
			} else {
				joiner = later
			}
		}
		// Node 3 holds residual but has no estimate, and stays outside Sf.
		if fb.Seen(3) || !fb.Shared().Has(3) {
			t.Fatalf("node 3 seen %v, residual-touched %v; want false, true", fb.Seen(3), fb.Shared().Has(3))
		}
	}
}

// neighborhoodGraph is the six-node graph the neighborhood tests walk.
func neighborhoodGraph() *rawGraph {
	return newRawGraph(6, []rawEdge{
		{1, 0, 1}, {2, 0, 1}, {0, 1, 1}, {3, 1, 1}, {0, 2, 1}, {4, 2, 1}, {5, 3, 1}, {1, 5, 1},
	})
}

// checkNeighborhood pins the neighborhood both trackers are: a side of the
// index they are handed whose leading members are want, the seen nodes, in
// slot order, with their bounds held by the kernel. Every other member of the
// index — one with no side slot, or one whose slot the kernel does not hold
// yet — is unseen (zero lower bound, the unseen upper bound, no slot), and
// Slots is the bounds' storage.
func checkNeighborhood(t *testing.T, label string, s *neighborhood, want []graph.NodeID) {
	t.Helper()
	if got := s.SeenList(); s.SeenCount() != len(want) || !slices.Equal(got, want) {
		t.Fatalf("%s: seen %v (count %d), want %v", label, got, s.SeenCount(), want)
	}
	if !slices.Equal(s.nodes[:len(want)], want) {
		t.Fatalf("%s: the seen nodes %v are not the side's leading members %v", label, want, s.nodes)
	}
	lo, up := s.Slots()
	if len(lo) != len(want) || len(up) != len(want) {
		t.Fatalf("%s: %d/%d bounds for %d seen nodes", label, len(lo), len(up), len(want))
	}
	members := func(label string) {
		t.Helper()
		for slot, v := range want {
			if i, ok := s.Index(v); !ok || int(i) != slot || !s.Seen(v) {
				t.Fatalf("%s: Index(%d) = %d %v, want %d true", label, v, i, ok, slot)
			}
			if s.Lower(v) != lo[slot] || s.Upper(v) != up[slot] {
				t.Fatalf("%s: node %d bounds [%g, %g], slot %d holds [%g, %g]", label, v, s.Lower(v), s.Upper(v), slot, lo[slot], up[slot])
			}
		}
		for shared, v := range s.idx.Touched() {
			if slices.Contains(want, v) {
				if i, ok := s.SideSlot(shared); !ok || s.nodes[i] != v {
					t.Fatalf("%s: shared slot %d of seen node %d maps to %d %v", label, shared, v, i, ok)
				}
				continue
			}
			if _, ok := s.Index(v); ok || s.Seen(v) || s.Lower(v) != 0 || s.Upper(v) != s.UnseenUpper() {
				t.Fatalf("%s: index member %d without kernel state must be unseen", label, v)
			}
			if _, ok := s.SideSlot(shared); ok {
				t.Fatalf("%s: shared slot %d of unseen node %d maps to a seen slot", label, shared, v)
			}
		}
	}
	members(label)
	saturated(s, func() { members(label + ", filter saturated") })
	// A write through Slots is the bound.
	if len(want) > 0 {
		v, slot := want[len(want)-1], len(want)-1
		oldLo, oldUp := lo[slot], up[slot]
		lo[slot], up[slot] = 0.125, 0.75
		if s.Lower(v) != 0.125 || s.Upper(v) != 0.75 {
			t.Fatalf("%s: node %d bounds [%g, %g] after a write through Slots, want [0.125, 0.75]", label, v, s.Lower(v), s.Upper(v))
		}
		lo[slot], up[slot] = oldLo, oldUp
	}
}

// saturated runs fn with every bit of the side's filter of seen nodes set, as
// if every node collided with a seen one: the filter only ever spares probes,
// so every answer must stay the same.
func saturated(s *neighborhood, fn func()) {
	saved := slices.Clone(s.bloom)
	for i := range s.bloom {
		s.bloom[i] = ^uint64(0)
	}
	defer copy(s.bloom, saved)
	fn()
}

// TestNeighborhoodSlots pins the neighborhood over TFlat's own index: the seen
// nodes are its leading members in slot order, an admitted node is unseen
// until it joins, Slots is the bounds' storage, and a re-init empties it.
func TestNeighborhoodSlots(t *testing.T) {
	g := neighborhoodGraph()
	check := func(label string, s *neighborhood, want []graph.NodeID) {
		t.Helper()
		checkNeighborhood(t, label, s, want)
	}

	var tb TFlat
	if err := tb.Init(g, walk.MultiNode(0, 3), DefaultTOptions(0.25)); err != nil {
		t.Fatalf("TFlat.Init: %v", err)
	}
	check("T init", &tb.neighborhood, []graph.NodeID{0, 3})
	tb.admit(4) // admitted, not joined
	check("T admitted", &tb.neighborhood, []graph.NodeID{0, 3})
	if tb.Seen(4) || tb.Seen(2) {
		t.Fatalf("T: an admitted node and an outside node must both be unseen")
	}
	tb.joinAdmitted(tb.unseen)
	check("T joined", &tb.neighborhood, []graph.NodeID{0, 3, 4})
	if lo, up := tb.Slots(); lo[2] != 0 || up[2] != tb.unseen {
		t.Fatalf("T: a newcomer joins at [0, unseen], got [%g, %g]", lo[2], up[2])
	}
	tb.Expand()
	if !slices.Equal(tb.nodes, tb.idx.Touched()) {
		t.Fatalf("T: bound alone, the side %v is not its own index %v", tb.nodes, tb.idx.Touched())
	}
	check("T expanded", &tb.neighborhood, tb.nodes)
	if err := tb.Init(g, walk.SingleNode(5), DefaultTOptions(0.25)); err != nil {
		t.Fatalf("TFlat re-Init: %v", err)
	}
	check("T re-init", &tb.neighborhood, []graph.NodeID{5})
	survived := func() {
		if tb.Seen(0) || tb.Seen(3) || tb.Seen(4) {
			t.Fatalf("T: membership survived a re-init")
		}
	}
	survived()
	saturated(&tb.neighborhood, survived)
}

// sameT reports whether two T trackers hold bit-identical state: the same
// seen nodes in the same slots, bounds, border counters, edge log and unseen
// bound.
func sameT(a, b *TFlat) bool {
	aLo, aUp := a.Slots()
	bLo, bUp := b.Slots()
	return slices.Equal(a.SeenList(), b.SeenList()) && slices.Equal(aLo, bLo) && slices.Equal(aUp, bUp) &&
		slices.Equal(a.outsideIn, b.outsideIn) && slices.Equal(a.k.log, b.k.log) &&
		a.UnseenUpper() == b.UnseenUpper() && a.Sweeps() == b.Sweeps()
}

// TestNeighborhoodOverBorrowedIndex pins the rules of the one index the
// searcher keeps a query in. Over the BCA engine's index, which the engine
// fills, an F member is seen only once the kernel holds its slot. A TFlat bound
// to that index, as the searcher binds it, admits into it: a node BCA touched
// first still gets a T slot and joins, a node T admitted first enters BCA's
// benefit heap once it receives residual (and so reaches Sf), the T bounds are
// bit-identical to a TFlat bound alone whichever side reached a node first, and
// re-binding empties both sides.
func TestNeighborhoodOverBorrowedIndex(t *testing.T) {
	g := neighborhoodGraph()
	check := func(label string, s *neighborhood, want []graph.NodeID) {
		t.Helper()
		checkNeighborhood(t, label, s, want)
	}
	fOpt := FOptions{Alpha: 0.25, M: 2, ImprovedBound: true}

	var fb FFlat
	if err := fb.Init(g, walk.SingleNode(0), fOpt); err != nil {
		t.Fatalf("FFlat.Init: %v", err)
	}
	check("F init", &fb.neighborhood, nil)
	for round := 0; round < 3; round++ {
		seen := slices.Clone(fb.SeenList())
		fb.engine.ProcessBest(fb.opt.M) // the engine's index and side map grow; Sf does not yet
		check("F processed", &fb.neighborhood, seen)
		fb.initializeBounds()
		_, sf, _ := fb.engine.Seen()
		check("F joined", &fb.neighborhood, sf)
	}
	if fb.SeenCount() <= 1 {
		t.Fatalf("F: Sf did not grow: %v", fb.SeenList())
	}
	if err := fb.Init(g, walk.SingleNode(5), fOpt); err != nil {
		t.Fatalf("FFlat re-Init: %v", err)
	}
	check("F re-init", &fb.neighborhood, nil)
	if fb.Seen(0) {
		t.Fatalf("F: membership survived a re-init")
	}

	// The searcher's binding. With tFirst, T grows St over the whole graph
	// before BCA processes anything, so nodes 1–5 enter the index through T;
	// otherwise BCA runs two rounds ahead and T admits members it touched.
	q := walk.SingleNode(0)
	for _, tFirst := range []bool{true, false} {
		var tb, alone TFlat
		if err := fb.Init(g, q, fOpt); err != nil {
			t.Fatalf("FFlat.Init: %v", err)
		}
		if err := tb.InitShared(graph.Compact(g), q, DefaultTOptions(0.25), fb.Shared()); err != nil {
			t.Fatalf("TFlat.InitShared: %v", err)
		}
		if err := alone.Init(g, q, DefaultTOptions(0.25)); err != nil {
			t.Fatalf("TFlat.Init: %v", err)
		}
		for round := 0; round < 30; round++ {
			if !tFirst || round >= 3 {
				fb.Expand()
			}
			if tFirst || round >= 2 {
				if got, want := tb.Expand(), alone.Expand(); got != want {
					t.Fatalf("tFirst %v round %d: T admitted %d over the shared index, %d alone", tFirst, round, got, want)
				}
			}
			if !sameT(&tb, &alone) {
				t.Fatalf("tFirst %v round %d: T over the shared index %v, alone %v", tFirst, round, tb.SeenList(), alone.SeenList())
			}
			if ferr, terr := fb.CheckConsistent(), tb.CheckConsistent(); ferr != nil || terr != nil {
				t.Fatalf("tFirst %v round %d: %v, %v", tFirst, round, ferr, terr)
			}
			if tFirst && round == 2 {
				if fb.Shared().Len() != g.NumNodes() || fb.engine.Processed() != 0 {
					t.Fatalf("T went first: index %v, %d processed, want the whole graph and only the query holding residual", fb.Shared().Touched(), fb.engine.Processed())
				}
			}
			_, sf, _ := fb.engine.Seen()
			check("F shared", &fb.neighborhood, sf)
			check("T shared", &tb.neighborhood, tb.nodes)
		}
		// Every node BCA can reach from 0 was processed — through its benefit
		// heap, also the ones T admitted first; node 4 has no in-edge and stays
		// outside Sf.
		for _, v := range []graph.NodeID{0, 1, 2, 3, 5} {
			if !fb.Seen(v) || !tb.Seen(v) {
				t.Fatalf("tFirst %v: node %d in Sf %v, in St %v; want both", tFirst, v, fb.Seen(v), tb.Seen(v))
			}
		}
		if fb.Seen(4) || !tb.Seen(4) || fb.Shared().Len() != g.NumNodes() {
			t.Fatalf("tFirst %v: node 4 in Sf %v, in St %v, index %v", tFirst, fb.Seen(4), tb.Seen(4), fb.Shared().Touched())
		}
		// Re-binding empties both sides.
		if err := fb.Init(g, walk.SingleNode(5), fOpt); err != nil {
			t.Fatalf("FFlat re-Init: %v", err)
		}
		if err := tb.InitShared(graph.Compact(g), walk.SingleNode(5), DefaultTOptions(0.25), fb.Shared()); err != nil {
			t.Fatalf("TFlat re-InitShared: %v", err)
		}
		check("F rebound", &fb.neighborhood, nil)
		check("T rebound", &tb.neighborhood, []graph.NodeID{5})
		if !slices.Equal(fb.Shared().Touched(), []graph.NodeID{5}) {
			t.Fatalf("tFirst %v: the rebound index holds %v, want [5]", tFirst, fb.Shared().Touched())
		}
		survived := func() {
			for v := graph.NodeID(0); v < 5; v++ {
				if fb.Seen(v) || tb.Seen(v) {
					t.Fatalf("tFirst %v: node %d survived a re-bind (Sf %v, St %v)", tFirst, v, fb.Seen(v), tb.Seen(v))
				}
			}
		}
		survived()
		saturated(&fb.neighborhood, func() { saturated(&tb.neighborhood, survived) })
	}
}

// prefetchRecorder is graph.Rows with a recording graph.RowPrefetcher.
type prefetchRecorder struct {
	graph.Rows
	calls [][]graph.NodeID
}

func (p *prefetchRecorder) Prefetch(nodes []graph.NodeID) {
	p.calls = append(p.calls, slices.Clone(nodes))
}

// TestTFlatPrefetchesWhatJoins pins what TFlat announces to a prefetching
// provider: binding, the query nodes; every expansion at most two batches —
// the picked border nodes, whose in-rows it scans, then exactly the nodes that
// join St in that expansion, in join order, each once. The picks 1 and 2 of
// the second round share the outside in-neighbor 3, and under a frontier cap
// only the admitted nodes are announced. The same holds over an index another
// owner has already filled, as BCA fills the searcher's before T admits: a
// member with no T slot is admitted, counts towards the cap and is announced
// like a node new to the index.
func TestTFlatPrefetchesWhatJoins(t *testing.T) {
	g := newRawGraph(8, []rawEdge{
		{1, 0, 1}, {2, 0, 1}, {3, 1, 1}, {4, 1, 1}, {3, 2, 1}, {5, 2, 1}, {6, 3, 1}, {7, 4, 1}, {6, 5, 1},
	})
	for _, rows := range []graph.Rows{graph.Compact(g), hidden(g)} {
		for _, limit := range []int{0, 1, 7} {
			for _, prefill := range [][]graph.NodeID{nil, {0, 1, 3, 6}} {
				rec := &prefetchRecorder{Rows: rows}
				var tb TFlat
				opt := DefaultTOptions(0.25)
				opt.M, opt.FrontierCap = 2, limit
				var idx *scratch.Index
				if prefill != nil {
					idx = new(scratch.Index)
					idx.Reset(g.NumNodes())
					for _, v := range prefill {
						idx.Add(v)
					}
				}
				if err := tb.InitShared(rec, walk.SingleNode(0), opt, idx); err != nil {
					t.Fatalf("InitShared: %v", err)
				}
				if len(rec.calls) != 1 || !slices.Equal(rec.calls[0], []graph.NodeID{0}) {
					t.Fatalf("cap %d: binding announced %v, want [[0]]", limit, rec.calls)
				}
				for round := 0; !tb.Exhausted(); round++ {
					rec.calls = nil
					before := tb.SeenCount()
					added := tb.Expand()
					joined := tb.SeenList()[before:]
					want := [][]graph.NodeID{slices.Clone(tb.pickN)}
					if len(joined) > 0 {
						want = append(want, slices.Clone(joined))
					}
					if added != len(joined) || len(rec.calls) != len(want) ||
						!slices.Equal(rec.calls[0], want[0]) || len(want) == 2 && !slices.Equal(rec.calls[1], want[1]) {
						t.Fatalf("cap %d round %d: announced %v, want the picks then the %d joined nodes: %v", limit, round, rec.calls, added, want)
					}
					if limit > 0 && len(joined) > limit {
						t.Fatalf("cap %d round %d: %d nodes joined", limit, round, len(joined))
					}
				}
				if tb.SeenCount() != g.NumNodes() {
					t.Fatalf("cap %d: St exhausted at %v", limit, tb.SeenList())
				}
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

// countingRows counts the reads made through the graph.Rows seam, in total and
// per node.
type countingRows struct {
	graph.Rows
	outRows, inRows, outSums int
	outBy, inBy              map[graph.NodeID]int
}

func newCountingRows(rows graph.Rows) *countingRows {
	return &countingRows{Rows: rows, outBy: map[graph.NodeID]int{}, inBy: map[graph.NodeID]int{}}
}

func (c *countingRows) OutRow(v graph.NodeID) ([]graph.NodeID, []float64) {
	c.outRows++
	c.outBy[v]++
	return c.Rows.OutRow(v)
}

func (c *countingRows) InRow(v graph.NodeID) ([]graph.NodeID, []float64) {
	c.inRows++
	c.inBy[v]++
	return c.Rows.InRow(v)
}

func (c *countingRows) OutSum(v graph.NodeID) float64 {
	c.outSums++
	return c.Rows.OutSum(v)
}

// reads returns the total number of calls counted so far.
func (c *countingRows) reads() int { return c.outRows + c.inRows + c.outSums }

// TestStageIIReadsNoRows pins Stage II's cost model at the row seam. A
// refinement makes no graph.Rows call at all, whether it sweeps once or sixty
// times; and over a whole multi-round run the edge log costs, on either side,
// one in-row and one out-row read per seen node — on the F side the out-row
// only of a node with out-weight, which is exactly the rows BCA read when it
// processed the node, so a session fetches no row for the log that Stage I
// did not fetch already. Stage I's own reads are counted apart: the in-row of
// each picked border node on the T side, the out-row of each node BCA
// processes on the F side.
func TestStageIIReadsNoRows(t *testing.T) {
	net, err := datasets.GenerateBibNet(datasets.SmallBibNetConfig())
	if err != nil {
		t.Fatalf("GenerateBibNet: %v", err)
	}
	q := walk.SingleNode(net.Papers[0])
	const rounds = 4
	for _, maxIter := range []int{1, 60} {
		rows := newCountingRows(hidden(net.Graph))
		var tb TFlat
		if err := tb.InitRows(rows, q, DefaultTOptions(0.25)); err != nil {
			t.Fatalf("TFlat.InitRows: %v", err)
		}
		picks := 0
		for i := 0; i < rounds; i++ {
			tb.k.maxIter = 0 // Expand sweeps nothing; refine is called apart
			tb.Expand()
			picks += len(tb.pickN)
			before := rows.reads()
			tb.k.maxIter = maxIter
			tb.refine(0)
			if got := rows.reads() - before; got != 0 {
				t.Errorf("RefineMaxIter %d round %d: T refinement made %d row-seam calls", maxIter, i, got)
			}
		}
		seen := tb.SeenCount()
		if seen < 10 || rows.outRows != seen || rows.inRows != seen+picks {
			t.Errorf("RefineMaxIter %d: %d seen nodes and %d picks cost %d out-row and %d in-row reads, want %d and %d",
				maxIter, seen, picks, rows.outRows, rows.inRows, seen, seen+picks)
		}
		for v, n := range rows.outBy {
			if n != 1 || rows.inBy[v] < 1 || !tb.Seen(v) {
				t.Fatalf("RefineMaxIter %d: node %d (seen %v): %d out-row and %d in-row reads", maxIter, v, tb.Seen(v), n, rows.inBy[v])
			}
		}

		rows = newCountingRows(hidden(net.Graph))
		var fb FFlat
		if err := fb.InitRows(rows, q, DefaultFOptions(0.25)); err != nil {
			t.Fatalf("FFlat.InitRows: %v", err)
		}
		fb.k.maxIter = maxIter
		logIn := 0
		logOutBy := map[graph.NodeID]int{}
		for i := 0; i < rounds; i++ {
			fb.engine.ProcessBest(fb.opt.M)
			outBefore, inBefore := maps.Clone(rows.outBy), rows.inRows
			fb.initializeBounds()
			for v, n := range rows.outBy {
				if n > outBefore[v] {
					logOutBy[v] += n - outBefore[v]
				}
			}
			logIn += rows.inRows - inBefore
			before := rows.reads()
			fb.k.refine(fb.opt.Alpha, fb.unseen, false, 0)
			if got := rows.reads() - before; got != 0 {
				t.Errorf("RefineMaxIter %d round %d: F refinement made %d row-seam calls", maxIter, i, got)
			}
		}
		seen = fb.SeenCount()
		outWeighted := 0
		for _, v := range fb.SeenList() {
			if net.Graph.OutSum(v) > 0 {
				outWeighted++
			}
		}
		if seen < 10 || len(logOutBy) != outWeighted || logIn != seen || rows.inRows != seen {
			t.Errorf("RefineMaxIter %d: %d seen nodes, %d with out-weight, cost the log %d out-row and %d in-row reads (%d in-row reads in all)",
				maxIter, seen, outWeighted, len(logOutBy), logIn, rows.inRows)
		}
		for v, n := range rows.inBy {
			if n != 1 || !fb.Seen(v) {
				t.Fatalf("RefineMaxIter %d: node %d (seen %v): %d in-row reads", maxIter, v, fb.Seen(v), n)
			}
		}
		for v, n := range rows.outBy {
			if logOutBy[v] != 1 || n < 2 || !fb.Seen(v) {
				t.Fatalf("RefineMaxIter %d: node %d (seen %v): %d out-row reads by the log, %d by BCA",
					maxIter, v, fb.Seen(v), logOutBy[v], n-logOutBy[v])
			}
		}
	}
}

// rawGraph is an adjacency assembled straight into CSR arrays, so it can hold
// what graph.Builder refuses — self-loops and zero-weight edges — next to
// dangling nodes. It is a graph.CSRView and nothing more: both bindings take
// the arrays (directly, and packed by graph.Pack), and the exact solvers reach
// them through graph.Compact.
type rawGraph struct{ out, in graph.CSR }

type rawEdge struct {
	from, to graph.NodeID
	w        float64
}

func newRawGraph(n int, edges []rawEdge) *rawGraph {
	csr := func(row, col func(rawEdge) graph.NodeID) graph.CSR {
		c := graph.CSR{
			RowPtr: make([]int64, n+1),
			Col:    make([]graph.NodeID, len(edges)),
			Weight: make([]float64, len(edges)),
			Sum:    make([]float64, n),
		}
		for _, e := range edges {
			c.RowPtr[row(e)+1]++
		}
		for v := 0; v < n; v++ {
			c.RowPtr[v+1] += c.RowPtr[v]
		}
		next := slices.Clone(c.RowPtr[:n])
		for _, e := range edges {
			i := next[row(e)]
			next[row(e)]++
			c.Col[i], c.Weight[i] = col(e), e.w
			c.Sum[row(e)] += e.w
		}
		return c
	}
	from := func(e rawEdge) graph.NodeID { return e.from }
	to := func(e rawEdge) graph.NodeID { return e.to }
	return &rawGraph{out: csr(from, to), in: csr(to, from)}
}

func (g *rawGraph) OutCSR() graph.CSR { return g.out }
func (g *rawGraph) InCSR() graph.CSR  { return g.in }
func (g *rawGraph) NumNodes() int     { return len(g.out.Sum) }

// randomGraph draws a graph of 5–29 nodes: a unit-weight cycle plus random
// weighted chords, some — at least one — of zero weight. Every other draw has
// dead ends: one or two nodes without out-edges, and one node whose only
// out-edge has zero weight, a source its successors must skip. Independently,
// every other draw has a self-loop (more by chance, among the chords). The
// Stage-II recursion is the same iteration either way, and a walk at a dead
// end ends in every layer, but Prop. 4 assumes a walk cannot return in one
// step: the bounds are proven only for a graph without a self-loop — which
// only graph.Compact over caller-owned arrays can bring.
func randomGraph(rng *rand.Rand) (g *rawGraph, selfLoop bool) {
	n := 5 + rng.Intn(25)
	deadEnds, selfLoop := rng.Intn(2) == 0, rng.Intn(2) == 0
	dangling := make([]bool, n)
	var edges []rawEdge
	have := make(map[[2]int]bool) // no parallel edges
	add := func(u, v int, w float64) {
		if !dangling[u] && (selfLoop || u != v) && !have[[2]int{u, v}] {
			have[[2]int{u, v}] = true
			edges = append(edges, rawEdge{graph.NodeID(u), graph.NodeID(v), w})
		}
	}
	live := func() int { // a node that keeps its out-edges
		for {
			if u := rng.Intn(n); !dangling[u] {
				return u
			}
		}
	}
	if deadEnds {
		z := rng.Intn(n)
		add(z, (z+1)%n, 0)
		dangling[z] = true
		for i := 1 + rng.Intn(2); i > 0; i-- {
			dangling[rng.Intn(n)] = true
		}
	}
	if selfLoop {
		u := live()
		add(u, u, 0.25+rng.Float64())
	}
	for i := 0; i < n; i++ {
		add(i, (i+1)%n, 1)
	}
	u := live()
	add(u, (u+2)%n, 0)
	for i := rng.Intn(3 * n); i > 0; i-- {
		w := 0.25 + rng.Float64()
		if rng.Intn(6) == 0 {
			w = 0
		}
		add(rng.Intn(n), rng.Intn(n), w)
	}
	return newRawGraph(n, edges), selfLoop
}

// rowFn yields the neighbors of v the recursion at v sums over, with their
// transition probabilities, read straight from the graph.
type rowFn func(v graph.NodeID, fn func(u graph.NodeID, m float64))

// fRow is the F-Rank form: the in-neighbors of v, each with its own
// transition probability into v.
func fRow(rows graph.Rows) rowFn {
	return func(v graph.NodeID, fn func(graph.NodeID, float64)) {
		cols, wts := rows.InRow(v)
		for i, from := range cols {
			if outSum := rows.OutSum(from); outSum > 0 {
				fn(from, wts[i]/outSum)
			}
		}
	}
}

// tRow is the T-Rank form: the out-neighbors of v.
func tRow(rows graph.Rows) rowFn {
	return func(v graph.NodeID, fn func(graph.NodeID, float64)) {
		outSum := rows.OutSum(v)
		if outSum <= 0 {
			return
		}
		cols, wts := rows.OutRow(v)
		for i, to := range cols {
			fn(to, wts[i]/outSum)
		}
	}
}

// get returns both bounds of v and whether b has seen it.
func get(b *neighborhood, v graph.NodeID) (lo, up float64, seen bool) {
	slot, seen := b.Index(v)
	if !seen {
		return 0, 0, false
	}
	return b.k.lo[slot], b.k.up[slot], true
}

// eachBound calls fn for every seen node of b, in slot order.
func eachBound(b *neighborhood, fn func(v graph.NodeID, lo, up float64)) {
	los, ups := b.Slots()
	for slot, v := range b.SeenList() {
		fn(v, los[slot], ups[slot])
	}
}

// setBound stores both bounds of v, which b must have seen.
func setBound(b *neighborhood, v graph.NodeID, lo, up float64) {
	slot, seen := b.Index(v)
	if !seen {
		panic("setBound: node " + strconv.Itoa(int(v)) + " is unseen")
	}
	los, ups := b.Slots()
	los[slot], ups[slot] = lo, up
}

// copyBounds gives every node src has seen, all seen by dst, src's bounds.
func copyBounds(dst, src *neighborhood) {
	eachBound(src, func(v graph.NodeID, lo, up float64) { setBound(dst, v, lo, up) })
}

// logMatchesInduced checks the kernel's edge log against the subgraph the
// neighborhood of b induces, enumerated by brute force through row: the same
// number of edges, every logged (src, dst) an induced edge with exactly its
// transition probability and logged once, every row's seen mass equal within
// 1e-12, and — after a load — every row's folded unseen mass equal within
// 1e-12 to the sum over its unseen neighbors.
func logMatchesInduced(t *testing.T, label string, k *refiner, b *neighborhood, row rowFn) bool {
	n := b.SeenCount()
	want := map[[2]int32]float64{}
	seenMass, unseenMass := make([]float64, n), make([]float64, n)
	for r, v := range b.SeenList() {
		row(v, func(u graph.NodeID, m float64) {
			if slot, seen := b.Index(u); seen {
				want[[2]int32{int32(r), slot}] = m
				seenMass[r] += m
			} else {
				unseenMass[r] += m
			}
		})
	}
	ok := true
	if len(k.log) != len(want) || len(k.restart) != n {
		t.Logf("%s: %d edges logged over %d slots, the %d seen nodes induce %d", label, len(k.log), len(k.restart), n, len(want))
		ok = false
	}
	logged := map[[2]int32]bool{}
	logMass := make([]float64, n)
	for _, e := range k.log {
		key := [2]int32{e.src, e.dst}
		if m, induced := want[key]; !induced || m != e.m || logged[key] {
			t.Logf("%s: logged edge %d→%d m %g: induced %v with m %g, logged before %v", label, e.src, e.dst, e.m, induced, m, logged[key])
			return false
		}
		logged[key] = true
		logMass[e.src] += e.m
	}
	k.load()
	for r := range seenMass {
		if math.Abs(logMass[r]-seenMass[r]) > 1e-12 || math.Abs(k.out[r]-unseenMass[r]) > 1e-12 {
			t.Logf("%s: slot %d: logged seen mass %g, folded unseen mass %g; the graph says %g and %g",
				label, r, logMass[r], k.out[r], seenMass[r], unseenMass[r])
			ok = false
		}
	}
	return ok
}

// stopRule is the Stage-II stop rule as the references apply it: a bound
// moved when it changed by more than max(tol, rel·its new value). kernelRule
// is the kernel's; stopRule{} counts every change, so a refinement under it
// stops only on a sweep that moves nothing at all.
type stopRule struct{ tol, rel float64 }

var kernelRule = stopRule{refineTol, refineRel}

func (s stopRule) moved(d, v float64) bool { return d > s.tol && d > s.rel*v }

// expandRule is the rule either side's Expand has just refined under: the
// absolute one, rel 0, once the side has no border left (closed) — St has no
// in-neighbor outside it, or BCA no residual outside Sf. That is the last
// round Expand refines in.
func expandRule(closed bool) stopRule {
	if closed {
		return stopRule{tol: refineTol}
	}
	return kernelRule
}

// refSweep is one Gauss–Seidel sweep of Eq. 17–18 in the row-streaming form
// the trackers used before the induced-subgraph kernel: every neighbor of
// every seen node is looked up in the bounds as it streams past, read from
// the graph sweep after sweep. It shares nothing with the kernel's edge log,
// is the reference the kernel is checked against, and reports whether a
// bound moved under the given rule. restart holds the restart weights by slot.
func refSweep(b *neighborhood, restart []float64, alpha, unseen float64, row rowFn, rule stopRule) bool {
	moved := false
	for slot, v := range b.SeenList() { // insertion order, the kernel's sweep order
		sumLo, sumUp := 0.0, 0.0
		row(v, func(u graph.NodeID, m float64) {
			if lo, up, seen := get(b, u); seen {
				sumLo += m * lo
				sumUp += m * up
			} else {
				sumUp += m * unseen
			}
		})
		lo, up, _ := get(b, v)
		newLo := alpha*restart[slot] + (1-alpha)*sumLo
		newUp := alpha*restart[slot] + (1-alpha)*sumUp
		if newLo > lo {
			moved = moved || rule.moved(newLo-lo, newLo)
			lo = newLo
		}
		if newUp < up {
			moved = moved || rule.moved(up-newUp, newUp)
			up = newUp
		}
		setBound(b, v, lo, up)
	}
	return moved
}

// refStageII applies to fb what Expand does after Stage I, under the given
// stop rule, with refSweep in place of the kernel.
func (fb *FFlat) refStageII(rule stopRule) {
	for iter := 0; iter < refineMaxIter; iter++ {
		if !refSweep(&fb.neighborhood, fb.k.restart, fb.opt.Alpha, fb.unseen, fRow(fb.rows), rule) {
			return
		}
	}
}

// refStageII is the T-side counterpart, under a given sweep cap and stop rule.
func (tb *TFlat) refStageII(maxIter int, rule stopRule) {
	for iter := 0; iter < maxIter; iter++ {
		moved := refSweep(&tb.neighborhood, tb.k.restart, tb.opt.Alpha, tb.unseen, tRow(tb.rows), rule)
		if tb.opt.TightenUnseenInRefine {
			tb.recomputeUnseen()
		}
		if !moved {
			return
		}
	}
}

// sameBounds reports whether two trackers hold the same neighborhood with
// bounds and unseen bound equal within tol.
func sameBounds(t *testing.T, label string, a, b *neighborhood, unseenA, unseenB, tol float64) bool {
	ok := a.SeenCount() == b.SeenCount() && math.Abs(unseenA-unseenB) <= tol
	eachBound(a, func(v graph.NodeID, lo, up float64) {
		rlo, rup, seen := get(b, v)
		if !(seen && math.Abs(lo-rlo) <= tol && math.Abs(up-rup) <= tol) {
			t.Logf("%s: node %d kernel [%g, %g] reference [%g, %g] (seen %v)", label, v, lo, up, rlo, rup, seen)
			ok = false
		}
	})
	if !ok {
		t.Logf("%s: kernel and reference sweep disagree (|S| %d vs %d, unseen %g vs %g)", label, a.SeenCount(), b.SeenCount(), unseenA, unseenB)
	}
	return ok
}

// aheadOfReference is sameBounds for a T side that re-tightens the unseen bound
// in refinement. There the kernel's Newton step, which the reference does not
// take, lowers the upper bounds faster and judges its own moves, so the
// reference runs the kernel's number of sweeps and the two are compared by
// order, not distance: every upper bound and the unseen bound lie between
// deep, the reference iteration run to its floating-point fixed point, and the
// reference itself, within 1e-12 at both ends — a sweep is monotone and the
// step only lowers — and lower bounds, which the step does not touch, agree
// within 1e-12.
func aheadOfReference(t *testing.T, kernel, ref, deep *TFlat) bool {
	between := func(lo, x, hi float64) bool { return lo-1e-12 <= x && x <= hi+1e-12 }
	ok := kernel.SeenCount() == ref.SeenCount() && kernel.SeenCount() == deep.SeenCount() &&
		between(deep.unseen, kernel.unseen, ref.unseen)
	eachBound(&kernel.neighborhood, func(v graph.NodeID, lo, up float64) {
		rlo, rup, _ := get(&ref.neighborhood, v)
		_, dup, _ := get(&deep.neighborhood, v)
		if !(ref.Seen(v) && deep.Seen(v) && math.Abs(lo-rlo) <= 1e-12 && between(dup, up, rup)) {
			t.Logf("T: node %d kernel [%g, %g] reference [%g, %g] fixed-point upper %g", v, lo, up, rlo, rup, dup)
			ok = false
		}
	})
	if !ok {
		t.Logf("T: kernel outside [fixed point, reference] (|S| %d, %d, %d; unseen %g in [%g, %g])",
			kernel.SeenCount(), ref.SeenCount(), deep.SeenCount(), kernel.unseen, deep.unseen, ref.unseen)
	}
	return ok
}

// monotone reports whether, against the previous round's snapshot, no lower
// bound fell, no upper bound rose and the unseen bound did not rise; it then
// replaces the snapshot with the current bounds.
func monotone(t *testing.T, label string, b *neighborhood, unseen float64, prev map[graph.NodeID][2]float64, prevUnseen *float64) bool {
	ok := unseen <= *prevUnseen
	eachBound(b, func(v graph.NodeID, lo, up float64) {
		if p, seen := prev[v]; seen && (lo < p[0] || up > p[1]) {
			ok = false
		}
		prev[v] = [2]float64{lo, up}
	})
	if !ok {
		t.Logf("%s: bounds moved the wrong way across a round (unseen %g after %g)", label, unseen, *prevUnseen)
	}
	*prevUnseen = unseen
	return ok
}

// Property: on random graphs (see randomGraph), under every bound-rule
// combination, with and without a frontier cap, single- and multi-node queries
// (adjacent ones among them) and α ∈ {0.15, 0.25, 0.5}, after every expansion
// (a) the kernel's bounds equal, within 1e-12, what the row-streaming
// reference sweep makes of the same pre-refinement state under the same stop
// rule — on a T side that re-tightens the unseen bound in refinement they lie
// between the reference run for the kernel's number of sweeps and the
// reference's fixed point instead (aheadOfReference) — (b) the kernel's
// edge log is the induced subgraph (logMatchesInduced), (c) bounds only
// tighten from round to round, and (d) unless the graph has a self-loop both
// trackers sandwich the exact F-Rank / T-Rank values, dead ends included.
//
// The reference runs on a second tracker pair whose own refinement is switched
// off (a sweep cap of zero leaves Expand with Stage I alone), refined by
// refStageII and then synchronized to the kernel's result, so every round
// starts both from the same state; a third T tracker, kept the same way, runs
// the reference until no bound moves at all.
//
// At least a tenth of the draws must end with Sf closed (see FFlat.Expand),
// so that the property covers the rounds that close it and those after.
func quickBoundsSoundness(t *testing.T, bind binding) {
	draws, closed := 0, 0
	f := func(seed int64, roundsRaw, mRaw uint8) bool {
		draws++
		rng := rand.New(rand.NewSource(seed))
		g, selfLoop := randomGraph(rng)
		n := g.NumNodes()
		alpha := []float64{0.15, 0.25, 0.5}[rng.Intn(3)]
		first := rng.Intn(n)
		q := walk.SingleNode(graph.NodeID(first))
		switch rng.Intn(4) {
		case 0: // adjacent on the cycle: each must find the other seen, once
			q = walk.MultiNode(graph.NodeID(first), graph.NodeID((first+1)%n))
		case 1:
			q = walk.MultiNode(graph.NodeID(first), graph.NodeID((first+1+rng.Intn(n-1))%n))
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
		rounds := 1 + int(roundsRaw%8)
		m := 1 + int(mRaw%6)

		fOpt := FOptions{Alpha: alpha, M: m, ImprovedBound: rng.Intn(2) == 0}
		tOpt := TOptions{Alpha: alpha, M: m, TightenUnseenInRefine: rng.Intn(2) == 0}
		if rng.Intn(2) == 0 {
			tOpt.FrontierCap = 1 + rng.Intn(3) // picks are admitted in part
		}
		var fb, fref FFlat
		var tb, tref, tdeep TFlat
		for _, err := range []error{
			bind.f(&fb, g, q, fOpt), bind.f(&fref, g, q, fOpt),
			bind.t(&tb, g, q, tOpt), bind.t(&tref, g, q, tOpt), bind.t(&tdeep, g, q, tOpt),
		} {
			if err != nil {
				t.Logf("Init: %v", err)
				return false
			}
		}
		fref.k.maxIter, tref.k.maxIter, tdeep.k.maxIter = 0, 0, 0
		tightening := tb.opt.TightenUnseenInRefine

		fPrev, tPrev := map[graph.NodeID][2]float64{}, map[graph.NodeID][2]float64{}
		fUnseen, tUnseen := fb.unseen, tb.unseen
		for i := 0; i < rounds; i++ {
			fb.Expand()
			if fref.engine.Border() > 0 { // Expand on a closed Sf does nothing at all
				fref.Expand()
				fref.refStageII(expandRule(fref.engine.Border() == 0))
			}
			sweeps := tb.k.sweeps
			tb.Expand()
			sweeps = tb.k.sweeps - sweeps
			if !tref.Exhausted() { // Expand on an exhausted St does nothing at all
				tref.Expand()
				if tightening {
					tref.refStageII(sweeps, stopRule{})
					tdeep.Expand()
					tdeep.refStageII(20000, stopRule{})
				} else {
					tref.refStageII(refineMaxIter, expandRule(tref.Exhausted()))
				}
			}
			if !sameBounds(t, "F", &fb.neighborhood, &fref.neighborhood, fb.unseen, fref.unseen, 1e-12) {
				return false
			}
			if tightening {
				if !aheadOfReference(t, &tb, &tref, &tdeep) {
					return false
				}
			} else if !sameBounds(t, "T", &tb.neighborhood, &tref.neighborhood, tb.unseen, tref.unseen, 1e-12) {
				return false
			}
			if !logMatchesInduced(t, "F", &fb.k, &fb.neighborhood, fRow(fb.rows)) ||
				!logMatchesInduced(t, "T", &tb.k, &tb.neighborhood, tRow(tb.rows)) {
				return false
			}
			copyBounds(&fref.neighborhood, &fb.neighborhood)
			copyBounds(&tref.neighborhood, &tb.neighborhood)
			if tightening {
				copyBounds(&tdeep.neighborhood, &tb.neighborhood)
			}
			fref.unseen, tref.unseen, tdeep.unseen = fb.unseen, tb.unseen, tb.unseen

			if !monotone(t, "F", &fb.neighborhood, fb.unseen, fPrev, &fUnseen) ||
				!monotone(t, "T", &tb.neighborhood, tb.unseen, tPrev, &tUnseen) {
				return false
			}
			if !selfLoop {
				if ferr, terr := fb.CheckConsistent(), tb.CheckConsistent(); ferr != nil || terr != nil {
					t.Logf("inconsistent bounds: F %v, T %v", ferr, terr)
					return false
				}
				fv, fOK := sandwiched(&fb, exactF, 1e-8)
				tv, tOK := sandwiched(&tb, exactT, 1e-8)
				if !fOK || !tOK {
					t.Logf("round %d: exact value escapes its bounds (F ok %v node %d, T ok %v node %d)", i, fOK, fv, tOK, tv)
					return false
				}
			}
		}
		if fb.engine.Border() == 0 {
			closed++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.6}); err != nil {
		t.Error(err)
	} else if closed*10 < draws {
		t.Errorf("Sf closed in %d of %d draws, fewer than a tenth", closed, draws)
	}
}

func TestQuickFlatBoundsSoundness(t *testing.T) { quickBoundsSoundness(t, csrBinding) }
func TestQuickBoundsSoundness(t *testing.T)     { quickBoundsSoundness(t, rowsBinding) }

// TestStageIISuperSolution checks, straight from the graph, the invariant the
// tightening refinement's soundness argument rests on (see refiner.refine):
// after every round each upper bound is at least the smaller of its value
// before the refinement and its own recursion value (Eq. 18) at the current
// bounds, and the unseen bound at least the smaller of its value before and
// Eq. 22 — a super-solution of the clamped recursion, which therefore
// dominates its fixed point and the true values under it. Rows are summed by
// brute force over the out-neighbors; the 1e-13 slack covers the order of
// summation and nothing else. The draws are randomGraph's, self-loops
// included, and 64-node directed R-MAT graphs, the family the bench spine
// measures.
func TestStageIISuperSolution(t *testing.T) {
	superSolution := func(g *rawGraph, rng *rand.Rand, rounds, m int) bool {
		n := g.NumNodes()
		q := walk.SingleNode(graph.NodeID(rng.Intn(n)))
		if rng.Intn(3) == 0 {
			q = walk.MultiNode(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		opt := DefaultTOptions([]float64{0.15, 0.25, 0.5}[rng.Intn(3)])
		opt.M = m
		if rng.Intn(2) == 0 {
			opt.FrontierCap = 1 + rng.Intn(3)
		}
		var tb TFlat
		if err := tb.Init(g, q, opt); err != nil {
			t.Logf("Init: %v", err)
			return false
		}
		row := tRow(tb.rows)
		for round := 0; round < rounds; round++ {
			// A newcomer starts from the unseen bound the round began with,
			// and Stage I moves no seen node's bound: tb.Upper before the
			// expansion is every node's upper bound before the refinement.
			before := make([]float64, n)
			for v := range before {
				before[v] = tb.Upper(graph.NodeID(v))
			}
			unseenBefore := tb.unseen
			tb.Expand()

			maxBorder := 0.0
			for slot, v := range tb.SeenList() {
				sum := 0.0
				row(v, func(u graph.NodeID, m float64) { sum += m * tb.Upper(u) })
				want := min(before[v], opt.Alpha*tb.k.restart[slot]+(1-opt.Alpha)*sum)
				if up := tb.Upper(v); up < want-1e-13 {
					t.Logf("round %d: node %d upper bound %g is below min(before %g, recursion) = %g by %g",
						round, v, up, before[v], want, want-up)
					return false
				}
				if tb.outsideIn[slot] > 0 {
					maxBorder = max(maxBorder, tb.Upper(v))
				}
			}
			if want := min(unseenBefore, (1-opt.Alpha)*maxBorder); tb.unseen < want-1e-13 {
				t.Logf("round %d: unseen bound %g is below min(before %g, Eq. 22) = %g", round, tb.unseen, unseenBefore, want)
				return false
			}
		}
		return true
	}
	random := func(seed int64, roundsRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g, _ := randomGraph(rng)
		return superSolution(g, rng, 1+int(roundsRaw%8), 1+int(mRaw%6))
	}
	rmat := func(seed int64, roundsRaw, mRaw uint8) bool {
		cfg := datasets.DefaultRMATConfig(64)
		cfg.Seed = seed
		drawn, err := datasets.RMATEdges(cfg)
		if err != nil {
			t.Logf("RMATEdges: %v", err)
			return false
		}
		edges := make([]rawEdge, len(drawn))
		for i, e := range drawn {
			edges[i] = rawEdge{e.From, e.To, 1}
		}
		return superSolution(newRawGraph(cfg.Nodes, edges), rand.New(rand.NewSource(seed)), 1+int(roundsRaw%8), 1+int(mRaw%6))
	}
	for name, f := range map[string]func(int64, uint8, uint8) bool{"random": random, "rmat": rmat} {
		if err := quick.Check(f, &quick.Config{MaxCountScale: 0.6}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
