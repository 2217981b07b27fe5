package roundtriprank

import (
	"context"
	"reflect"
	"testing"

	"roundtriprank/internal/testgraphs"
)

func TestPublicAPIOnToyGraph(t *testing.T) {
	toy := testgraphs.NewToy()
	engine, err := NewEngine(toy.Graph)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if engine.Alpha() != 0.25 || engine.Beta() != 0.5 {
		t.Errorf("defaults wrong: alpha=%g beta=%g", engine.Alpha(), engine.Beta())
	}
	ctx := context.Background()
	all, err := engine.Rank(ctx, Request{Query: SingleNode(toy.T1), K: toy.Graph.NumNodes(), Method: Exact})
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	score := map[NodeID]float64{}
	for _, r := range all.Results {
		score[r.Node] = r.Score
	}
	// v2 (important and specific) must beat v1 and v3.
	if !(score[toy.V2] > score[toy.V1]) || !(score[toy.V2] > score[toy.V3]) {
		t.Errorf("v2 should win: %v", all.Results)
	}

	venues, err := engine.Rank(ctx, Request{Query: SingleNode(toy.T1), K: 3, Method: Exact,
		Filter: &Filter{Types: []NodeType{testgraphs.TypeVenue}, ExcludeQuery: true}})
	if err != nil {
		t.Fatalf("Rank venues: %v", err)
	}
	if len(venues.Results) != 3 || venues.Results[0].Node != toy.V2 {
		t.Errorf("venue ranking wrong: %+v", venues.Results)
	}

	online, err := engine.Rank(ctx, Request{Query: SingleNode(toy.T1), K: 4, Epsilon: 0.001, Method: TwoSBound})
	if err != nil {
		t.Fatalf("Rank online: %v", err)
	}
	if len(online.Results) == 0 || online.Results[0].Node != toy.T1 {
		t.Errorf("online top-1 should be the query itself: %+v", online.Results)
	}
}

func TestOptions(t *testing.T) {
	toy := testgraphs.NewToy()
	e, err := NewEngine(toy.Graph, WithAlpha(0.3), WithBeta(0.7), WithTolerance(1e-10))
	if err != nil {
		t.Fatalf("NewEngine with options: %v", err)
	}
	if e.Alpha() != 0.3 || e.Beta() != 0.7 {
		t.Errorf("options not applied")
	}
	// Surfer composition: only importance surfers -> beta 0, which ranks
	// exactly like an engine configured for pure importance.
	surfers, err := NewEngine(toy.Graph, WithSurferComposition(0, 5, 0))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if surfers.Beta() != 0 {
		t.Errorf("surfer composition beta = %g, want 0", surfers.Beta())
	}
	importance, err := NewEngine(toy.Graph, WithBeta(0))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	req := Request{Query: SingleNode(toy.T1), K: toy.Graph.NumNodes(), Method: Exact}
	got, err := surfers.Rank(context.Background(), req)
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	want, err := importance.Rank(context.Background(), req)
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Errorf("beta=0 by surfers %+v != beta=0 by option %+v", got.Results, want.Results)
	}

	for _, bad := range []Option{WithAlpha(0), WithAlpha(1), WithBeta(-1), WithBeta(2), WithTolerance(0), WithSurferComposition(0, 0, 0)} {
		if _, err := NewEngine(toy.Graph, bad); err == nil {
			t.Errorf("invalid option should error")
		}
	}
	if _, err := NewEngine(nil); err == nil {
		t.Errorf("nil view should error")
	}
	if _, err := NewEngine(NewGraphBuilder().MustBuild()); err == nil {
		t.Errorf("empty graph should error")
	}
}

// TestRankValidation checks that bad requests are refused under an explicit
// method too (TestRequestValidation covers the cases under Auto).
func TestRankValidation(t *testing.T) {
	toy := testgraphs.NewToy()
	e, err := NewEngine(toy.Graph)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for _, m := range []Method{Exact, TwoSBound} {
		if _, err := e.Rank(context.Background(), Request{Query: SingleNode(toy.T1), K: 0, Method: m}); err == nil {
			t.Errorf("%s: K=0 should error", m)
		}
		if _, err := e.Rank(context.Background(), Request{Query: Query{}, K: 3, Method: m}); err == nil {
			t.Errorf("%s: empty query should error", m)
		}
	}
}

func TestGraphBuilderReexports(t *testing.T) {
	b := NewGraphBuilder()
	a := b.AddNode(1, "a")
	c := b.AddNode(1, "b")
	b.MustAddUndirectedEdge(a, c, 2)
	g := b.MustBuild()
	if g.NumNodes() != 2 || g.NumEdges() != 2 {
		t.Errorf("builder re-export broken")
	}
	if g.NodeByLabel("missing") != NoNode {
		t.Errorf("NoNode re-export broken")
	}
	q := MultiNode(a, c)
	if len(q.Nodes) != 2 {
		t.Errorf("MultiNode broken")
	}
}
