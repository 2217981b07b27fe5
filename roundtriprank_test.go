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

// TestOptions pins the configuration surface: Definition 3's surfer
// composition reaches a query through BetaFromSurfers and Request.Beta, and
// the deployment options refuse values they cannot deploy.
func TestOptions(t *testing.T) {
	toy := testgraphs.NewToy()
	for _, tc := range []struct {
		balanced, importanceOnly, specificityOnly int
		want                                      float64
	}{
		{0, 5, 0, 0},      // importance surfers only: F-Rank
		{0, 0, 3, 1},      // specificity surfers only: T-Rank
		{4, 0, 0, 0.5},    // balanced surfers only: RoundTripRank
		{1, 1, 0, 1. / 3}, // (|Ω11| + |Ω01|) / (|Ω| + |Ω11|)
	} {
		beta, err := BetaFromSurfers(tc.balanced, tc.importanceOnly, tc.specificityOnly)
		if err != nil || beta != tc.want {
			t.Errorf("BetaFromSurfers(%d, %d, %d) = %g, %v; want %g", tc.balanced, tc.importanceOnly, tc.specificityOnly, beta, err, tc.want)
		}
	}
	for _, bad := range [][3]int{{0, 0, 0}, {-1, 2, 0}} {
		if _, err := BetaFromSurfers(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("BetaFromSurfers%v should error", bad)
		}
	}
	// Importance surfers alone rank exactly like β = 0.
	beta, _ := BetaFromSurfers(0, 5, 0)
	e, err := NewEngine(toy.Graph)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	req := Request{Query: SingleNode(toy.T1), K: toy.Graph.NumNodes(), Method: Exact, Beta: &beta}
	got, err := e.Rank(context.Background(), req)
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	req.Beta = Float64(0)
	want, err := e.Rank(context.Background(), req)
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Errorf("beta=0 by surfers %+v != beta=0 by request %+v", got.Results, want.Results)
	}

	for name, bad := range map[string]Option{
		"vector cache": WithVectorCache(-1),
		"row cache":    WithRowCacheRows(0),
		"stats hook":   WithQueryStatsHook(nil),
		"workers":      WithWorkers(),
		"fleet":        WithFleet(nil),
	} {
		if _, err := NewEngine(toy.Graph, bad); err == nil {
			t.Errorf("invalid %s option should error", name)
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
