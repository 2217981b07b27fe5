package roundtriprank

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"roundtriprank/internal/distributed"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/testgraphs"
)

// testgraphsCycle builds a directed cycle with n nodes for impostor-cluster
// tests.
func testgraphsCycle(t testing.TB, n int) *Graph {
	t.Helper()
	return testgraphs.Cycle(n)
}

// httpWorkerCluster stripes g across n gpserver-protocol workers served over
// httptest and returns engine-ready transports.
func httpWorkerCluster(t testing.TB, g *Graph, n int) []Transport {
	t.Helper()
	ts := make([]Transport, n)
	for i := 0; i < n; i++ {
		s, err := distributed.BuildStripe(g, i, n)
		if err != nil {
			t.Fatalf("BuildStripe(%d,%d): %v", i, n, err)
		}
		srv := httptest.NewServer(distributed.NewWorker(s).Handler())
		t.Cleanup(srv.Close)
		ts[i] = DialWorker(srv.URL)
	}
	return ts
}

// TestDistributedParityAgainstExact is the acceptance gate of the networked
// execution path: on every test graph, a query through the Engine's
// Distributed method against ≥2 HTTP workers returns the identical top-K set
// — same nodes, same order, same scores — as the exact in-process solver.
// (Epsilon is irrelevant here: both paths are exact; eps=0 is the Request
// default.)
func TestDistributedParityAgainstExact(t *testing.T) {
	for _, pg := range parityGraphs() {
		for _, workers := range []int{2, 3} {
			engine, err := NewEngine(pg.graph, WithWorkers(httpWorkerCluster(t, pg.graph, workers)...))
			if err != nil {
				t.Fatalf("%s: NewEngine: %v", pg.name, err)
			}
			for _, q := range pg.queries {
				for _, beta := range []float64{0.3, 0.5} {
					req := Request{Query: SingleNode(q), K: 10, Beta: Float64(beta), Epsilon: 0}
					req.Method = Exact
					exact, err := engine.Rank(context.Background(), req)
					if err != nil {
						t.Fatalf("%s q%d: exact: %v", pg.name, q, err)
					}
					req.Method = Distributed
					dist, err := engine.Rank(context.Background(), req)
					if err != nil {
						t.Fatalf("%s q%d: distributed: %v", pg.name, q, err)
					}
					if dist.Method != Distributed || !dist.Converged {
						t.Fatalf("%s q%d: unexpected response meta: %+v", pg.name, q, dist)
					}
					if len(dist.Results) != len(exact.Results) {
						t.Fatalf("%s q%d w%d: distributed returned %d results, exact %d",
							pg.name, q, workers, len(dist.Results), len(exact.Results))
					}
					for i := range exact.Results {
						if dist.Results[i].Node != exact.Results[i].Node {
							t.Errorf("%s q%d w%d beta%.1f rank %d: distributed node %d, exact node %d",
								pg.name, q, workers, beta, i, dist.Results[i].Node, exact.Results[i].Node)
						}
						if dist.Results[i].Score != exact.Results[i].Score {
							t.Errorf("%s q%d w%d beta%.1f rank %d: distributed score %g, exact score %g",
								pg.name, q, workers, beta, i, dist.Results[i].Score, exact.Results[i].Score)
						}
					}
				}
			}
			if engine.FleetStats().RPCs == 0 {
				t.Errorf("%s: no worker RPCs recorded", pg.name)
			}
		}
	}
}

// TestDistributedFilterParity checks that the declarative Filter compiles to
// the same result restriction on the distributed path as on the exact path.
func TestDistributedFilterParity(t *testing.T) {
	pg := parityGraphs()[0] // the typed toy graph
	engine, err := NewEngine(pg.graph, WithWorkers(httpWorkerCluster(t, pg.graph, 2)...))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	filter := &Filter{Types: []NodeType{2}, ExcludeQuery: true} // papers only
	for _, method := range []Method{Exact, Distributed} {
		resp, err := engine.Rank(context.Background(), Request{
			Query: SingleNode(pg.queries[0]), K: 5, Method: method, Filter: filter,
		})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		for _, r := range resp.Results {
			if pg.graph.Type(r.Node) != 2 {
				t.Errorf("%s: node %d has type %d, want 2", method, r.Node, pg.graph.Type(r.Node))
			}
			if r.Node == pg.queries[0] {
				t.Errorf("%s: query node leaked into filtered results", method)
			}
		}
	}
}

// TestDistributedRequiresWorkers pins the planning error for a Distributed
// request on an engine with no cluster.
func TestDistributedRequiresWorkers(t *testing.T) {
	pg := parityGraphs()[0]
	engine, err := NewEngine(pg.graph)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	_, err = engine.Rank(context.Background(), Request{Query: SingleNode(pg.queries[0]), K: 3, Method: Distributed})
	if err == nil || !strings.Contains(err.Error(), "WithWorkers") {
		t.Fatalf("expected a WithWorkers planning error, got %v", err)
	}
}

// TestDistributedRejectsForeignCluster pins the graph-identity check: an
// engine over one graph — flat or packed — must refuse workers striped from a
// different graph, even one with the identical node count, and accept its own.
func TestDistributedRejectsForeignCluster(t *testing.T) {
	pg := parityGraphs()[0]
	impostor := testgraphsCycle(t, pg.graph.NumNodes())
	req := Request{Query: SingleNode(pg.queries[0]), K: 3, Method: Distributed}
	for layout, view := range map[string]View{"flat": pg.graph, "packed": graph.Pack(pg.graph)} {
		for striped, wantErr := range map[*Graph]bool{impostor: true, pg.graph: false} {
			workers, err := LoopbackWorkers(striped, 2)
			if err != nil {
				t.Fatalf("LoopbackWorkers: %v", err)
			}
			engine, err := NewEngine(view, WithWorkers(workers...))
			if err != nil {
				t.Fatalf("%s: NewEngine: %v", layout, err)
			}
			_, err = engine.Rank(context.Background(), req)
			if wantErr && (err == nil || !strings.Contains(err.Error(), "fingerprint")) {
				t.Fatalf("%s: foreign cluster accepted (err=%v)", layout, err)
			}
			if !wantErr && err != nil {
				t.Fatalf("%s: the view's own cluster refused: %v", layout, err)
			}
		}
	}
}

// TestDistributedLoopbackAndBatch runs the Distributed method over loopback
// workers and through RankBatch, confirming both agree with Exact.
func TestDistributedLoopbackAndBatch(t *testing.T) {
	pg := parityGraphs()[0]
	workers, err := LoopbackWorkers(pg.graph, 3)
	if err != nil {
		t.Fatalf("LoopbackWorkers: %v", err)
	}
	engine, err := NewEngine(pg.graph, WithWorkers(workers...))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	var reqs []Request
	for _, q := range pg.queries {
		reqs = append(reqs, Request{Query: SingleNode(q), K: 5, Method: Distributed})
	}
	batch, err := engine.RankBatch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("RankBatch: %v", err)
	}
	for i, q := range pg.queries {
		exact, err := engine.Rank(context.Background(), Request{Query: SingleNode(q), K: 5, Method: Exact})
		if err != nil {
			t.Fatalf("exact: %v", err)
		}
		if len(batch[i].Results) != len(exact.Results) {
			t.Fatalf("q%d: batch distributed %d results, exact %d", q, len(batch[i].Results), len(exact.Results))
		}
		for j := range exact.Results {
			if batch[i].Results[j] != exact.Results[j] {
				t.Errorf("q%d rank %d: distributed %+v, exact %+v", q, j, batch[i].Results[j], exact.Results[j])
			}
		}
	}
}

// TestRedeployStripesBringsUpEmptyWorkers boots empty HTTP workers, ships them
// their stripes through RedeployStripes, and runs a distributed query; a
// second deploy of the same graph finds every stripe in place and moves none.
func TestRedeployStripesBringsUpEmptyWorkers(t *testing.T) {
	pg := parityGraphs()[1]
	var ts []Transport
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(distributed.NewWorker(nil).Handler())
		t.Cleanup(srv.Close)
		ts = append(ts, DialWorker(srv.URL))
	}
	for _, want := range []int{len(ts), 0} {
		shipped, retagged, err := RedeployStripes(context.Background(), pg.graph, ts)
		if err != nil || shipped != want || retagged != 0 {
			t.Fatalf("RedeployStripes = %d shipped, %d retagged, %v; want %d, 0, nil", shipped, retagged, err, want)
		}
	}
	engine, err := NewEngine(pg.graph, WithWorkers(ts...))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	resp, err := engine.Rank(context.Background(), Request{Query: SingleNode(pg.queries[0]), K: 3, Method: Distributed})
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	if len(resp.Results) == 0 {
		t.Fatalf("no results from deployed cluster")
	}
}
