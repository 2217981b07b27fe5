package topk

import (
	"context"
	"math"
	"reflect"
	"strconv"
	"testing"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/testgraphs"
	"roundtriprank/internal/walk"
)

// TestSearcherKeepsRowsContract runs the searcher over testgraphs.StrictRows,
// which overwrites each row once the next row of its direction is fetched,
// and holds every result to the same search over the plain graph: nodes,
// score bits, rounds, sweeps, the certified prefix and convergence. A
// searcher that held a row past the next fetch in its direction would read
// the overwritten entries and answer differently, or panic. The queries are
// TestSearcherGolden's and an ε = 0 query on a two-way ring, which runs until
// its closed neighbourhoods end the search.
func TestSearcherKeepsRowsContract(t *testing.T) {
	type outcome struct {
		Rounds, Sweeps, CertifiedK int
		Converged                  bool
		Nodes                      []graph.NodeID
		ScoreBits                  []uint64
	}
	run := func(rows graph.Rows, q walk.Query, opt Options) outcome {
		t.Helper()
		res, err := TopKRows(context.Background(), rows, q, opt)
		if err != nil {
			t.Fatalf("TopKRows: %v", err)
		}
		o := outcome{Rounds: res.Rounds, Sweeps: res.Sweeps, CertifiedK: res.CertifiedK, Converged: res.Converged}
		for _, r := range res.TopK {
			o.Nodes = append(o.Nodes, r.Node)
			o.ScoreBits = append(o.ScoreBits, math.Float64bits(r.Score))
		}
		return o
	}
	check := func(name string, g *graph.Graph, q walk.Query, opt Options) {
		t.Helper()
		want := run(g, q, opt)
		if got := run(testgraphs.NewStrictRows(g), q, opt); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: over rows that live only until the next fetch\n%+v\nover the graph\n%+v", name, got, want)
		}
	}

	g, cases := searcherGoldenCases(t)
	for _, tc := range cases {
		check(tc.name, g, tc.q, tc.opt)
	}

	b := graph.NewBuilder()
	const n = 16
	for i := 0; i < n; i++ {
		b.AddNode(graph.Untyped, "r"+strconv.Itoa(i))
	}
	for i := 0; i < n; i++ {
		b.MustAddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), 1)
		b.MustAddEdge(graph.NodeID((i+1)%n), graph.NodeID(i), 1)
	}
	check("ring/eps=0", b.MustBuild(), walk.SingleNode(3), Options{K: 5, Alpha: 0.25, Beta: 0.5, Budget: &Budget{MaxRounds: 64}})
}
