package bounds

import (
	"testing"

	"roundtriprank/internal/datasets"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/walk"
)

// benchHub generates the R-MAT 10^4 graph the bench spine's hub workload uses
// (at a tenth of its size) and returns it with its highest-degree node: the
// query whose neighborhoods are the largest the trackers refine.
func benchHub(b *testing.B) (*graph.Graph, walk.Query) {
	b.Helper()
	cfg := datasets.DefaultRMATConfig(10_000)
	cfg.Seed = 42
	r, err := datasets.GenerateRMAT(cfg)
	if err != nil {
		b.Fatalf("GenerateRMAT: %v", err)
	}
	g := r.Graph
	hub := graph.NodeID(0)
	for v := 1; v < g.NumNodes(); v++ {
		if g.Degree(graph.NodeID(v)) > g.Degree(hub) {
			hub = graph.NodeID(v)
		}
	}
	return g, walk.SingleNode(hub)
}

const benchRounds = 3 // the hub workload's round budget

// benchTFlat times the given number of rounds of the T side (border expansion
// plus Stage-II refinement) from a pooled tracker on the hub query.
func benchTFlat(b *testing.B, rounds int) {
	g, q := benchHub(b)
	var tb TFlat
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tb.InitRows(g, q, DefaultTOptions(0.25)); err != nil {
			b.Fatal(err)
		}
		for round := 0; round < rounds; round++ {
			tb.Expand()
		}
	}
}

// BenchmarkTFlatExpandHub is the T side of the hub workload's three rounds.
func BenchmarkTFlatExpandHub(b *testing.B) { benchTFlat(b, benchRounds) }

// BenchmarkTFlatExpandHub20 runs the same query for twenty rounds: with every
// round's refinement fed from the edge log, its cost beyond the sweeps grows
// with the newcomers' degrees, not with the rounds times |E(St)|.
func BenchmarkTFlatExpandHub20(b *testing.B) { benchTFlat(b, 20) }

// BenchmarkFFlatExpand is the F-side counterpart: three rounds of BCA
// expansion plus Stage-II refinement.
func BenchmarkFFlatExpand(b *testing.B) {
	g, q := benchHub(b)
	var fb FFlat
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fb.InitRows(g, q, DefaultFOptions(0.25)); err != nil {
			b.Fatal(err)
		}
		for round := 0; round < benchRounds; round++ {
			fb.Expand()
		}
	}
}
