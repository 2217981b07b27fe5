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

// BenchmarkTFlatExpandHub times three rounds of the T side (border expansion
// plus Stage-II refinement) from a pooled tracker on the hub query.
func BenchmarkTFlatExpandHub(b *testing.B) {
	g, q := benchHub(b)
	var tb TFlat
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tb.Init(g, q, DefaultTOptions(0.25)); err != nil {
			b.Fatal(err)
		}
		for round := 0; round < benchRounds; round++ {
			tb.Expand()
		}
	}
}

// BenchmarkFFlatExpand is the F-side counterpart: three rounds of BCA
// expansion plus Stage-II refinement.
func BenchmarkFFlatExpand(b *testing.B) {
	g, q := benchHub(b)
	var fb FFlat
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fb.Init(g, q, DefaultFOptions(0.25)); err != nil {
			b.Fatal(err)
		}
		for round := 0; round < benchRounds; round++ {
			fb.Expand()
		}
	}
}
