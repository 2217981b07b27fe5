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
func benchHub(b testing.TB) (*graph.Graph, walk.Query) {
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

// TestStageIISweepCount pins what a hub round's refinement costs in sweeps,
// the unit the kernel's time is proportional to. The T side re-tightens the
// unseen bound and solves that scalar loop by a Newton step (refiner.refine):
// 20, 16 and 17 sweeps where iterating it took 42, 31 and 32. The F side has
// no such loop and its counts are the plain iteration's.
func TestStageIISweepCount(t *testing.T) {
	g, q := benchHub(t)
	var tb TFlat
	var fb FFlat
	if err := tb.InitRows(g, q, DefaultTOptions(0.25)); err != nil {
		t.Fatal(err)
	}
	if err := fb.InitRows(g, q, DefaultFOptions(0.25)); err != nil {
		t.Fatal(err)
	}
	for round, wantF := range [benchRounds]int{4, 6, 5} {
		tBefore, fBefore := tb.k.sweeps, fb.k.sweeps
		tb.Expand()
		fb.Expand()
		if got := tb.k.sweeps - tBefore; got > 24 {
			t.Errorf("round %d: the T refinement ran %d sweeps, want at most 24", round, got)
		}
		if got := fb.k.sweeps - fBefore; got != wantF {
			t.Errorf("round %d: the F refinement ran %d sweeps, want %d", round, got, wantF)
		}
	}
}

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
	b.ReportMetric(float64(tb.k.sweeps)/float64(rounds), "sweeps/refine")
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
	b.ReportMetric(float64(fb.k.sweeps)/benchRounds, "sweeps/refine")
}
