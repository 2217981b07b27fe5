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
// the unit the kernel's time is proportional to, under the stop rule stated at
// refineRel. The T side re-tightens the unseen bound and solves that scalar
// loop by a Newton step (refiner.refine): it takes 9, 6 and 6 sweeps. The F
// side has no such loop and its counts are the plain iteration's.
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
	for round, wantF := range [benchRounds]int{2, 3, 3} {
		tBefore, fBefore := tb.k.sweeps, fb.k.sweeps
		tb.Expand()
		fb.Expand()
		if got := tb.k.sweeps - tBefore; got > 11 {
			t.Errorf("round %d: the T refinement ran %d sweeps, want at most 11", round, got)
		}
		if got := fb.k.sweeps - fBefore; got != wantF {
			t.Errorf("round %d: the F refinement ran %d sweeps, want %d", round, got, wantF)
		}
	}
}

// swept is the work of the refinement an Expand just ran, given the kernel's
// sweep count before it: every sweep reads each log entry and each row once.
func swept(k *refiner, sweepsBefore int) int {
	return (k.sweeps - sweepsBefore) * (len(k.log) + len(k.lo))
}

// benchTFlat times the given number of rounds of the T side (border expansion
// plus Stage-II refinement) from a pooled tracker on the hub query, and
// reports the sweeps and the log entries plus rows swept per refinement.
func benchTFlat(b *testing.B, rounds int) {
	g, q := benchHub(b)
	var tb TFlat
	entries := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tb.InitRows(g, q, DefaultTOptions(0.25)); err != nil {
			b.Fatal(err)
		}
		for round := 0; round < rounds; round++ {
			before := tb.k.sweeps
			tb.Expand()
			entries += swept(&tb.k, before)
		}
	}
	b.ReportMetric(float64(tb.k.sweeps)/float64(rounds), "sweeps/refine")
	b.ReportMetric(float64(entries)/float64(b.N*rounds), "entries/refine")
}

// BenchmarkTFlatExpandHub is the T side of the hub workload's three rounds.
func BenchmarkTFlatExpandHub(b *testing.B) { benchTFlat(b, benchRounds) }

// BenchmarkTFlatExpandHub20 runs the same query for twenty rounds: with every
// round's refinement fed from the edge log, its cost beyond the sweeps grows
// with the newcomers' degrees, not with the rounds times |E(St)|.
func BenchmarkTFlatExpandHub20(b *testing.B) { benchTFlat(b, 20) }

// benchTail generates the R-MAT 10^5 graph the walk kernels' benchmark uses
// (the bench spine's size) and returns it with its first node under the
// spine's tail rule — in- and out-edges, at most 16 in all: a typical online
// query, whose rounds are dominated by joins rather than by refinement.
func benchTail(b testing.TB) (*graph.Graph, walk.Query) {
	b.Helper()
	cfg := datasets.DefaultRMATConfig(100_000)
	cfg.Seed = -42
	r, err := datasets.GenerateRMAT(cfg)
	if err != nil {
		b.Fatalf("GenerateRMAT: %v", err)
	}
	g := r.Graph
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		out, in := g.OutDegree(v), g.InCSR().Degree(v)
		if out > 0 && in > 0 && out+in <= 16 {
			return g, walk.SingleNode(v)
		}
	}
	b.Fatal("R-MAT 10^5 has no tail node")
	return nil, walk.Query{}
}

// tailSeen is how large St grows in BenchmarkTFlatExpandTail.
const tailSeen = 1000

// BenchmarkTFlatExpandTail is the T side of a tail query from binding until
// |St| reaches tailSeen: 1 063 joins, each a scan of the newcomer's two rows
// against the filter of seen nodes. It reports the row entries a join
// scans and the share of them the filter passes to a probe, replayed after
// the timed loop by filtering each joined node's rows against the nodes joined
// up to it.
func BenchmarkTFlatExpandTail(b *testing.B) {
	g, q := benchTail(b)
	var tb TFlat
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tb.InitRows(g, q, DefaultTOptions(0.25)); err != nil {
			b.Fatal(err)
		}
		for tb.SeenCount() < tailSeen && tb.Expand() > 0 {
		}
	}
	b.StopTimer()
	var replay neighborhood
	replay.reset()
	entries, hits := 0, 0
	for _, v := range tb.SeenList() {
		replay.enter(v, 0, 0, 0, 0)
		in, _ := g.InRow(v)
		out, _ := g.OutRow(v)
		for _, cols := range [][]graph.NodeID{in, out} {
			entries += len(cols)
			hits += len(replay.filter(cols))
		}
	}
	b.ReportMetric(float64(entries)/float64(tb.SeenCount()), "entries/join")
	b.ReportMetric(float64(hits)/float64(entries), "hits/entry")
}

// BenchmarkFFlatExpand is the F-side counterpart: three rounds of BCA
// expansion plus Stage-II refinement.
func BenchmarkFFlatExpand(b *testing.B) {
	g, q := benchHub(b)
	var fb FFlat
	entries := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fb.InitRows(g, q, DefaultFOptions(0.25)); err != nil {
			b.Fatal(err)
		}
		for round := 0; round < benchRounds; round++ {
			before := fb.k.sweeps
			fb.Expand()
			entries += swept(&fb.k, before)
		}
	}
	b.ReportMetric(float64(fb.k.sweeps)/benchRounds, "sweeps/refine")
	b.ReportMetric(float64(entries)/float64(b.N*benchRounds), "entries/refine")
}
