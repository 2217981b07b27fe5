package graph_test

import (
	"testing"

	"roundtriprank/internal/datasets"
	"roundtriprank/internal/graph"
)

// BenchmarkCSRGather times CSR.Gather, the one gather kernel of every exact
// solve, in ns/edge per direction on the bench spine's two graphs: BibNet
// 0.12, whose rows are weighted and fit in cache (the paired loop), and the
// unit R-MAT 10^5 (the weight-free loop, memory-bound). Each direction is
// swept as a solve sweeps it: its support — the rows with weight in that
// direction — listed when it holds at most 80 % of the nodes, every row in
// range order otherwise (walk's listedShare).
func BenchmarkCSRGather(b *testing.B) {
	net, err := datasets.GenerateBibNet(datasets.ScaledBibNetConfig(0.12))
	if err != nil {
		b.Fatalf("GenerateBibNet: %v", err)
	}
	cfg := datasets.DefaultRMATConfig(100_000)
	cfg.Seed = 42
	rmat, err := datasets.GenerateRMAT(cfg)
	if err != nil {
		b.Fatalf("GenerateRMAT: %v", err)
	}
	for _, bg := range []struct {
		name string
		g    *graph.Graph
	}{{"BibNet", net.Graph}, {"RMAT", rmat.Graph}} {
		n := bg.g.NumNodes()
		x, dst := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = 1 / float64(i+1)
		}
		for _, dir := range []struct {
			name string
			dir  graph.Dir
			sums []float64
		}{{"out", graph.Out, bg.g.OutSums()}, {"in", graph.In, bg.g.InSums()}} {
			var support []graph.NodeID
			edges := 0
			rows := bg.g.FlatRows(dir.dir, nil)
			for v, sum := range dir.sums {
				if sum > 0 {
					support = append(support, graph.NodeID(v))
					edges += rows.Degree(graph.NodeID(v))
				}
			}
			sweep := len(support)
			if float64(len(support)) > 0.8*float64(n) {
				support, sweep = nil, n
			}
			b.Run(bg.name+"/"+dir.name, func(b *testing.B) {
				for b.Loop() {
					rows.Gather(x, dst, support, 0, sweep)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(edges), "ns/edge")
			})
		}
	}
}
