package graph

import (
	"math/rand"
	"testing"
	"time"
)

// rmatTestGraph builds a unit-weight R-MAT graph with the bench spine's shape
// (Graph500 skew 0.57/0.19/0.19/0.05, eight draws a node, self-loops and
// duplicates dropped): its power-law hubs give the packed rows the column
// deltas of one, two and three bytes the spine's graph has.
func rmatTestGraph(t testing.TB, n int, seed int64) *Graph {
	t.Helper()
	levels := 0
	for 1<<levels < n {
		levels++
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	b.AddNodes(n, nil)
	seen := make(map[[2]int]bool, 8*n)
	for drawn := 0; drawn < 8*n; {
		from, to := 0, 0
		for l := 0; l < levels; l++ {
			from, to = from<<1, to<<1
			switch u := rng.Float64(); {
			case u < 0.57:
			case u < 0.76:
				to |= 1
			case u < 0.95:
				from |= 1
			default:
				from, to = from|1, to|1
			}
		}
		if from >= n || to >= n || from == to {
			continue
		}
		if drawn++; seen[[2]int{from, to}] {
			continue
		}
		seen[[2]int{from, to}] = true
		if err := b.AddEdge(NodeID(from), NodeID(to), 1); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// BenchmarkPackedGather times what an exact solve pays for packed rows, per
// direction on R-MAT 10^5: decoding the support once (FlatRows over the nodes
// with weight in that direction, as a solve lists them) and one flat sweep of
// the decoded rows (CSR.Gather), reported apart as decode-ms and sweep-ms. A
// solve decodes once and sweeps some 15–20 times a direction.
func BenchmarkPackedGather(b *testing.B) {
	g := rmatTestGraph(b, 100_000, 42)
	p := Pack(g)
	n := g.NumNodes()
	x, dst := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	for _, dir := range []struct {
		name string
		dir  Dir
		sums []float64
	}{{"out", Out, p.OutSums()}, {"in", In, p.InSums()}} {
		var support []NodeID
		for v, sum := range dir.sums {
			if sum > 0 {
				support = append(support, NodeID(v))
			}
		}
		b.Run(dir.name, func(b *testing.B) {
			var decode, sweep time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				rows := p.FlatRows(dir.dir, support)
				decoded := time.Now()
				rows.Gather(x, dst, support, 0, len(support))
				decode, sweep = decode+decoded.Sub(start), sweep+time.Since(decoded)
			}
			b.ReportMetric(float64(decode.Nanoseconds())/1e6/float64(b.N), "decode-ms")
			b.ReportMetric(float64(sweep.Nanoseconds())/1e6/float64(b.N), "sweep-ms")
		})
	}
}
