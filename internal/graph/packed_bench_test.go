package graph

import (
	"math/rand"
	"testing"
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

// BenchmarkPackedGather is the packed decode kernel's inner loop: one full
// sweep (every row) of GatherOut and GatherIn over R-MAT 10^5, flat and
// packed. The packed sweep decodes every row; its distance to the flat one is
// what row decoding costs an exact solve.
func BenchmarkPackedGather(b *testing.B) {
	g := rmatTestGraph(b, 100_000, 42)
	n := g.NumNodes()
	x, dst := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	for _, layout := range []struct {
		name string
		view View
	}{{"flat", g}, {"packed", Pack(g)}} {
		for _, dir := range []struct {
			name   string
			gather func(x, dst []float64, rows []NodeID, lo, hi int)
		}{{"out", layout.view.GatherOut}, {"in", layout.view.GatherIn}} {
			b.Run(layout.name+"/"+dir.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					dir.gather(x, dst, nil, 0, n)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumEdges()), "ns/edge")
			})
		}
	}
}
