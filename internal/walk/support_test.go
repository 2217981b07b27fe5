package walk

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/testgraphs"
)

// This file checks the listed sweeps: a solve that visits only its support
// must be the sweep over every row bit for bit, because every node it skips
// holds an exact zero.

// TestQuickSparseSupportParity is the property the listed sweeps keep: on
// random graphs with isolated nodes, sources and sinks, for single- and
// multi-node queries that take in dead ends and sources, at α ∈ {0.1, 0.25,
// 0.5}, F-Rank and T-Rank are the serial references bit for bit over flat and
// packed rows at 1, 2 and 4 workers, with the size dispatch at its crossover
// and forced to either loop. Most draws must list both supports at the
// crossover, or the property no longer reaches the listed loops.
func TestQuickSparseSupportParity(t *testing.T) {
	ctx := context.Background()
	draws, listedF, listedT := 0, 0, 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testgraphs.SparseSupport(rng)
		restart := make([]float64, g.NumNodes())
		if err := sparseQuery(rng, g).restart(restart); err != nil {
			t.Logf("seed %d: restart: %v", seed, err)
			return false
		}
		p := Params{
			Alpha:   []float64{0.1, 0.25, 0.5}[rng.Intn(3)],
			Tol:     []float64{1e-6, 1e-9, 1e-12}[rng.Intn(3)],
			MaxIter: 1000,
		}
		wantF := serialFRankAccelReference(g, restart, p)
		wantT := serialTRankAccelReference(g, restart, p)
		draws++
		if rows, _, _ := fSupport(g.OutSums(), g.InSums(), restart, listedShare); rows != nil {
			listedF++
		}
		if support(g.OutSums(), restart, listedShare) != nil {
			listedT++
		}
		for layout, view := range map[string]graph.View{"flat": g, "packed": graph.Pack(g)} {
			for _, workers := range []int{1, 2, 4} {
				gth := Local(view, workers)
				for _, share := range []float64{0, listedShare, 1} {
					gotF, _, err := fRankShare(ctx, gth, restart, p, share)
					if err != nil || !sameBits(wantF, gotF) {
						t.Logf("seed %d %s workers=%d share=%g: F-Rank differs from the reference (%v)", seed, layout, workers, share, err)
						return false
					}
					gotT, _, err := tRankShare(ctx, gth, restart, p, share)
					if err != nil || !sameBits(wantT, gotT) {
						t.Logf("seed %d %s workers=%d share=%g: T-Rank differs from the reference (%v)", seed, layout, workers, share, err)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if 2*listedF < draws || 2*listedT < draws {
		t.Errorf("F listed its support on %d of %d draws, T on %d: too few to check the listed loops", listedF, draws, listedT)
	}
}

// sparseQuery draws a query of one to three nodes, each a dead end, a source
// or any node with equal odds, with weights in [0.5, 1.5).
func sparseQuery(rng *rand.Rand, g *graph.Graph) Query {
	var dead, sources, all []graph.NodeID
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		out, _ := g.OutNeighbors(v)
		in, _ := g.InNeighbors(v)
		switch {
		case len(out) == 0:
			dead = append(dead, v)
		case len(in) == 0:
			sources = append(sources, v)
		}
		all = append(all, v)
	}
	var q Query
	for k := 1 + rng.Intn(3); k > 0; k-- {
		pool := [][]graph.NodeID{dead, sources, all}[rng.Intn(3)]
		if len(pool) == 0 {
			pool = all
		}
		q.Nodes = append(q.Nodes, pool[rng.Intn(len(pool))])
		q.Weights = append(q.Weights, 0.5+rng.Float64())
	}
	return q
}

// sameBits reports whether a and b hold the same float64 bits entry by entry.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
