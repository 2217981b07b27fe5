package topk

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"roundtriprank/internal/core"
	"roundtriprank/internal/datasets"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/walk"
)

// TestClosedNeighborhoodsEndTheSearch runs searches whose neighborhoods close
// before the ε-relaxed conditions can hold — the query's component scores
// fewer than K nodes, or two of its nodes tie at ε = 0 — and demands that each
// ends by convergence or exhaustion, never on the round cap, with a certified
// prefix equal to Naive's. The family: bidirected rings of 3–20 nodes whose
// edge 0 → 1 is heavier by δ ∈ {0, 1e-8, 1e-5}, so that the ring's two sides
// tie or nearly tie, queried at node 0 at every K from 2 to n+3 and
// ε ∈ {0, 1e-6}; a forest of bidirected trees of 1 to 10 nodes, queried at
// every node at K 10; and a query-log phrase whose component is smaller than
// K, as Fig. 12 draws them. Every search runs under a 64-round cap, so one that
// cannot tell its neighborhood closed fails at once instead of running to the
// package's backstop.
func TestClosedNeighborhoodsEndTheSearch(t *testing.T) {
	ctx := context.Background()
	worst := 0
	check := func(label string, g *graph.Graph, q walk.Query, opt Options) {
		t.Helper()
		opt.Budget = &Budget{MaxRounds: 64}
		res, err := TopK(ctx, g, q, opt)
		if err != nil {
			t.Fatalf("%s: TopK: %v", label, err)
		}
		if res.Stop != StopConverged && res.Stop != StopExhausted {
			t.Errorf("%s: stopped %v after %d rounds, certified %d", label, res.Stop, res.Rounds, res.CertifiedK)
			return
		}
		worst = max(worst, res.Rounds)
		naive, _, err := Naive(ctx, g, q, opt)
		if err != nil {
			t.Fatalf("%s: Naive: %v", label, err)
		}
		for i, r := range res.TopK[:res.CertifiedK] {
			if r.Node != naive[i].Node {
				t.Errorf("%s: certified rank %d is node %d, Naive's is %d", label, i, r.Node, naive[i].Node)
				return
			}
		}
	}

	rings := 0
	for n := 3; n <= 20; n++ {
		for _, delta := range []float64{0, 1e-8, 1e-5} {
			b := graph.NewBuilder()
			ids := make([]graph.NodeID, n)
			for i := range ids {
				ids[i] = b.AddNode(graph.Untyped, "r"+strconv.Itoa(i))
			}
			for i := range ids {
				b.MustAddEdge(ids[i], ids[(i+1)%n], 1)
				b.MustAddEdge(ids[(i+1)%n], ids[i], 1)
			}
			if delta > 0 {
				b.MustAddEdge(ids[0], ids[1], delta) // merged into the edge 0 → 1
			}
			g := b.MustBuild()
			for k := 2; k <= n+3; k++ {
				for _, eps := range []float64{0, 1e-6} {
					rings++
					opt := Options{K: k, Epsilon: eps, Alpha: 0.25, Beta: 0.5}
					check(fmt.Sprintf("ring n=%d δ=%g K=%d ε=%g", n, delta, k, eps), g, walk.SingleNode(ids[0]), opt)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	b := graph.NewBuilder()
	var forest []graph.NodeID
	for size := 1; size <= 10; size++ {
		tree := make([]graph.NodeID, size)
		for i := range tree {
			tree[i] = b.AddNode(graph.Untyped, fmt.Sprintf("t%d.%d", size, i))
			if i > 0 {
				b.MustAddUndirectedEdge(tree[i], tree[rng.Intn(i)], 0.5+rng.Float64())
			}
		}
		forest = append(forest, tree...)
	}
	g := b.MustBuild()
	for _, v := range forest {
		for _, eps := range []float64{0, 1e-6} {
			check(fmt.Sprintf("forest node %d ε=%g", v, eps), g, walk.SingleNode(v), Options{K: 10, Epsilon: eps, Alpha: 0.25, Beta: 0.5})
		}
	}

	qlog, err := datasets.GenerateQLog(datasets.SmallQLogConfig())
	if err != nil {
		t.Fatalf("GenerateQLog: %v", err)
	}
	phrase, ok := smallComponentNode(qlog.Graph, qlog.Phrases, 10)
	if !ok {
		t.Fatal("no query-log phrase lies in a component of fewer than 10 nodes")
	}
	opt := Options{K: 10, Epsilon: 0.01, Alpha: walk.DefaultAlpha, Beta: core.BalancedBeta}
	check(fmt.Sprintf("query-log phrase %d", phrase), qlog.Graph, walk.SingleNode(phrase), opt)
	t.Logf("%d ring cases; at most %d rounds a search", rings, worst)
}

// smallComponentNode returns the first of the candidates whose component,
// following edges either way, has fewer than limit nodes.
func smallComponentNode(g *graph.Graph, candidates []graph.NodeID, limit int) (graph.NodeID, bool) {
	for _, c := range candidates {
		seen := map[graph.NodeID]bool{c: true}
		frontier := []graph.NodeID{c}
		for len(frontier) > 0 && len(seen) < limit {
			v := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			out, _ := g.OutRow(v)
			in, _ := g.InRow(v)
			for _, row := range [][]graph.NodeID{out, in} {
				for _, u := range row {
					if !seen[u] {
						seen[u] = true
						frontier = append(frontier, u)
					}
				}
			}
		}
		if len(seen) < limit {
			return c, true
		}
	}
	return 0, false
}
