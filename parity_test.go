package roundtriprank

import (
	"context"
	"fmt"
	"math"
	"testing"

	"roundtriprank/internal/testgraphs"
)

// Cross-method golden parity suite: on every graph in internal/testgraphs,
// the exact solver and the 2SBound online search must return identical top-K
// sets at ε = 0 — they compute the same measure by different means. The
// baseline bound schemes (G+S, Gupta, Sarkar) are held to the same sets by
// internal/topk's suites.

type parityGraph struct {
	name    string
	graph   *Graph
	queries []NodeID
}

func parityGraphs() []parityGraph {
	toy := testgraphs.NewToy()
	return []parityGraph{
		{"toy", toy.Graph, []NodeID{toy.T1, toy.P[2], toy.V1}},
		{"line", testgraphs.Line(10), []NodeID{0, 4}},
		{"cycle", testgraphs.Cycle(12), []NodeID{0, 7}},
		{"star", testgraphs.Star(8), []NodeID{0, 3}},
	}
}

// gapK picks the largest K ≤ maxK such that the exact top K are pairwise
// strictly separated and separated from rank K+1. Symmetric graphs (star
// leaves, cycle antipodes) tie exactly, and the ε = 0 top-K conditions
// (Eq. 13–14) are unsatisfiable across a tie, so parity of "the" top-K set is
// only well defined at gap boundaries. The 1e-6 threshold is far above the
// bound-refinement tolerance (1e-12), so the online search can always
// separate the chosen ranks.
func gapK(results []Result, maxK int) int {
	if len(results) < maxK {
		maxK = len(results)
	}
	const eps = 1e-6
	// b is the rank of the first tie: gaps before it are all strict.
	b := len(results)
	for i := 1; i < len(results); i++ {
		if results[i-1].Score-results[i].Score <= eps {
			b = i
			break
		}
	}
	if b == len(results) { // no ties at all
		return maxK
	}
	k := b - 1 // the last k whose boundary gap is also strict
	if k > maxK {
		k = maxK
	}
	return k // zero when even ranks 1 and 2 tie; callers skip then
}

func TestCrossMethodParity(t *testing.T) {
	for _, pg := range parityGraphs() {
		engine, err := NewEngine(pg.graph)
		if err != nil {
			t.Fatalf("%s: NewEngine: %v", pg.name, err)
		}
		for _, q := range pg.queries {
			for _, beta := range []float64{0.3, 0.5} {
				t.Run(fmt.Sprintf("%s/q%d/beta%.1f", pg.name, q, beta), func(t *testing.T) {
					exact, err := engine.Rank(context.Background(), Request{
						Query: SingleNode(q), K: pg.graph.NumNodes(), Method: Exact, Beta: Float64(beta),
					})
					if err != nil {
						t.Fatalf("exact: %v", err)
					}
					if len(exact.Results) == 0 {
						t.Fatalf("exact returned no results")
					}
					k := gapK(exact.Results, 10)
					if k < 1 {
						t.Skip("top ranks tie exactly; top-K set not well defined at eps=0")
					}
					want := make(map[NodeID]float64, k)
					for _, r := range exact.Results[:k] {
						want[r.Node] = r.Score
					}
					resp, err := engine.Rank(context.Background(), Request{
						Query: SingleNode(q), K: k, Method: TwoSBound, Epsilon: 0, Beta: Float64(beta),
					})
					if err != nil {
						t.Fatalf("2SBound: %v", err)
					}
					if !resp.Converged {
						t.Fatal("2SBound did not converge at eps=0")
					}
					if len(resp.Results) != k {
						t.Fatalf("2SBound returned %d results, want %d", len(resp.Results), k)
					}
					for _, r := range resp.Results {
						wantScore, ok := want[r.Node]
						if !ok {
							t.Errorf("node %d not in exact top-%d", r.Node, k)
							continue
						}
						// Online scores are normalized lower bounds: they
						// must not materially exceed the exact score. The
						// slack covers the exact solver's own 1e-9
						// convergence tolerance.
						if r.Score <= 0 || r.Score > wantScore+1e-6*(1+wantScore) {
							t.Errorf("node %d score %g outside (0, exact %g]", r.Node, r.Score, wantScore)
						}
					}
				})
			}
		}
	}
}

// TestParityBatchAgainstSingle extends the golden suite to the batch path:
// for every test graph, RankBatch with the cached-vector mixture must agree
// with one-shot Engine.Rank on node sets and scores.
func TestParityBatchAgainstSingle(t *testing.T) {
	for _, pg := range parityGraphs() {
		engine, err := NewEngine(pg.graph)
		if err != nil {
			t.Fatalf("%s: NewEngine: %v", pg.name, err)
		}
		var reqs []Request
		for _, q := range pg.queries {
			reqs = append(reqs, Request{Query: SingleNode(q), K: 5, Method: Exact})
		}
		batch, err := engine.RankBatch(context.Background(), reqs)
		if err != nil {
			t.Fatalf("%s: RankBatch: %v", pg.name, err)
		}
		for i, req := range reqs {
			single, err := engine.Rank(context.Background(), req)
			if err != nil {
				t.Fatalf("%s: Rank: %v", pg.name, err)
			}
			if len(single.Results) != len(batch[i].Results) {
				t.Fatalf("%s req %d: batch %d results, single %d",
					pg.name, i, len(batch[i].Results), len(single.Results))
			}
			for j := range single.Results {
				if single.Results[j].Node != batch[i].Results[j].Node {
					t.Errorf("%s req %d rank %d: batch node %d != single node %d",
						pg.name, i, j, batch[i].Results[j].Node, single.Results[j].Node)
				}
				if d := math.Abs(single.Results[j].Score - batch[i].Results[j].Score); d > 1e-9 {
					t.Errorf("%s req %d rank %d: score diff %g", pg.name, i, j, d)
				}
			}
		}
	}
}
