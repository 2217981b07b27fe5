package roundtriprank

import (
	"context"
	"fmt"
	"math"
	"testing"

	"roundtriprank/internal/core"
	"roundtriprank/internal/datasets"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/walk"
)

// This file checks the certificate of the exact family: Exact (flat and
// packed) and Distributed report the CertifiedK, AchievedEpsilon and
// Converged that they compute from their solves' own error bounds, by the
// rule the online search applies, and nothing more.

// bidirectedRing is the n-node ring with a unit edge each way between
// neighbours: every node i ties with node n−i seen from node 0.
func bidirectedRing(t *testing.T, n int) *Graph {
	b := NewGraphBuilder()
	b.AddNodes(n, nil)
	for v := 0; v < n; v++ {
		w := (v + 1) % n
		b.MustAddEdge(NodeID(v), NodeID(w), 1)
		b.MustAddEdge(NodeID(w), NodeID(v), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestExactTiesStopTheCount queries node 0 of bidirected unit rings of 3–12
// nodes at every K from 2 to n. The query node leads; nodes 1 and n−1 tie
// behind it, so the count stops after the first position, whether the tied
// partner is returned or not. Exact over flat and packed rows and
// Distributed over two loopback workers return the same nodes and scores and
// bit-identical certificates, and all of them converged.
func TestExactTiesStopTheCount(t *testing.T) {
	ctx := context.Background()
	for n := 3; n <= 12; n++ {
		g := bidirectedRing(t, n)
		workers, err := LoopbackWorkers(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := NewEngine(g, WithWorkers(workers...))
		if err != nil {
			t.Fatal(err)
		}
		packed, err := NewEngine(graph.Pack(g))
		if err != nil {
			t.Fatal(err)
		}
		for k := 2; k <= n; k++ {
			req := Request{Query: SingleNode(0), K: k, Method: Exact}
			want, err := flat.Rank(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("ring %d, K %d", n, k)
			if want.CertifiedK != 1 || !want.Converged || want.Results[0].Node != 0 {
				t.Errorf("%s: Exact certifies %d of %v (converged %v), want 1 behind the query node",
					label, want.CertifiedK, want.Results, want.Converged)
			}
			for _, run := range []struct {
				name   string
				engine *Engine
				method Method
			}{{"exact/packed", packed, Exact}, {"distributed", flat, Distributed}} {
				req.Method = run.method
				got, err := run.engine.Rank(ctx, req)
				if err != nil {
					t.Fatalf("%s: %s: %v", label, run.name, err)
				}
				if err := sameExactResponse(got, want); err != nil {
					t.Errorf("%s: %s: %v", label, run.name, err)
				}
			}
		}
	}
}

// sameExactResponse reports how two exact-family responses differ in nodes,
// score bits or certificate; nil when they agree bit for bit.
func sameExactResponse(got, want *Response) error {
	if len(got.Results) != len(want.Results) {
		return fmt.Errorf("%d results, want %d", len(got.Results), len(want.Results))
	}
	for i, w := range want.Results {
		if g := got.Results[i]; g.Node != w.Node || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Errorf("rank %d: %+v, want %+v", i, g, w)
		}
	}
	if got.Converged != want.Converged || got.CertifiedK != want.CertifiedK ||
		math.Float64bits(got.AchievedEpsilon) != math.Float64bits(want.AchievedEpsilon) {
		return fmt.Errorf("converged/certified/achieved %v/%d/%g, want %v/%d/%g",
			got.Converged, got.CertifiedK, got.AchievedEpsilon, want.Converged, want.CertifiedK, want.AchievedEpsilon)
	}
	return nil
}

// TestCappedExactSolveIsNotConverged asks the small BibNet for a top 10 at
// α 0.001, 0.01 and 0.02, where both legs stop at the default 200 iterations
// short of the tolerance, through Rank and through RankBatch's cached-vector
// mixture. Neither may report Converged, and the prefix each certifies must
// be the top of a solve run to the tolerance. (At α 0.001 two of the capped
// top 10 differ from it; the three certify 0, 1 and 6 positions today.)
func TestCappedExactSolveIsNotConverged(t *testing.T) {
	net, err := datasets.GenerateBibNet(datasets.SmallBibNetConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	engine, err := NewEngine(net.Graph)
	if err != nil {
		t.Fatal(err)
	}
	q := SingleNode(net.Papers[0])
	for _, alpha := range []float64{0.001, 0.01, 0.02} {
		scores, err := core.Compute(ctx, net.Graph, q, core.Params{
			Walk: walk.Params{Alpha: alpha, Tol: walk.DefaultTol, MaxIter: 1 << 20},
			Beta: core.BalancedBeta,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := core.TopN(scores.R, 10, nil)
		req := Request{Query: q, K: 10, Method: Exact, Alpha: alpha}
		single, err := engine.Rank(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := engine.RankBatch(ctx, []Request{req})
		if err != nil {
			t.Fatal(err)
		}
		differs := 0
		for i, r := range single.Results {
			if r.Node != want[i].Node {
				differs++
			}
		}
		t.Logf("α %g: %d of %d positions differ from the converged top 10, %d certified",
			alpha, differs, len(single.Results), single.CertifiedK)
		for name, resp := range map[string]*Response{"Rank": single, "RankBatch": batch[0]} {
			if resp.Converged || resp.CertifiedK > len(resp.Results) {
				t.Errorf("α %g: %s: converged %v, %d of %d certified", alpha, name, resp.Converged, resp.CertifiedK, len(resp.Results))
			}
			for i, r := range resp.Results[:resp.CertifiedK] {
				if r.Node != want[i].Node {
					t.Errorf("α %g: %s: certified position %d holds node %d, the converged solve's is %d",
						alpha, name, i, r.Node, want[i].Node)
				}
			}
		}
	}
}
