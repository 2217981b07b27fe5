package roundtriprank

import (
	"context"
	"fmt"
	"math"
	"testing"

	"roundtriprank/internal/core"
	"roundtriprank/internal/datasets"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/lru"
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

// TestRoundedTieIsNotCertified queries the dead end 0 of a four-node graph
// whose nodes 1 and 2 tie in T: node 1 sends 1 of its 3 units of out-weight
// to the query, node 2 3 of its 9, and the rest to the dead end 3. At α 0.15
// the solve rounds (1−α)·α/3 and (1−α)·3α/9 to neighbouring floats, and both
// legs settle with a last step that moves by exactly 0. At β 1 only the
// floor on each leg's Bound keeps Exact over flat and packed rows and
// Distributed over two loopback workers from certifying the order of the
// tied pair; each certifies the query node alone.
func TestRoundedTieIsNotCertified(t *testing.T) {
	ctx := context.Background()
	b := NewGraphBuilder()
	b.AddNodes(4, nil)
	for _, e := range []struct {
		from, to NodeID
		w        float64
	}{{1, 0, 1}, {1, 3, 2}, {2, 0, 3}, {2, 3, 6}} {
		b.MustAddEdge(e.from, e.to, e.w)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
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
	beta := 1.0
	for _, run := range []struct {
		name   string
		engine *Engine
		method Method
	}{{"exact", flat, Exact}, {"exact/packed", packed, Exact}, {"distributed", flat, Distributed}} {
		resp, err := run.engine.Rank(ctx, Request{Query: SingleNode(0), K: 3, Method: run.method, Alpha: 0.15, Beta: &beta, Tolerance: 1e-13})
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		r := resp.Results
		if len(r) != 3 || r[0].Node != 0 || r[1].Node+r[2].Node != 3 || r[1].Score == r[2].Score {
			t.Fatalf("%s: %v, want the query node, then 1 and 2 rounded apart", run.name, r)
		}
		if resp.CertifiedK != 1 || !resp.Converged {
			t.Errorf("%s: certifies %d of %v (converged %v), want the query node alone", run.name, resp.CertifiedK, r, resp.Converged)
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
// α 0.001, 0.01 and 0.02 with both legs capped at cappedIters iterations,
// short of the tolerance, through the executor Rank runs (one direct solve)
// and the one RankBatch runs (a cached-vector mixture). Neither may report
// Converged, and the prefix each certifies must be the top of a solve run to
// the tolerance. The engine caps a solve at walk.DefaultMaxIter, which the
// mixing of a stalled leg (walk's accelerator) reaches the tolerance within
// at all three α, so the test lowers the cap on the plan. (At α 0.001 five
// of the capped top 10 differ from the converged one; the three certify 0,
// 1 and 1 positions today.)
func TestCappedExactSolveIsNotConverged(t *testing.T) {
	const cappedIters = 60
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
		capped := func(cache *lru.Cache[vecKey, vecPair]) *Response {
			p, err := engine.plan(Request{Query: q, K: 10, Method: Exact, Alpha: alpha})
			if err != nil {
				t.Fatal(err)
			}
			p.params.Walk.MaxIter = cappedIters
			resp, err := engine.execPlan(ctx, p, cache)
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}
		single, batch := capped(nil), capped(lru.New[vecKey, vecPair](math.MaxInt))
		differs := 0
		for i, r := range single.Results {
			if r.Node != want[i].Node {
				differs++
			}
		}
		t.Logf("α %g: %d of %d positions differ from the converged top 10, %d certified",
			alpha, differs, len(single.Results), single.CertifiedK)
		for name, resp := range map[string]*Response{"Rank": single, "RankBatch": batch} {
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
