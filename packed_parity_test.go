package roundtriprank

import (
	"context"
	"math"
	"testing"

	"roundtriprank/internal/datasets"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/scratch"
)

// Cross-representation parity suite: the packed CSR (graph.Pack) must be a
// drop-in replacement for the flat representation, not merely an approximate
// one. On every golden test graph plus a 10^4-node R-MAT instance, the exact
// solver and the online 2SBound search at ε = 0 return bit-identical results
// through an engine over the packed view, and the distributed path — whose
// stripes now travel the wire in the packed v3 encoding — stays bit-identical
// to exact. Together with the kernel- and topk-level suites this pins the
// equivalence at every layer the packed representation slots under.

// packedParityGraphs is the golden set extended with a 10^4-node R-MAT graph:
// big enough for real power-law hubs and rejected duplicates, small enough for
// exact solves in test time.
func packedParityGraphs(t testing.TB) []parityGraph {
	t.Helper()
	cfg := datasets.DefaultRMATConfig(10_000)
	cfg.Seed = 1309
	r, err := datasets.GenerateRMAT(cfg)
	if err != nil {
		t.Fatalf("GenerateRMAT: %v", err)
	}
	// Query the hub corner, the mid-range and the sparse tail, skipping
	// isolated nodes (a query there ranks nothing and degenerates the test).
	var queries []NodeID
	for _, start := range []NodeID{0, 4999, 9300} {
		for v := start; v < NodeID(r.Graph.NumNodes()); v++ {
			if r.Graph.OutDegree(v) > 0 && r.Graph.InCSR().Degree(v) > 0 {
				queries = append(queries, v)
				break
			}
		}
	}
	if len(queries) != 3 {
		t.Fatalf("found %d usable R-MAT query nodes, want 3", len(queries))
	}
	return append(parityGraphs(), parityGraph{"rmat-10k", r.Graph, queries})
}

// assertSameResults fails unless the two responses carry the same nodes in
// the same order with bitwise-equal scores.
func assertSameResults(t *testing.T, label string, want, got *Response) {
	t.Helper()
	if got.Converged != want.Converged {
		t.Fatalf("%s: converged %v, want %v", label, got.Converged, want.Converged)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%s: %d results, want %d", label, len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if got.Results[i].Node != want.Results[i].Node {
			t.Fatalf("%s rank %d: node %d, want %d", label, i, got.Results[i].Node, want.Results[i].Node)
		}
		if math.Float64bits(got.Results[i].Score) != math.Float64bits(want.Results[i].Score) {
			t.Fatalf("%s rank %d (node %d): score %g, want %g (not bit-identical)",
				label, i, got.Results[i].Node, got.Results[i].Score, want.Results[i].Score)
		}
	}
}

// TestPackedRepresentationParity runs the exact solver and the ε = 0 online
// 2SBound search through two engines — one over the flat graph, one over
// graph.Pack of the same graph — and requires bit-identical responses.
func TestPackedRepresentationParity(t *testing.T) {
	ctx := context.Background()
	for _, pg := range packedParityGraphs(t) {
		flat, err := NewEngine(pg.graph)
		if err != nil {
			t.Fatalf("%s: NewEngine(flat): %v", pg.name, err)
		}
		packed, err := NewEngine(graph.Pack(pg.graph))
		if err != nil {
			t.Fatalf("%s: NewEngine(packed): %v", pg.name, err)
		}
		for qi, q := range pg.queries {
			exactReq := Request{Query: SingleNode(q), K: 25, Method: Exact}
			exactFlat, err := flat.Rank(ctx, exactReq)
			if err != nil {
				t.Fatalf("%s q%d: exact flat: %v", pg.name, q, err)
			}
			exactPacked, err := packed.Rank(ctx, exactReq)
			if err != nil {
				t.Fatalf("%s q%d: exact packed: %v", pg.name, q, err)
			}
			assertSameResults(t, pg.name+"/exact", exactFlat, exactPacked)

			// The ε = 0 search must prove exact separation, which on the
			// 10^4-node graph takes tens of seconds per query (minutes under
			// the race detector); one query there pins the property, the
			// golden graphs keep full coverage in every mode.
			if pg.graph.NumNodes() > 1000 && (qi > 0 || scratch.RaceEnabled) {
				continue
			}
			k := gapK(exactFlat.Results, 5)
			if k < 1 {
				continue // top ranks tie exactly; ε = 0 top-K not well defined
			}
			onlineReq := Request{Query: SingleNode(q), K: k, Method: TwoSBound, Epsilon: 0}
			onlineFlat, err := flat.Rank(ctx, onlineReq)
			if err != nil {
				t.Fatalf("%s q%d: 2sbound flat: %v", pg.name, q, err)
			}
			onlinePacked, err := packed.Rank(ctx, onlineReq)
			if err != nil {
				t.Fatalf("%s q%d: 2sbound packed: %v", pg.name, q, err)
			}
			if !onlineFlat.Converged {
				t.Fatalf("%s q%d: flat 2sbound did not converge at eps=0", pg.name, q)
			}
			assertSameResults(t, pg.name+"/2sbound", onlineFlat, onlinePacked)
		}
	}
}

// TestPackedDistributedParity covers the wire layer: worker stripes are
// encoded in the packed v3 stripe format, so a distributed solve against an
// HTTP cluster exercises pack → encode → decode → unpack end to end and must
// still match the local exact solver bit for bit — including on the R-MAT
// graph, whose size and skew a hand-written golden graph cannot reach.
func TestPackedDistributedParity(t *testing.T) {
	if testing.Short() {
		t.Skip("spins HTTP worker clusters")
	}
	ctx := context.Background()
	for _, pg := range packedParityGraphs(t) {
		engine, err := NewEngine(pg.graph, WithWorkers(httpWorkerCluster(t, pg.graph, 2)...))
		if err != nil {
			t.Fatalf("%s: NewEngine: %v", pg.name, err)
		}
		for _, q := range pg.queries {
			req := Request{Query: SingleNode(q), K: 10, Method: Exact}
			exact, err := engine.Rank(ctx, req)
			if err != nil {
				t.Fatalf("%s q%d: exact: %v", pg.name, q, err)
			}
			req.Method = Distributed
			dist, err := engine.Rank(ctx, req)
			if err != nil {
				t.Fatalf("%s q%d: distributed: %v", pg.name, q, err)
			}
			assertSameResults(t, pg.name+"/distributed", exact, dist)
		}
	}
}

// TestPackedFootprintRMAT pins the point of the packed representation at a
// size with real power-law hubs: on the 10^4-node R-MAT graph both adjacency
// directions together pack to at most 70% of the flat arrays' footprint. The
// graph weighs every edge 1, so its flat arrays are in the unit form — 4 B of
// column per edge and direction plus per-node offsets and sums, no weights —
// and packing buys ~35 % on it (measured 0.65; 0.29 against flat arrays that
// stored a 1.0 per edge). graph.TestPackedSizeBytes pins a graph with weights
// at 500 nodes.
func TestPackedFootprintRMAT(t *testing.T) {
	const maxRatio = 0.70
	graphs := packedParityGraphs(t)
	g := graphs[len(graphs)-1].graph // rmat-10k
	flat := g.OutCSR().SizeBytes() + g.InCSR().SizeBytes()
	packed := graph.Pack(g).SizeBytes()
	if ratio := float64(packed) / float64(flat); ratio > maxRatio {
		t.Fatalf("packed footprint %d B is %.3f of flat %d B, limit %.2f", packed, ratio, flat, maxRatio)
	}
}

// TestPackedOnlineAllocsRMAT bounds what the packed row session allocates per
// online query: it decodes every row into one reused buffer per direction, so
// a budgeted query from the sparse tail of the 10^4-node R-MAT graph — the
// spine's rmat-packed shape, a working set of over a thousand rows — costs
// 19 allocations, not one per slab of kept rows (61 when the session kept
// every row) nor two per decoded row (2 568 before that).
func TestPackedOnlineAllocsRMAT(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("sync.Pool bypasses reuse under the race detector; allocation counts are not meaningful")
	}
	graphs := packedParityGraphs(t)
	pg := graphs[len(graphs)-1] // rmat-10k
	engine, err := NewEngine(graph.Pack(pg.graph))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	req := Request{
		Query: SingleNode(pg.queries[2]), K: 10, Epsilon: 0.01, Method: TwoSBound,
		Budget: &Budget{MaxRounds: 20, MaxTouched: 1000},
	}
	resp, err := engine.Rank(context.Background(), req) // warm the pool
	if err != nil {
		t.Fatalf("warmup: %v", err)
	}
	if resp.FSeen+resp.TSeen < 500 {
		t.Fatalf("query touched only %d + %d nodes; too small to say anything about row decoding", resp.FSeen, resp.TSeen)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := engine.Rank(context.Background(), req); err != nil {
			t.Fatalf("Rank: %v", err)
		}
	})
	const budget = 32
	if avg > budget {
		t.Errorf("online Rank over packed rows allocates %.0f objects/query, budget %d", avg, budget)
	}
	t.Logf("%.0f allocations/query over |Sf| %d, |St| %d", avg, resp.FSeen, resp.TSeen)
}
