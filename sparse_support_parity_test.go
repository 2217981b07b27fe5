package roundtriprank

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/testgraphs"
)

// TestSparseSupportParity holds every exact door together on graphs whose
// solves sweep a listed support — isolated nodes, sources and sinks among
// the core (testgraphs.SparseSupport): for a dead-end, a source and a core
// query node and a mixture of the three, Exact over flat and over packed
// rows and Distributed over loopback workers answer bit for bit alike, and
// so do the RankBatch mixtures of their single-node vectors.
func TestSparseSupportParity(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 12; seed++ {
		g := testgraphs.SparseSupport(rand.New(rand.NewSource(seed)))
		workers, err := LoopbackWorkers(g, 2)
		if err != nil {
			t.Fatalf("seed %d: LoopbackWorkers: %v", seed, err)
		}
		flat, err := NewEngine(g)
		if err != nil {
			t.Fatalf("seed %d: NewEngine(flat): %v", seed, err)
		}
		packed, err := NewEngine(graph.Pack(g))
		if err != nil {
			t.Fatalf("seed %d: NewEngine(packed): %v", seed, err)
		}
		fleet, err := NewEngine(g, WithWorkers(workers...))
		if err != nil {
			t.Fatalf("seed %d: NewEngine(fleet): %v", seed, err)
		}
		queries := sparseSupportQueries(g)
		k := g.NumNodes()
		var exact, dist []Request
		for _, q := range queries {
			exact = append(exact, Request{Query: q, K: k, Method: Exact})
			dist = append(dist, Request{Query: q, K: k, Method: Distributed})
		}
		for i, q := range queries {
			label := fmt.Sprintf("seed %d query %v", seed, q.Nodes)
			want, err := flat.Rank(ctx, exact[i])
			if err != nil {
				t.Fatalf("%s: exact flat: %v", label, err)
			}
			got, err := packed.Rank(ctx, exact[i])
			if err != nil {
				t.Fatalf("%s: exact packed: %v", label, err)
			}
			assertSameResults(t, label+" exact packed", want, got)
			got, err = fleet.Rank(ctx, dist[i])
			if err != nil {
				t.Fatalf("%s: distributed: %v", label, err)
			}
			assertSameResults(t, label+" distributed", want, got)
		}
		want, err := flat.RankBatch(ctx, exact)
		if err != nil {
			t.Fatalf("seed %d: RankBatch flat: %v", seed, err)
		}
		for name, batch := range map[string]func() ([]*Response, error){
			"packed":      func() ([]*Response, error) { return packed.RankBatch(ctx, exact) },
			"distributed": func() ([]*Response, error) { return fleet.RankBatch(ctx, dist) },
		} {
			got, err := batch()
			if err != nil {
				t.Fatalf("seed %d: RankBatch %s: %v", seed, name, err)
			}
			for i := range want {
				assertSameResults(t, fmt.Sprintf("seed %d batch %s query %v", seed, name, queries[i].Nodes), want[i], got[i])
			}
		}
	}
}

// sparseSupportQueries returns single-node queries on g's first dead end,
// first source and first node with edges both ways (those g has), and their
// mixture.
func sparseSupportQueries(g *Graph) []Query {
	var picks []NodeID
	for _, keep := range []func(out, in int) bool{
		func(out, _ int) bool { return out == 0 },
		func(out, in int) bool { return out > 0 && in == 0 },
		func(out, in int) bool { return out > 0 && in > 0 },
	} {
		for v := NodeID(0); int(v) < g.NumNodes(); v++ {
			if keep(g.OutCSR().Degree(v), g.InCSR().Degree(v)) {
				picks = append(picks, v)
				break
			}
		}
	}
	var queries []Query
	for _, v := range picks {
		queries = append(queries, SingleNode(v))
	}
	return append(queries, MultiNode(picks...))
}
