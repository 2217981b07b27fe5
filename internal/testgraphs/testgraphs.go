// Package testgraphs provides small, hand-constructed graphs used across the
// test suites and examples, most importantly the toy bibliographic network of
// Fig. 2 in the RoundTripRank paper.
package testgraphs

import (
	"math/rand"

	"roundtriprank/internal/graph"
)

// Node types used by the toy graphs.
const (
	TypeTerm  graph.Type = 1
	TypePaper graph.Type = 2
	TypeVenue graph.Type = 3
)

// Toy holds the toy bibliographic network of Fig. 2 together with named node
// handles for the assertions used in tests (Fig. 4 reproduces RoundTripRank on
// this graph with constant walk lengths L = L' = 2).
type Toy struct {
	Graph *graph.Graph
	T1    graph.NodeID // query term "spatio"
	T2    graph.NodeID // off-topic term "transaction"
	P     [7]graph.NodeID
	V1    graph.NodeID
	V2    graph.NodeID
	V3    graph.NodeID
}

// NewToy constructs the Fig. 2 toy graph: term t1 appears in papers p1..p5;
// term t2 appears in p6, p7; venue v1 accepts p1, p2, p6, p7; venue v2 accepts
// p3, p4; venue v3 accepts p5. All edges are undirected with weight 1.
func NewToy() *Toy {
	b := graph.NewBuilder()
	b.RegisterType(TypeTerm, "term")
	b.RegisterType(TypePaper, "paper")
	b.RegisterType(TypeVenue, "venue")

	t := &Toy{}
	t.T1 = b.AddNode(TypeTerm, "term:spatio")
	t.T2 = b.AddNode(TypeTerm, "term:transaction")
	for i := 0; i < 7; i++ {
		t.P[i] = b.AddNode(TypePaper, "paper:p"+string(rune('1'+i)))
	}
	t.V1 = b.AddNode(TypeVenue, "venue:v1")
	t.V2 = b.AddNode(TypeVenue, "venue:v2")
	t.V3 = b.AddNode(TypeVenue, "venue:v3")

	// Term-paper edges.
	for i := 0; i < 5; i++ {
		b.MustAddUndirectedEdge(t.T1, t.P[i], 1)
	}
	b.MustAddUndirectedEdge(t.T2, t.P[5], 1)
	b.MustAddUndirectedEdge(t.T2, t.P[6], 1)

	// Paper-venue edges.
	b.MustAddUndirectedEdge(t.P[0], t.V1, 1)
	b.MustAddUndirectedEdge(t.P[1], t.V1, 1)
	b.MustAddUndirectedEdge(t.P[5], t.V1, 1)
	b.MustAddUndirectedEdge(t.P[6], t.V1, 1)
	b.MustAddUndirectedEdge(t.P[2], t.V2, 1)
	b.MustAddUndirectedEdge(t.P[3], t.V2, 1)
	b.MustAddUndirectedEdge(t.P[4], t.V3, 1)

	t.Graph = b.MustBuild()
	return t
}

// Line returns a small directed line graph a0 -> a1 -> ... -> a(n-1) with unit
// weights, useful for testing reachability asymmetries (f > 0, t = 0).
func Line(n int) *graph.Graph {
	b := graph.NewBuilder()
	ids := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = b.AddNode(graph.Untyped, "line:"+itoa(i))
	}
	for i := 0; i+1 < n; i++ {
		b.MustAddEdge(ids[i], ids[i+1], 1)
	}
	return b.MustBuild()
}

// Cycle returns a directed cycle of n nodes with unit weights; it is strongly
// connected, so both F-Rank and T-Rank are positive everywhere.
func Cycle(n int) *graph.Graph {
	b := graph.NewBuilder()
	ids := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = b.AddNode(graph.Untyped, "cycle:"+itoa(i))
	}
	for i := 0; i < n; i++ {
		b.MustAddEdge(ids[i], ids[(i+1)%n], 1)
	}
	return b.MustBuild()
}

// Star returns an undirected star with a hub and n leaves.
func Star(n int) *graph.Graph {
	b := graph.NewBuilder()
	hub := b.AddNode(graph.Untyped, "hub")
	for i := 0; i < n; i++ {
		leaf := b.AddNode(graph.Untyped, "leaf:"+itoa(i))
		b.MustAddUndirectedEdge(hub, leaf, 1)
	}
	return b.MustBuild()
}

// SparseSupport returns a random directed graph on which an exact solve
// sweeps a support well short of the whole graph: each of its 10–69 nodes is,
// at random and interleaved, isolated (about a quarter), a source with
// out-edges only, a sink with in-edges only, or a core node with edges both
// ways, so the nodes with out-weight, and those with an in-row, are gappy
// subsets in node order. On about half the draws every weight is 1 (the unit
// form); otherwise weights are drawn from [0.5, 1.5).
func SparseSupport(rng *rand.Rand) *graph.Graph {
	const (
		core = iota
		isolated
		source
		sink
	)
	n := 10 + rng.Intn(60)
	roles := make([]int, n)
	var targets []graph.NodeID // the nodes an edge may enter: core and sinks
	for v := range roles {
		switch r := rng.Float64(); {
		case r < 0.25:
			roles[v] = isolated
		case r < 0.4:
			roles[v] = source
		case r < 0.65:
			roles[v] = sink
		}
		if roles[v] == core || roles[v] == sink {
			targets = append(targets, graph.NodeID(v))
		}
	}
	unit := rng.Intn(2) == 0
	b := graph.NewBuilder()
	b.AddNodes(n, nil)
	for u, role := range roles {
		if role != core && role != source || len(targets) == 0 {
			continue
		}
		for e := 1 + rng.Intn(4); e > 0; e-- {
			v, w := targets[rng.Intn(len(targets))], 1.0
			if !unit {
				w = 0.5 + rng.Float64()
			}
			if int(v) != u {
				b.MustAddEdge(graph.NodeID(u), v, w)
			}
		}
	}
	return b.MustBuild()
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [12]byte
	pos := len(buf)
	neg := i < 0
	if neg {
		i = -i
	}
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		pos--
		buf[pos] = '-'
	}
	return string(buf[pos:])
}
