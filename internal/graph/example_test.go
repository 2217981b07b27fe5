package graph_test

import (
	"fmt"

	"roundtriprank/internal/graph"
)

// ExampleBuilder constructs an immutable CSR graph and inspects it.
func ExampleBuilder() {
	b := graph.NewBuilder()
	b.RegisterType(1, "paper")
	b.RegisterType(2, "term")
	p := b.AddNode(1, "paper:csr")
	t1 := b.AddNode(2, "term:sparse")
	t2 := b.AddNode(2, "term:matrix")
	b.MustAddUndirectedEdge(p, t1, 1)
	b.MustAddUndirectedEdge(p, t2, 2)
	g := b.MustBuild()

	fmt.Printf("%d nodes, %d directed edges, epoch %d\n", g.NumNodes(), g.NumEdges(), g.Epoch())
	fmt.Printf("out-degree(%s) = %d, out-weight = %g\n", g.Label(p), g.OutDegree(p), g.OutSum(p))
	cols, weights := g.OutRow(p)
	for i, to := range cols {
		fmt.Printf("  %s -> %s (%g)\n", g.Label(p), g.Label(to), weights[i])
	}
	// Output:
	// 3 nodes, 4 directed edges, epoch 0
	// out-degree(paper:csr) = 2, out-weight = 3
	//   paper:csr -> term:sparse (1)
	//   paper:csr -> term:matrix (2)
}

// ExampleCommit stages a Delta against a snapshot and commits it into the
// next epoch; the base graph keeps serving unchanged.
func ExampleCommit() {
	b := graph.NewBuilder()
	a := b.AddNode(0, "a")
	bb := b.AddNode(0, "b")
	b.MustAddUndirectedEdge(a, bb, 1)
	base := b.MustBuild()

	d := graph.NewDelta(base)
	c := d.AddNode(0, "c")
	if err := d.SetUndirectedEdge(bb, c, 2); err != nil {
		panic(err)
	}
	if err := d.SetEdge(a, bb, 5); err != nil { // reweight a->b
		panic(err)
	}
	next, err := graph.Commit(base, d)
	if err != nil {
		panic(err)
	}

	fmt.Printf("base:  epoch %d, %d nodes, %d edges\n", base.Epoch(), base.NumNodes(), base.NumEdges())
	fmt.Printf("next:  epoch %d, %d nodes, %d edges\n", next.Epoch(), next.NumNodes(), next.NumEdges())
	w, _ := next.EdgeWeight(a, bb)
	wOld, _ := base.EdgeWeight(a, bb)
	fmt.Printf("a->b weight: %g (was %g)\n", w, wOld)
	// Output:
	// base:  epoch 0, 2 nodes, 2 edges
	// next:  epoch 1, 3 nodes, 4 edges
	// a->b weight: 5 (was 1)
}
