package roundtriprank_test

import (
	"context"
	"fmt"

	"roundtriprank"
)

// Example builds a tiny bibliographic graph and runs the canonical "find
// authors for this paper" query through the Engine.
func Example() {
	b := roundtriprank.NewGraphBuilder()
	b.RegisterType(1, "author")
	b.RegisterType(2, "paper")
	alice := b.AddNode(1, "author:alice")
	bob := b.AddNode(1, "author:bob")
	carol := b.AddNode(1, "author:carol")
	p1 := b.AddNode(2, "paper:p1")
	p2 := b.AddNode(2, "paper:p2")
	b.MustAddUndirectedEdge(alice, p1, 2) // alice is p1's lead author
	b.MustAddUndirectedEdge(bob, p1, 1)
	b.MustAddUndirectedEdge(bob, p2, 1)
	b.MustAddUndirectedEdge(carol, p2, 1)
	g := b.MustBuild()

	engine, err := roundtriprank.NewEngine(g)
	if err != nil {
		panic(err)
	}
	resp, err := engine.Rank(context.Background(), roundtriprank.Request{
		Query:  roundtriprank.SingleNode(p1),
		K:      3,
		Filter: &roundtriprank.Filter{Types: []roundtriprank.NodeType{1}, ExcludeQuery: true},
	})
	if err != nil {
		panic(err)
	}
	for i, r := range resp.Results {
		fmt.Printf("%d. %s\n", i+1, g.Label(r.Node))
	}
	// Output:
	// 1. author:alice
	// 2. author:bob
	// 3. author:carol
}

// ExampleEngine_Apply mutates a live graph: a Delta stages a new paper and
// its edges, Apply commits it into a new epoch and swaps the engine's
// serving snapshot atomically.
func ExampleEngine_Apply() {
	b := roundtriprank.NewGraphBuilder()
	b.RegisterType(1, "author")
	b.RegisterType(2, "paper")
	alice := b.AddNode(1, "author:alice")
	p1 := b.AddNode(2, "paper:p1")
	b.MustAddUndirectedEdge(alice, p1, 1)
	g := b.MustBuild()

	engine, err := roundtriprank.NewEngine(g)
	if err != nil {
		panic(err)
	}
	fmt.Printf("epoch %d: %d nodes, %d edges\n", engine.Epoch(), g.NumNodes(), g.NumEdges())

	d := roundtriprank.NewDelta(g)
	p2 := d.AddNode(2, "paper:p2")
	if err := d.SetUndirectedEdge(alice, p2, 1); err != nil {
		panic(err)
	}
	res, err := engine.Apply(context.Background(), d)
	if err != nil {
		panic(err)
	}
	fmt.Printf("epoch %d: %d nodes, %d edges\n", res.Epoch, res.Graph.NumNodes(), res.Graph.NumEdges())

	resp, err := engine.Rank(context.Background(), roundtriprank.Request{
		Query:  roundtriprank.SingleNode(alice),
		K:      2,
		Filter: &roundtriprank.Filter{Types: []roundtriprank.NodeType{2}},
	})
	if err != nil {
		panic(err)
	}
	for _, r := range resp.Results {
		fmt.Println(res.Graph.Label(r.Node))
	}
	// Output:
	// epoch 0: 2 nodes, 2 edges
	// epoch 1: 3 nodes, 4 edges
	// paper:p1
	// paper:p2
}

// ExampleParseMethod shows the wire names of the execution methods, as
// accepted by rtrankd's "method" field and the -method CLI flags.
func ExampleParseMethod() {
	for _, name := range []string{"auto", "exact", "distributed", "2sbound", "2sbound-remote"} {
		m, err := roundtriprank.ParseMethod(name)
		if err != nil {
			panic(err)
		}
		fmt.Println(m)
	}
	// Output:
	// auto
	// exact
	// distributed
	// 2SBound
	// 2SBound-remote
}
