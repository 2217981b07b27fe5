package distributed_test

import (
	"context"
	"fmt"
	"math"

	"roundtriprank/internal/distributed"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/walk"
)

// Example stripes a graph across two in-process workers, connects to them, and
// shows the F-Rank solve over the connected Fleet agreeing bit for bit with the
// local kernel.
func Example() {
	b := graph.NewBuilder()
	var nodes []graph.NodeID
	for i := 0; i < 6; i++ {
		nodes = append(nodes, b.AddNode(0, fmt.Sprintf("n%d", i)))
	}
	for i := 0; i < 6; i++ {
		b.MustAddUndirectedEdge(nodes[i], nodes[(i+1)%6], 1+float64(i%3))
	}
	g := b.MustBuild()

	// One Transport per stripe; NewLoopback serves the worker's wire protocol
	// in-process, an HTTP deployment swaps in NewHTTPTransport.
	var transports []distributed.Transport
	for i := 0; i < 2; i++ {
		s, err := distributed.BuildStripe(g, i, 2)
		if err != nil {
			panic(err)
		}
		transports = append(transports, distributed.NewLoopback(distributed.NewWorker(s)))
	}
	fleet, err := distributed.Connect(context.Background(), transports, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d workers serving %d nodes at epoch %d\n", fleet.Workers(), fleet.NumNodes(), fleet.Epoch())

	q := walk.SingleNode(nodes[0])
	p := walk.Params{Alpha: 0.25, Tol: 1e-10, MaxIter: 200}
	dist, _, err := walk.FRankOver(context.Background(), fleet, q, p)
	if err != nil {
		panic(err)
	}
	local, err := walk.FRank(context.Background(), g, q, p)
	if err != nil {
		panic(err)
	}
	identical := true
	for i := range local {
		if math.Float64bits(dist[i]) != math.Float64bits(local[i]) {
			identical = false
		}
	}
	fmt.Printf("distributed solve bit-identical to local kernel: %v\n", identical)
	// Output:
	// 2 workers serving 6 nodes at epoch 0
	// distributed solve bit-identical to local kernel: true
}

// ExampleHTTPTransport_RetagStripe rolls one worker to a new epoch without
// re-shipping its stripe: after a commit that did not touch the stripe's rows,
// only the graph fingerprint and epoch need rebinding.
func ExampleHTTPTransport_RetagStripe() {
	b := graph.NewBuilder()
	a := b.AddNode(0, "a")
	c := b.AddNode(0, "b")
	b.MustAddUndirectedEdge(a, c, 1)
	g := b.MustBuild()

	s, err := distributed.BuildStripe(g, 0, 1)
	if err != nil {
		panic(err)
	}
	tr := distributed.NewLoopback(distributed.NewWorker(s))
	ctx := context.Background()

	info, err := tr.Info(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Printf("serving epoch %d\n", info.Epoch)
	if err := tr.RetagStripe(ctx, 0xabcd1234, info.Epoch+1, s.ContentFingerprint()); err != nil {
		panic(err)
	}
	if info, err = tr.Info(ctx); err != nil {
		panic(err)
	}
	fmt.Printf("serving epoch %d (same payload, %d rows)\n", info.Epoch, info.Rows)
	// Output:
	// serving epoch 0
	// serving epoch 1 (same payload, 2 rows)
}
