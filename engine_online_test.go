package roundtriprank

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"roundtriprank/internal/scratch"
	"roundtriprank/internal/testgraphs"
)

// Online-path serving tests for the pooled scratch-state subsystem: steady
// state allocation pins, concurrent pooled queries sharing one Engine (the
// -race matrix job exercises the pool handoff), and pooled-scratch resizing
// across epoch swaps.

// TestOnlineRankSteadyStateAllocs pins the allocation profile of a pooled
// online query through the full public path. Engine.Rank adds request
// planning, filter compilation and response assembly on top of the
// near-zero-alloc search itself, so the budget is a small constant rather
// than zero.
func TestOnlineRankSteadyStateAllocs(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("sync.Pool bypasses reuse under the race detector; allocation counts are not meaningful")
	}
	toy := testgraphs.NewToy()
	engine, err := NewEngine(toy.Graph)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	req := Request{Query: SingleNode(toy.T1), K: 3, Method: TwoSBound, Epsilon: 0.01}
	if _, err := engine.Rank(context.Background(), req); err != nil { // warm the pool
		t.Fatalf("warmup: %v", err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := engine.Rank(context.Background(), req); err != nil {
			t.Fatalf("Rank: %v", err)
		}
	})
	const budget = 32
	if avg > budget {
		t.Errorf("steady-state online Rank allocates %.1f objects/query, budget %d", avg, budget)
	}
}

// TestConcurrentOnlinePooledRank hammers one Engine with online queries from
// many goroutines: every in-flight query holds its own pooled scratch, so
// all responses must be identical to the serial answers. Under -race this is
// the data-race check for the searcher pool.
func TestConcurrentOnlinePooledRank(t *testing.T) {
	toy := testgraphs.NewToy()
	engine, err := NewEngine(toy.Graph)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	var reqs []Request
	for _, q := range []NodeID{toy.T1, toy.T2, toy.P[0], toy.P[3], toy.V1} {
		for _, eps := range []float64{0.005, 0.05} {
			reqs = append(reqs, Request{Query: SingleNode(q), K: 4, Method: TwoSBound, Epsilon: eps})
		}
	}
	want := make([]*Response, len(reqs))
	for i, req := range reqs {
		w, err := engine.Rank(context.Background(), req)
		if err != nil {
			t.Fatalf("serial Rank %d: %v", i, err)
		}
		want[i] = w
	}

	const goroutines = 24
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 8; rep++ {
				i := (g*3 + rep) % len(reqs)
				resp, err := engine.Rank(context.Background(), reqs[i])
				if err != nil {
					errCh <- err
					return
				}
				if len(resp.Results) != len(want[i].Results) || resp.Rounds != want[i].Rounds {
					errCh <- fmt.Errorf("req %d: shape mismatch under concurrency", i)
					return
				}
				for j := range resp.Results {
					if resp.Results[j].Node != want[i].Results[j].Node ||
						math.Float64bits(resp.Results[j].Score) != math.Float64bits(want[i].Results[j].Score) {
						errCh <- fmt.Errorf("req %d rank %d: result mismatch under concurrency", i, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestOnlinePooledScratchAcrossEpochs interleaves pooled online queries with
// an Engine.Apply that grows the graph: the scratch recycled from the old
// epoch must be resized and invalidated, and post-swap answers must be
// bit-identical to a fresh engine over the equivalent from-scratch graph —
// including a query rooted at a node ID that did not exist before the swap.
func TestOnlinePooledScratchAcrossEpochs(t *testing.T) {
	base := epochBase(t)
	engine, err := NewEngine(base)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	// Warm the pool on epoch 0 so the post-swap queries recycle old-epoch
	// scratch rather than starting fresh.
	for i := 0; i < 4; i++ {
		if _, err := engine.Rank(context.Background(), Request{
			Query: SingleNode(NodeID(i)), K: 4, Method: TwoSBound, Epsilon: 0.01,
		}); err != nil {
			t.Fatalf("pre-swap Rank: %v", err)
		}
	}
	res, err := engine.Apply(context.Background(), stageEpochDelta(t, base))
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	fresh, err := NewEngine(epochScratch(t))
	if err != nil {
		t.Fatalf("NewEngine(scratch): %v", err)
	}
	queries := []Query{
		SingleNode(res.Graph.NodeByLabel("paper:0")),
		SingleNode(res.Graph.NodeByLabel("paper:4")), // born in the delta: out of range for stale scratch
		MultiNode(res.Graph.NodeByLabel("author:1"), res.Graph.NodeByLabel("venue:kdd")),
	}
	for qi, q := range queries {
		req := Request{Query: q, K: 5, Method: TwoSBound, Epsilon: 0, Beta: Float64(0.4)}
		got, err := engine.Rank(context.Background(), req)
		if err != nil {
			t.Fatalf("q%d on committed: %v", qi, err)
		}
		want, err := fresh.Rank(context.Background(), req)
		if err != nil {
			t.Fatalf("q%d on scratch-built: %v", qi, err)
		}
		requireBitIdentical(t, fmt.Sprintf("q%d", qi), got, want)
	}
}
