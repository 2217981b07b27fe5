package roundtriprank

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roundtriprank/internal/distributed"
	"roundtriprank/internal/testgraphs"
)

// TestConcurrentRank fires many Rank calls at one Engine from parallel
// goroutines and checks every response against the serial answer. Run with
// -race this doubles as the data-race check for the shared kernels, pool and
// cache.
func TestConcurrentRank(t *testing.T) {
	toy := testgraphs.NewToy()
	engine, err := NewEngine(toy.Graph)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	reqs := []Request{
		{Query: SingleNode(toy.T1), K: 5, Method: Exact},
		{Query: SingleNode(toy.T2), K: 5, Method: Exact, Beta: Float64(0.3)},
		{Query: MultiNode(toy.T1, toy.T2), K: 4, Method: Exact},
		{Query: SingleNode(toy.P[0]), K: 5, Method: TwoSBound, Epsilon: 0.001},
	}
	want := make([]*Response, len(reqs))
	for i, req := range reqs {
		w, err := engine.Rank(context.Background(), req)
		if err != nil {
			t.Fatalf("serial Rank %d: %v", i, err)
		}
		want[i] = w
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				i := (g + rep) % len(reqs)
				resp, err := engine.Rank(context.Background(), reqs[i])
				if err != nil {
					errCh <- err
					return
				}
				if len(resp.Results) != len(want[i].Results) {
					errCh <- errors.New("result length mismatch under concurrency")
					return
				}
				for j := range resp.Results {
					if resp.Results[j].Node != want[i].Results[j].Node ||
						math.Abs(resp.Results[j].Score-want[i].Results[j].Score) > 1e-9 {
						errCh <- errors.New("result mismatch under concurrency")
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

// TestRankBatchCacheHitsAndMisses pins the vector cache behavior: the first
// batch misses once per distinct (node, α, tol) key, repeats within and
// across batches hit, and WithVectorCache(0) disables the cache entirely.
func TestRankBatchCacheHitsAndMisses(t *testing.T) {
	toy := testgraphs.NewToy()
	engine, err := NewEngine(toy.Graph)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	reqs := []Request{
		{Query: SingleNode(toy.T1), K: 3, Method: Exact},
		{Query: SingleNode(toy.T1), K: 5, Method: Exact},             // same key as above
		{Query: MultiNode(toy.T1, toy.T2), K: 3, Method: Exact},      // T1 shared, T2 new
		{Query: SingleNode(toy.T1), K: 3, Method: Exact, Alpha: 0.5}, // alpha override: new key
	}
	if _, err := engine.RankBatch(context.Background(), reqs); err != nil {
		t.Fatalf("RankBatch: %v", err)
	}
	hits, misses, size := engine.CacheStats()
	if misses != 3 { // T1@default, T2@default, T1@alpha=0.5
		t.Errorf("first batch misses = %d, want 3", misses)
	}
	if hits != 2 { // T1 reused by request 1 and by the multi-node mixture
		t.Errorf("first batch hits = %d, want 2", hits)
	}
	if size != 3 {
		t.Errorf("cache size = %d, want 3", size)
	}

	// A second identical batch is answered from cache alone.
	if _, err := engine.RankBatch(context.Background(), reqs); err != nil {
		t.Fatalf("second RankBatch: %v", err)
	}
	hits2, misses2, _ := engine.CacheStats()
	if misses2 != misses {
		t.Errorf("second batch added %d misses, want 0", misses2-misses)
	}
	if hits2 != hits+5 { // T1, T1, T1+T2 mixture, T1@0.5
		t.Errorf("second batch hits = %d, want %d", hits2-hits, 5)
	}

	// Eviction: capacity 1 keeps only the most recent entry.
	small, err := NewEngine(toy.Graph, WithVectorCache(1))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := small.RankBatch(context.Background(), reqs); err != nil {
		t.Fatalf("RankBatch: %v", err)
	}
	if _, _, size := small.CacheStats(); size != 1 {
		t.Errorf("capacity-1 cache holds %d entries", size)
	}

	// Disabled cache: zero stats, identical results.
	uncached, err := NewEngine(toy.Graph, WithVectorCache(0))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	got, err := uncached.RankBatch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("uncached RankBatch: %v", err)
	}
	if h, m, s := uncached.CacheStats(); h != 0 || m != 0 || s != 0 {
		t.Errorf("disabled cache reports stats %d/%d/%d", h, m, s)
	}
	cached, err := engine.RankBatch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("cached RankBatch: %v", err)
	}
	for i := range got {
		if len(got[i].Results) != len(cached[i].Results) {
			t.Fatalf("request %d: cached and uncached disagree on result count", i)
		}
		for j := range got[i].Results {
			if got[i].Results[j].Node != cached[i].Results[j].Node {
				t.Errorf("request %d rank %d: cached %d != uncached %d",
					i, j, cached[i].Results[j].Node, got[i].Results[j].Node)
			}
		}
	}
}

// TestConcurrentRankBatches runs several identical batches in parallel on one
// engine: the in-flight deduplication must produce consistent responses and
// solve each distinct key once (no duplicated misses).
func TestConcurrentRankBatches(t *testing.T) {
	toy := testgraphs.NewToy()
	engine, err := NewEngine(toy.Graph)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	reqs := []Request{
		{Query: SingleNode(toy.T1), K: 4, Method: Exact},
		{Query: SingleNode(toy.T2), K: 4, Method: Exact},
		{Query: SingleNode(toy.V1), K: 4, Method: Exact},
	}
	want, err := engine.RankBatch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("RankBatch: %v", err)
	}
	const parallel = 8
	var wg sync.WaitGroup
	var mismatches atomic.Int64
	for p := 0; p < parallel; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := engine.RankBatch(context.Background(), reqs)
			if err != nil {
				mismatches.Add(1)
				return
			}
			for i := range got {
				for j := range got[i].Results {
					if got[i].Results[j].Node != want[i].Results[j].Node {
						mismatches.Add(1)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := mismatches.Load(); n != 0 {
		t.Fatalf("%d of %d concurrent batches disagreed", n, parallel)
	}
	_, misses, _ := engine.CacheStats()
	if misses != 3 {
		t.Errorf("concurrent batches performed %d solves, want 3 (in-flight dedup)", misses)
	}
}

// failingMultiply is a worker whose first Multiply parks until released and
// then fails; every other call is forwarded.
type failingMultiply struct {
	distributed.Transport
	first         atomic.Bool
	entered, hold chan struct{}
}

func (f *failingMultiply) Multiply(ctx context.Context, dir distributed.Direction, graphSum uint32, x []float64) ([]float64, error) {
	if f.first.CompareAndSwap(false, true) {
		close(f.entered)
		<-f.hold
		return nil, errors.New("worker lost its stripe")
	}
	return f.Transport.Multiply(ctx, dir, graphSum, x)
}

// TestCacheStatsCountAWaiterOnce pins the vector cache's accounting around a
// failed solve: an in-flight solve is not an entry, and a request that waited
// on another's solve which then failed recomputes and is counted once, as the
// miss of its own solve — not also as a hit at the moment it began to wait.
func TestCacheStatsCountAWaiterOnce(t *testing.T) {
	toy := testgraphs.NewToy()
	ts, err := LoopbackWorkers(toy.Graph, 1)
	if err != nil {
		t.Fatalf("LoopbackWorkers: %v", err)
	}
	worker := &failingMultiply{Transport: ts[0], entered: make(chan struct{}), hold: make(chan struct{})}
	engine, err := NewEngine(toy.Graph, WithWorkers(worker))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	reqs := []Request{{Query: SingleNode(toy.T1), K: 3, Method: Distributed}}
	rank := func() chan error {
		done := make(chan error, 1)
		go func() {
			_, err := engine.RankBatch(context.Background(), reqs)
			done <- err
		}()
		return done
	}
	owner := rank()
	<-worker.entered
	if hits, misses, size := engine.CacheStats(); hits != 0 || misses != 1 || size != 0 {
		t.Fatalf("during the solve: %d hits / %d misses / %d entries, want 0 / 1 / 0", hits, misses, size)
	}
	waiter := rank()
	// Give the waiter time to park on the in-flight solve. The assertions hold
	// whichever side of the failure it arrives on; the pause only makes it the
	// waiting side, the one that used to be counted twice.
	time.Sleep(20 * time.Millisecond)
	close(worker.hold)
	if err := <-owner; err == nil {
		t.Fatalf("the failed solve returned no error")
	}
	if err := <-waiter; err != nil {
		t.Fatalf("the waiter inherited its owner's failure: %v", err)
	}
	if hits, misses, size := engine.CacheStats(); hits != 0 || misses != 2 || size != 1 {
		t.Fatalf("after the retry: %d hits / %d misses / %d entries, want 0 / 2 / 1", hits, misses, size)
	}
}

// TestRankBatchCancellation cancels the context mid-batch — from the stats
// hook, as the first plan of the batch finishes — and checks the batch aborts
// with ctx.Err() instead of returning the responses it has.
func TestRankBatchCancellation(t *testing.T) {
	g := testgraphs.Cycle(2000)
	ctx, cancel := context.WithCancel(context.Background())
	engine, err := NewEngine(g, WithQueryStatsHook(func(QueryStat) { cancel() }))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	var reqs []Request
	for i := 0; i < 6; i++ {
		reqs = append(reqs, Request{
			Query:     SingleNode(NodeID(i)),
			K:         5,
			Method:    Exact,
			Tolerance: 1e-15, // many iterations, so the cancel lands mid-solve
		})
	}
	resp, err := engine.RankBatch(ctx, reqs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RankBatch error = %v, want context.Canceled", err)
	}
	if resp != nil {
		t.Errorf("cancelled batch returned responses")
	}

	// A pre-cancelled context aborts immediately.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := engine.RankBatch(done, reqs); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RankBatch error = %v, want context.Canceled", err)
	}
}
