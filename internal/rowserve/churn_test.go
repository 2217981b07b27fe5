package rowserve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"roundtriprank/internal/distributed"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/lru"
	"roundtriprank/internal/testgraphs"
)

// replacingFetcher delegates to the inner transport but corrupts the content
// fingerprint of the first FetchRows answer, modelling a stripe that was
// replaced on the worker while the RPC was in flight (the same signal the
// wire layer's retag 409 protects against: an answer from a snapshot the
// session is not pinned to). Hold, when set, blocks the poisoned call until
// released so a test can stage a concurrent waiter deterministically.
type replacingFetcher struct {
	distributed.Transport
	poisoned atomic.Bool
	entered  chan struct{}
	hold     chan struct{}
}

func (f *replacingFetcher) FetchRows(ctx context.Context, graphSum uint32, nodes []graph.NodeID) (distributed.RowBatch, error) {
	batch, err := f.Transport.FetchRows(ctx, graphSum, nodes)
	if err != nil || !f.poisoned.CompareAndSwap(true, false) {
		return batch, err
	}
	if f.entered != nil {
		close(f.entered)
	}
	if f.hold != nil {
		<-f.hold
	}
	batch.Content ^= 0xdeadbeef
	return batch, nil
}

// TestSingleFlightRacingStripeReplacement drives the single-flight cache
// through a mid-fetch stripe replacement: the owning query's answer arrives
// from the wrong snapshot and fails validation (non-transiently — retrying a
// worker that answered from the wrong snapshot cannot help), while a second
// query already waiting on the in-flight slot must NOT inherit that failure:
// the failed slot leaves the cache, the waiter re-claims it with its own
// retry budget, and the restored stripe serves it the bit-exact row.
func TestSingleFlightRacingStripeReplacement(t *testing.T) {
	g := testgraphs.Cycle(12)
	ctx := context.Background()
	s, err := distributed.BuildStripe(g, 0, 1)
	if err != nil {
		t.Fatalf("BuildStripe: %v", err)
	}
	rf := &replacingFetcher{
		Transport: distributed.NewLoopback(distributed.NewWorker(s)),
		entered:   make(chan struct{}),
		hold:      make(chan struct{}),
	}
	r, err := Connect(ctx, []distributed.Transport{rf}, &Options{})
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	rf.poisoned.Store(true)

	const v = graph.NodeID(3)
	owner := r.Session(ctx)
	ownerErr := make(chan error, 1)
	go func() {
		owner.OutRow(v)
		ownerErr <- owner.Err()
	}()
	<-rf.entered // the owner claimed the slot and its RPC is in flight

	// The waiter races the owner on the same row. It must block on the
	// in-flight slot now and recover on its own after the owner fails.
	waiter := r.Session(ctx)
	if _, _, state := r.cache.Probe(cacheKey{content: r.Content(0), node: v}); state != lru.Wait {
		t.Fatalf("second probe got state %d, want lru.Wait", state)
	}
	type rowPair struct {
		to []graph.NodeID
		w  []float64
	}
	waiterRow := make(chan rowPair, 1)
	go func() {
		to, w := waiter.OutRow(v)
		waiterRow <- rowPair{to, w}
	}()

	close(rf.hold) // deliver the wrong-snapshot answer
	err = <-ownerErr
	if err == nil {
		t.Fatalf("owner's wrong-snapshot answer validated")
	}
	if distributed.IsTransient(err) {
		t.Errorf("a wrong-snapshot answer classified transient: %v", err)
	}

	got := <-waiterRow
	wantTo, wantW := g.OutCSR().Row(v)
	requireRowEqual(t, "waiter row after owner's failure", got.to, got.w, wantTo, wantW)
	if st := waiter.Stats(); waiter.Err() != nil || st.RPCs != 1 {
		t.Errorf("waiter: Err %v, %d RPCs; want it to refetch once on its own budget", waiter.Err(), st.RPCs)
	}
	requireDead(t, r, owner)

	// The failure must not be cached: a fresh read is a plain hit on the
	// waiter's completed entry, with no new RPC.
	rpcsBefore, _, _ := r.Stats()
	fresh := r.Session(ctx)
	fresh.OutRow(v)
	if st := fresh.Stats(); st.CacheHits != 1 || st.RPCs != 0 {
		t.Errorf("post-churn read: %+v, want one free cache hit", st)
	}
	if rpcs, _, _ := r.Stats(); rpcs != rpcsBefore {
		t.Errorf("post-churn read cost %d RPCs", rpcs-rpcsBefore)
	}
}

// downableRows is a transport whose row-serving RPCs can be turned off,
// failing transiently like a dead process would; the exact-path RPCs stay up
// so Connect always succeeds.
type downableRows struct {
	distributed.Transport
	down atomic.Bool
}

func (d *downableRows) FetchRows(ctx context.Context, graphSum uint32, nodes []graph.NodeID) (distributed.RowBatch, error) {
	if d.down.Load() {
		return distributed.RowBatch{}, &distributed.TransientError{Err: fmt.Errorf("rows down")}
	}
	return d.Transport.FetchRows(ctx, graphSum, nodes)
}

// TestEvictionDuringFailover runs a row sweep through per-stripe replica
// groups over a cache far smaller than the graph, killing every preferred
// replica mid-sweep: every row must keep arriving bit-exact (served by the
// surviving replicas), the failover counters must move, and the cache must
// keep evicting under pressure the whole time — eviction and failover
// interleaving is exactly the window where a stale or leaked in-flight slot
// would hang a later query.
func TestEvictionDuringFailover(t *testing.T) {
	g := testgraphs.Cycle(12)
	ctx := context.Background()
	const workers = 2

	preferred := make([]*downableRows, workers)
	transports := make([]distributed.Transport, workers)
	for i := 0; i < workers; i++ {
		s, err := distributed.BuildStripe(g, i, workers)
		if err != nil {
			t.Fatalf("BuildStripe: %v", err)
		}
		preferred[i] = &downableRows{Transport: distributed.NewLoopback(distributed.NewWorker(s))}
		backup := distributed.NewLoopback(distributed.NewWorker(s))
		transports[i] = distributed.NewReplicaSet([]distributed.Transport{preferred[i], backup})
	}
	// Capacity 3 on a 12-node graph: the sweep must evict constantly.
	r, err := Connect(ctx, transports, &Options{Cache: NewCache(3), Retry: distributed.RetryPolicy{Retries: 1, Backoff: 1}})
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}

	out, in := g.OutCSR(), g.InCSR()
	sweep := func(sess *Session) {
		for v := 0; v < g.NumNodes(); v++ {
			gotC, gotW := sess.OutRow(graph.NodeID(v))
			wantC, wantW := out.Row(graph.NodeID(v))
			requireRowEqual(t, fmt.Sprintf("out row %d", v), gotC, gotW, wantC, wantW)
			gotC, gotW = sess.InRow(graph.NodeID(v))
			wantC, wantW = in.Row(graph.NodeID(v))
			requireRowEqual(t, fmt.Sprintf("in row %d", v), gotC, gotW, wantC, wantW)

			if v == g.NumNodes()/2 {
				for _, p := range preferred {
					p.down.Store(true)
				}
			}
		}
	}
	sess := r.Session(ctx)
	sweep(sess)
	// Second sweep entirely through the backups, still under eviction
	// pressure (capacity 3 guarantees almost nothing survived the first).
	sweep(r.Session(ctx))

	var failovers int64
	for _, tr := range transports {
		failovers += tr.(*distributed.ReplicaSet).Failovers()
	}
	if failovers == 0 {
		t.Errorf("no failovers despite every preferred replica going down mid-sweep")
	}
	if _, _, evictions := r.cache.Stats(); evictions == 0 {
		t.Errorf("no evictions despite capacity 3 under a %d-row sweep", 2*g.NumNodes())
	}
	if r.cache.Len() > r.cache.Capacity() {
		t.Errorf("cache holds %d rows over capacity %d", r.cache.Len(), r.cache.Capacity())
	}
}

// gatedRows holds every FetchRows until the gate opens.
type gatedRows struct {
	distributed.Transport
	gate chan struct{}
}

func (g *gatedRows) FetchRows(ctx context.Context, graphSum uint32, nodes []graph.NodeID) (distributed.RowBatch, error) {
	<-g.gate
	return g.Transport.FetchRows(ctx, graphSum, nodes)
}

// TestCacheStatsSumSessionStats races sessions over the same rows and checks
// the cache's counters are the sums of the sessions': every lookup is a hit or
// a miss on both sides, including the ones that waited on another session's
// in-flight fetch. The first fetch is held until every session is under way,
// so the sessions that did not claim the first row wait on it.
func TestCacheStatsSumSessionStats(t *testing.T) {
	g := testgraphs.Cycle(12)
	ctx := context.Background()
	s, err := distributed.BuildStripe(g, 0, 1)
	if err != nil {
		t.Fatalf("BuildStripe: %v", err)
	}
	gated := &gatedRows{Transport: distributed.NewLoopback(distributed.NewWorker(s)), gate: make(chan struct{})}
	r, err := Connect(ctx, []distributed.Transport{gated}, &Options{})
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	hits0, misses0, _ := r.cache.Stats()

	const sessions = 8
	stats := make([]QueryStats, sessions)
	var started, done sync.WaitGroup
	started.Add(sessions)
	done.Add(sessions)
	for i := range stats {
		go func() {
			defer done.Done()
			sess := r.Session(ctx)
			started.Done()
			for v := 0; v < g.NumNodes(); v++ {
				sess.OutRow(graph.NodeID(v))
			}
			if err := sess.Err(); err != nil {
				t.Errorf("session %d: %v", i, err)
			}
			stats[i] = sess.Stats()
		}()
	}
	started.Wait()
	close(gated.gate)
	done.Wait()

	var hits, misses int64
	for _, st := range stats {
		hits += st.CacheHits
		misses += st.CacheMisses
	}
	cacheHits, cacheMisses, _ := r.cache.Stats()
	if cacheHits-hits0 != hits || cacheMisses-misses0 != misses {
		t.Errorf("cache counted %d hits and %d misses, its sessions %d and %d",
			cacheHits-hits0, cacheMisses-misses0, hits, misses)
	}
	if lookups := int64(sessions * g.NumNodes()); hits+misses != lookups || misses != int64(g.NumNodes()) {
		t.Errorf("%d hits + %d misses over %d lookups of %d rows", hits, misses, lookups, g.NumNodes())
	}
}
