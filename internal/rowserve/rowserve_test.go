package rowserve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roundtriprank/internal/distributed"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/lru"
	"roundtriprank/internal/testgraphs"
)

// fleet stripes g across n in-process workers: loopback exercises the full
// rowserve stack minus the wire codec (covered in internal/distributed).
func fleet(t testing.TB, g *graph.Graph, n int) []distributed.Transport {
	t.Helper()
	ts := make([]distributed.Transport, n)
	for i := 0; i < n; i++ {
		s, err := distributed.BuildStripe(g, i, n)
		if err != nil {
			t.Fatalf("BuildStripe(%d,%d): %v", i, n, err)
		}
		ts[i] = distributed.NewLoopback(distributed.NewWorker(s))
	}
	return ts
}

func rowGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"toy":   testgraphs.NewToy().Graph,
		"line":  testgraphs.Line(9),
		"cycle": testgraphs.Cycle(12),
		"star":  testgraphs.Star(7),
	}
}

func TestConnectBuildsDenseMetadata(t *testing.T) {
	ctx := context.Background()
	for name, g := range rowGraphs() {
		for _, workers := range []int{1, 2, 3} {
			r, err := Connect(ctx, fleet(t, g, workers), nil)
			if err != nil {
				t.Fatalf("%s w%d: Connect: %v", name, workers, err)
			}
			if r.NumNodes() != g.NumNodes() || r.Workers() != workers {
				t.Fatalf("%s w%d: view is %d nodes / %d workers", name, workers, r.NumNodes(), r.Workers())
			}
			if r.GraphFingerprint() != graph.GraphFingerprint(g) || r.Epoch() != g.Epoch() {
				t.Fatalf("%s w%d: pinned identity %08x/%d, graph has %08x/%d",
					name, workers, r.GraphFingerprint(), r.Epoch(), graph.GraphFingerprint(g), g.Epoch())
			}
			// The dense metadata must be usable without any row fetch.
			sess := r.Session(ctx)
			out := g.OutCSR()
			for v := 0; v < g.NumNodes(); v++ {
				deg := int(out.RowPtr[v+1] - out.RowPtr[v])
				if sess.OutDegree(graph.NodeID(v)) != deg {
					t.Fatalf("%s w%d node %d: OutDegree %d, want %d", name, workers, v, sess.OutDegree(graph.NodeID(v)), deg)
				}
				if sess.OutSum(graph.NodeID(v)) != out.Sum[v] {
					t.Fatalf("%s w%d node %d: OutSum %g, want %g", name, workers, v, sess.OutSum(graph.NodeID(v)), out.Sum[v])
				}
			}
			if rpcs, _, fetched := r.Stats(); fetched != 0 {
				t.Fatalf("%s w%d: metadata sweep fetched %d rows over %d RPCs", name, workers, fetched, rpcs)
			}
		}
	}
}

func TestConnectRejectsBadFleet(t *testing.T) {
	ctx := context.Background()
	g := testgraphs.NewToy().Graph

	if _, err := Connect(ctx, nil, nil); err == nil {
		t.Errorf("zero workers accepted")
	}
	ts := fleet(t, g, 2)
	if _, err := Connect(ctx, []distributed.Transport{ts[1], ts[0]}, nil); err == nil {
		t.Errorf("swapped stripes accepted")
	}
	other := fleet(t, testgraphs.Cycle(g.NumNodes()), 2)
	if _, err := Connect(ctx, []distributed.Transport{ts[0], other[1]}, nil); err == nil {
		t.Errorf("mixed graphs of equal size accepted")
	}
}

// TestSessionRowsMatchLocal is the core guarantee: every row a session serves
// is bit-identical to the local CSR row, for any worker count, and a full
// re-read is answered entirely from cache.
func TestSessionRowsMatchLocal(t *testing.T) {
	ctx := context.Background()
	for name, g := range rowGraphs() {
		for _, workers := range []int{1, 2, 3} {
			r, err := Connect(ctx, fleet(t, g, workers), nil)
			if err != nil {
				t.Fatalf("%s w%d: Connect: %v", name, workers, err)
			}
			sess := r.Session(ctx)
			out, in := g.OutCSR(), g.InCSR()
			sweep := func() {
				for v := 0; v < g.NumNodes(); v++ {
					gotC, gotW := sess.OutRow(graph.NodeID(v))
					wantC, wantW := out.Row(graph.NodeID(v))
					requireRowEqual(t, fmt.Sprintf("%s w%d out row %d", name, workers, v), gotC, gotW, wantC, wantW)
					gotC, gotW = sess.InRow(graph.NodeID(v))
					wantC, wantW = in.Row(graph.NodeID(v))
					requireRowEqual(t, fmt.Sprintf("%s w%d in row %d", name, workers, v), gotC, gotW, wantC, wantW)
				}
			}
			sweep()
			st := sess.Stats()
			n := int64(g.NumNodes())
			if st.Fetched != n || st.CacheMisses != n {
				t.Fatalf("%s w%d: first sweep fetched %d rows / %d misses, want %d both", name, workers, st.Fetched, st.CacheMisses, n)
			}
			rpcsAfter, _, _ := r.Stats()
			sweep()
			st = sess.Stats()
			if st.Fetched != n {
				t.Fatalf("%s w%d: re-read fetched %d more rows", name, workers, st.Fetched-n)
			}
			if rpcs, _, _ := r.Stats(); rpcs != rpcsAfter {
				t.Fatalf("%s w%d: re-read issued %d RPCs", name, workers, rpcs-rpcsAfter)
			}
		}
	}
}

func requireRowEqual(t *testing.T, label string, gotC []graph.NodeID, gotW []float64, wantC []graph.NodeID, wantW []float64) {
	t.Helper()
	if len(gotC) != len(wantC) || len(gotW) != len(wantW) {
		t.Fatalf("%s: %d/%d entries, want %d/%d", label, len(gotC), len(gotW), len(wantC), len(wantW))
	}
	for i := range wantC {
		if gotC[i] != wantC[i] || gotW[i] != wantW[i] {
			t.Fatalf("%s entry %d: (%d,%g), want (%d,%g)", label, i, gotC[i], gotW[i], wantC[i], wantW[i])
		}
	}
}

// TestPrefetchCoalescesWaves pins the batching contract: prefetching a wave
// spanning every stripe costs exactly one RPC per stripe, and the rows are
// then served without further fetches.
func TestPrefetchCoalescesWaves(t *testing.T) {
	ctx := context.Background()
	g := testgraphs.Cycle(12)
	const workers = 3
	r, err := Connect(ctx, fleet(t, g, workers), nil)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	base, _, _ := r.Stats()
	sess := r.Session(ctx)
	wave := make([]graph.NodeID, g.NumNodes())
	for v := range wave {
		wave[v] = graph.NodeID(v)
	}
	wave = append(wave, wave[0]) // duplicates must be fine
	sess.Prefetch(wave)
	if rpcs, _, fetched := r.Stats(); rpcs-base != workers || fetched != int64(g.NumNodes()) {
		t.Fatalf("wave cost %d RPCs / %d rows, want %d RPCs / %d rows", rpcs-base, fetched, workers, g.NumNodes())
	}
	for v := 0; v < g.NumNodes(); v++ {
		sess.OutRow(graph.NodeID(v))
	}
	if rpcs, _, _ := r.Stats(); rpcs-base != workers {
		t.Fatalf("reads after the wave issued %d extra RPCs", rpcs-base-workers)
	}
	st := sess.Stats()
	if st.CacheMisses != int64(g.NumNodes()) || st.CacheHits != int64(g.NumNodes()) {
		t.Fatalf("wave stats: %d misses / %d hits, want %d / %d", st.CacheMisses, st.CacheHits, g.NumNodes(), g.NumNodes())
	}
	// An all-cached wave is free.
	sess.Prefetch(wave)
	if rpcs, _, _ := r.Stats(); rpcs-base != workers {
		t.Fatalf("warm wave issued %d extra RPCs", rpcs-base-workers)
	}
}

// TestCacheEvictionKeepsServing squeezes the whole graph through a 2-row
// cache: rows must stay correct (re-fetched on demand), the cache must never
// exceed its capacity, and evictions must be counted.
func TestCacheEvictionKeepsServing(t *testing.T) {
	ctx := context.Background()
	g := testgraphs.NewToy().Graph
	cache := NewCache(2)
	r, err := Connect(ctx, fleet(t, g, 2), &Options{Cache: cache})
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	sess := r.Session(ctx)
	out := g.OutCSR()
	for pass := 0; pass < 2; pass++ {
		for v := 0; v < g.NumNodes(); v++ {
			gotC, gotW := sess.OutRow(graph.NodeID(v))
			wantC, wantW := out.Row(graph.NodeID(v))
			requireRowEqual(t, fmt.Sprintf("pass %d row %d", pass, v), gotC, gotW, wantC, wantW)
			if cache.Len() > cache.Capacity() {
				t.Fatalf("cache holds %d rows, capacity %d", cache.Len(), cache.Capacity())
			}
		}
	}
	if _, _, evictions := cache.Stats(); evictions == 0 {
		t.Fatalf("no evictions under a 2-row cache on a %d-node graph", g.NumNodes())
	}
}

// TestCacheSingleFlight hammers one cold row from many goroutines: exactly one
// fetch may reach the workers, everyone else waits on it.
func TestCacheSingleFlight(t *testing.T) {
	ctx := context.Background()
	g := testgraphs.Star(7)
	r, err := Connect(ctx, fleet(t, g, 2), nil)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	hubC, _ := g.OutCSR().Row(0)
	const goroutines = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			sess := r.Session(ctx)
			cols, _ := sess.OutRow(0)
			if len(cols) != len(hubC) {
				t.Errorf("star hub row has %d out-edges, want %d", len(cols), len(hubC))
			}
		}()
	}
	close(start)
	wg.Wait()
	if _, _, fetched := r.Stats(); fetched != 1 {
		t.Fatalf("%d goroutines fetched the row %d times, want 1", goroutines, fetched)
	}
}

// flakyFetcher wraps a transport and fails the first n FetchRows calls with a
// transient error, simulating a worker restarting mid-query.
type flakyFetcher struct {
	distributed.Transport
	fails int
}

func (f *flakyFetcher) FetchRows(ctx context.Context, graphSum uint32, nodes []graph.NodeID) (distributed.RowBatch, error) {
	if f.fails > 0 {
		f.fails--
		return distributed.RowBatch{}, &distributed.TransientError{Err: errors.New("worker restarting")}
	}
	return f.Transport.FetchRows(ctx, graphSum, nodes)
}

// TestTransientFetchRetried pins the chaos contract on the row path: a worker
// dying under a query is retried within the budget and the query succeeds;
// beyond the budget the query fails with a classified transient error naming
// the stripe, instead of hanging.
func TestTransientFetchRetried(t *testing.T) {
	ctx := context.Background()
	g := testgraphs.Cycle(10)
	ts := fleet(t, g, 2)
	flaky := &flakyFetcher{Transport: ts[1], fails: 2}
	ts[1] = flaky
	r, err := Connect(ctx, ts, &Options{Retry: distributed.RetryPolicy{Retries: 3, Backoff: time.Millisecond}})
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	sess := r.Session(ctx)
	cols, _ := sess.OutRow(1) // stripe 1 owns node 1
	wantC, _ := g.OutCSR().Row(1)
	if len(cols) != len(wantC) {
		t.Fatalf("retried row has %d entries, want %d", len(cols), len(wantC))
	}
	if _, retries, _ := r.Stats(); retries < 2 {
		t.Fatalf("flaky fetch recorded %d retries, want >= 2", retries)
	}

	// Beyond the budget: the session's error must be transient and
	// stripe-attributed for topk.TopKRows to surface.
	flaky.fails = 1 << 30
	sess2 := r.Session(ctx)
	if cols, wts := sess2.OutRow(3); len(cols)+len(wts) != 0 { // stripe 1 owns node 3, not yet cached
		t.Fatalf("failed fetch returned a row: %v %v", cols, wts)
	}
	err = sess2.Err()
	if !distributed.IsTransient(err) {
		t.Errorf("persistent worker failure not classified transient: %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "stripe 1") {
		t.Errorf("error does not name the failing stripe: %v", err)
	}
	requireDead(t, r, sess2)
}

// requireDead checks what a failed session promises: Err keeps returning the
// first failure, every read — cached rows included — comes back empty, and
// neither reads nor prefetches issue another RPC.
func requireDead(t *testing.T, r *RemoteCSR, sess *Session) {
	t.Helper()
	want := sess.Err()
	if want == nil {
		t.Fatalf("session did not fail")
	}
	rpcs, _, _ := r.Stats()
	all := make([]graph.NodeID, r.NumNodes())
	for v := range all {
		all[v] = graph.NodeID(v)
	}
	sess.Prefetch(all)
	for _, v := range all {
		oc, ow := sess.OutRow(v)
		ic, iw := sess.InRow(v)
		if len(oc)+len(ow)+len(ic)+len(iw) != 0 {
			t.Fatalf("failed session served row %d: out %v %v in %v %v", v, oc, ow, ic, iw)
		}
	}
	if now, _, _ := r.Stats(); now != rpcs {
		t.Errorf("failed session issued %d more RPCs", now-rpcs)
	}
	if got := sess.Err(); got != want {
		t.Errorf("Err changed from %v to %v", want, got)
	}
}

// TestCancelledSessionFailsCleanly pins the context path: a session whose
// context is dead fails its next fetch with the context error.
func TestCancelledSessionFailsCleanly(t *testing.T) {
	g := testgraphs.Line(9)
	r, err := Connect(context.Background(), fleet(t, g, 2), nil)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sess := r.Session(ctx)
	sess.OutRow(0)
	if err := sess.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fetch left Err %v, want context.Canceled", err)
	}
	requireDead(t, r, sess)
}

// waveRows is a transport whose FetchRows can be made to fail non-transiently
// with err, or to stall until its context ends. The stall is bounded: a fetch
// nobody cancels fails with its own error after a few seconds, rather than
// hanging the test.
type waveRows struct {
	distributed.Transport
	fail, stall atomic.Bool
	err         error
}

func (w *waveRows) FetchRows(ctx context.Context, graphSum uint32, nodes []graph.NodeID) (distributed.RowBatch, error) {
	switch {
	case w.fail.Load():
		return distributed.RowBatch{}, w.err
	case w.stall.Load():
		select {
		case <-ctx.Done():
			return distributed.RowBatch{}, ctx.Err()
		case <-time.After(5 * time.Second):
			return distributed.RowBatch{}, errors.New("stalled fetch was never cancelled")
		}
	}
	return w.Transport.FetchRows(ctx, graphSum, nodes)
}

// TestFailedWaveCancelsSiblingStripes pins a row wave's failure rule: when
// one stripe's fetch fails, the other stripes' fetches are cancelled instead
// of being waited out, the session reports the failing stripe's error rather
// than a sibling's context.Canceled, and every claim of the wave is failed —
// none is left in flight to hang a later query — so a fresh session over the
// same cache fetches the rows again and reads them exactly. A wave under an
// already-ended context starts no fetch and fails its claims the same way.
func TestFailedWaveCancelsSiblingStripes(t *testing.T) {
	ctx := context.Background()
	g := testgraphs.Cycle(12)
	ts := fleet(t, g, 2)
	stalled := &waveRows{Transport: ts[0]}
	broken := &waveRows{Transport: ts[1], err: errors.New("stripe 1 is corrupt")}
	r, err := Connect(ctx, []distributed.Transport{stalled, broken}, nil)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	all := make([]graph.NodeID, g.NumNodes())
	for v := range all {
		all[v] = graph.NodeID(v)
	}
	requireUnclaimed := func(label string) {
		t.Helper()
		for _, v := range all {
			key := cacheKey{content: r.Content(int(v) % r.Workers()), node: v}
			_, e, state := r.cache.Probe(key)
			if state != lru.Owned { // a later read of the row would hang on it
				t.Fatalf("%s: row %d is %v after the failed wave, want unclaimed", label, v, state)
			}
			r.cache.Fail(e, errors.New("probe"))
		}
	}

	stalled.stall.Store(true)
	broken.fail.Store(true)
	start := time.Now()
	sess := r.Session(ctx)
	sess.Prefetch(all)
	if err := sess.Err(); !errors.Is(err, broken.err) || errors.Is(err, context.Canceled) {
		t.Fatalf("failed wave left Err %v, want stripe 1's error", err)
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Errorf("the wave took %v: stripe 0's fetch was waited out, not cancelled", elapsed)
	}
	requireUnclaimed("stripe 1 failed")

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	sess = r.Session(cancelled)
	sess.Prefetch(all)
	if err := sess.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("wave under a cancelled context left Err %v, want context.Canceled", err)
	}
	requireUnclaimed("cancelled")

	stalled.stall.Store(false)
	broken.fail.Store(false)
	sess = r.Session(ctx)
	sess.Prefetch(all)
	out, in := g.OutCSR(), g.InCSR()
	for _, v := range all {
		gotC, gotW := sess.OutRow(v)
		wantC, wantW := out.Row(v)
		requireRowEqual(t, fmt.Sprintf("out row %d", v), gotC, gotW, wantC, wantW)
		gotC, gotW = sess.InRow(v)
		wantC, wantW = in.Row(v)
		requireRowEqual(t, fmt.Sprintf("in row %d", v), gotC, gotW, wantC, wantW)
	}
	if err := sess.Err(); err != nil {
		t.Fatalf("fresh session: %v", err)
	}
}

// TestStaleFleetFailsLoudly replaces the workers' stripes with another
// graph's and checks an uncached fetch on the old view fails with the pinned
// fingerprint instead of mixing snapshots, while cached rows keep serving.
func TestStaleFleetFailsLoudly(t *testing.T) {
	ctx := context.Background()
	g := testgraphs.Cycle(12)
	const n = 2
	workers := make([]*distributed.Worker, n)
	ts := make([]distributed.Transport, n)
	for i := 0; i < n; i++ {
		s, err := distributed.BuildStripe(g, i, n)
		if err != nil {
			t.Fatalf("BuildStripe: %v", err)
		}
		workers[i] = distributed.NewWorker(s)
		ts[i] = distributed.NewLoopback(workers[i])
	}
	r, err := Connect(ctx, ts, nil)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	sess := r.Session(ctx)
	sess.OutRow(0) // cache one row of stripe 0

	// The fleet moves on to a different graph (same node count).
	other := testgraphs.Star(g.NumNodes() - 1)
	for i := 0; i < n; i++ {
		s, err := distributed.BuildStripe(other, i, n)
		if err != nil {
			t.Fatalf("BuildStripe(other): %v", err)
		}
		workers[i].SetStripe(s)
	}

	// Cached rows of the old snapshot keep serving the pinned view.
	if cols, _ := r.Session(ctx).OutRow(0); len(cols) != 1 {
		t.Fatalf("cached cycle row has %d out-edges, want 1", len(cols))
	}
	// An uncached row must fail loudly, not return the impostor's adjacency.
	stale := r.Session(ctx)
	stale.OutRow(2)
	if err := stale.Err(); err == nil || distributed.IsTransient(err) {
		t.Errorf("stripe replacement: Err %v, want a non-transient failure (a transient one would be retried forever)", err)
	}
	requireDead(t, r, stale)
}
