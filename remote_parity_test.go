package roundtriprank

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"roundtriprank/internal/datasets"
	"roundtriprank/internal/distributed"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/topk"
	"roundtriprank/internal/walk"
)

// Remote-online parity suite: the acceptance gate of the row-serving
// subsystem. 2SBound over a RemoteCSR must return the identical top-K —
// nodes and bit-identical scores — as the local flat path on every test
// graph for any worker count, while the coordinator fetches no more rows
// than the searcher touches and answers repeats from cache without RPCs.

// localTouched runs the local flat searcher with the engine-default
// parameters and returns how many rows its working set could have read. The
// remote searcher executes the same arithmetic, so its fetch count must stay
// within this bound.
func localTouched(t *testing.T, g *Graph, q NodeID, k int, beta float64) int {
	t.Helper()
	res, err := topk.TopK(context.Background(), g, walk.SingleNode(q), topk.Options{
		K: k, Epsilon: 0, Alpha: 0.25, Beta: beta, Scheme: topk.Scheme2SBound,
	})
	if err != nil {
		t.Fatalf("local flat search: %v", err)
	}
	return res.Touched
}

// TestRemoteParityAgainstLocalOnline pins, for every test graph and 2 and 3
// HTTP workers, that TwoSBoundRemote equals local TwoSBound bit for bit at
// eps=0, that the query's network footprint stays within the searcher's
// touched set, and that an identical repeat costs zero RPCs.
func TestRemoteParityAgainstLocalOnline(t *testing.T) {
	for _, pg := range parityGraphs() {
		for _, workers := range []int{2, 3} {
			engine, err := NewEngine(pg.graph, WithWorkers(httpWorkerCluster(t, pg.graph, workers)...))
			if err != nil {
				t.Fatalf("%s: NewEngine: %v", pg.name, err)
			}
			for _, q := range pg.queries {
				for _, beta := range []float64{0.3, 0.5} {
					t.Run(fmt.Sprintf("%s/w%d/q%d/beta%.1f", pg.name, workers, q, beta), func(t *testing.T) {
						exact, err := engine.Rank(context.Background(), Request{
							Query: SingleNode(q), K: pg.graph.NumNodes(), Method: Exact, Beta: Float64(beta),
						})
						if err != nil {
							t.Fatalf("exact: %v", err)
						}
						k := gapK(exact.Results, 10)
						if k < 1 {
							t.Skip("top ranks tie exactly; top-K set not well defined at eps=0")
						}
						req := Request{Query: SingleNode(q), K: k, Epsilon: 0, Beta: Float64(beta)}
						req.Method = TwoSBound
						local, err := engine.Rank(context.Background(), req)
						if err != nil {
							t.Fatalf("local 2SBound: %v", err)
						}
						req.Method = TwoSBoundRemote
						remote, err := engine.Rank(context.Background(), req)
						if err != nil {
							t.Fatalf("remote 2SBound: %v", err)
						}
						requireBitIdentical(t, "remote-vs-local", remote, local)
						if remote.Method != TwoSBoundRemote || remote.Converged != local.Converged || remote.Rounds != local.Rounds {
							t.Fatalf("remote response meta differs: %+v vs %+v", remote, local)
						}
						if remote.Rows == nil {
							t.Fatalf("remote response carries no row stats")
						}
						if local.Rows != nil {
							t.Fatalf("local response carries row stats: %+v", local.Rows)
						}

						// O(touched) serving: the cold-cache footprint of this
						// query (all rows it fetched, ever, across engines'
						// shared cache) stays within the searcher's touched
						// set. The cache may have served some rows from
						// earlier queries, so Fetched is a lower fraction.
						touched := localTouched(t, pg.graph, q, k, beta)
						if remote.Rows.Fetched > int64(touched) {
							t.Errorf("fetched %d rows, searcher touches only %d", remote.Rows.Fetched, touched)
						}
						if remote.Rows.CacheMisses != remote.Rows.Fetched {
							t.Errorf("misses %d != fetched %d", remote.Rows.CacheMisses, remote.Rows.Fetched)
						}

						// A repeat of the identical query is answered entirely
						// from cache: zero RPCs, zero fetches, bit-identical.
						again, err := engine.Rank(context.Background(), req)
						if err != nil {
							t.Fatalf("repeat remote query: %v", err)
						}
						requireBitIdentical(t, "repeat", again, remote)
						if again.Rows.RPCs != 0 || again.Rows.Fetched != 0 {
							t.Errorf("repeat query issued %d RPCs / %d fetches, want 0/0", again.Rows.RPCs, again.Rows.Fetched)
						}
						if again.Rows.CacheHits == 0 {
							t.Errorf("repeat query recorded no cache hits")
						}
					})
				}
			}
			if engine.FleetStats().RPCs == 0 {
				t.Errorf("%s: no row RPCs folded into FleetStats", pg.name)
			}
		}
	}
}

// TestRemoteTinyCacheStaysCorrect squeezes remote queries through a 2-row
// cache: evictions must not corrupt results.
func TestRemoteTinyCacheStaysCorrect(t *testing.T) {
	pg := parityGraphs()[0]
	engine, err := NewEngine(pg.graph,
		WithWorkers(httpWorkerCluster(t, pg.graph, 2)...), WithRowCacheRows(2))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	req := Request{Query: SingleNode(pg.queries[0]), K: 5, Epsilon: 0}
	req.Method = TwoSBound
	local, err := engine.Rank(context.Background(), req)
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	req.Method = TwoSBoundRemote
	remote, err := engine.Rank(context.Background(), req)
	if err != nil {
		t.Fatalf("remote: %v", err)
	}
	requireBitIdentical(t, "tiny-cache", remote, local)
	st := engine.FleetStats()
	if st.CacheEvictions == 0 {
		t.Errorf("2-row cache recorded no evictions (stats %+v)", st)
	}
	if st.CachedRows > 2 {
		t.Errorf("cache holds %d rows, capacity 2", st.CachedRows)
	}
}

// TestRemoteRequiresWorkers pins the planning error on an engine without a
// fleet.
func TestRemoteRequiresWorkers(t *testing.T) {
	pg := parityGraphs()[0]
	engine, err := NewEngine(pg.graph)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	_, err = engine.Rank(context.Background(), Request{Query: SingleNode(pg.queries[0]), K: 3, Method: TwoSBoundRemote})
	if err == nil || !strings.Contains(err.Error(), "WithWorkers") {
		t.Fatalf("expected a WithWorkers planning error, got %v", err)
	}
}

// TestRemoteAutoPlansFleet pins Auto's preference order: a graph Auto does
// not solve exactly — here a bare packed layout — with a fleet configured is
// served remotely.
func TestRemoteAutoPlansFleet(t *testing.T) {
	pg := parityGraphs()[0]
	workers, err := LoopbackWorkers(pg.graph, 2)
	if err != nil {
		t.Fatalf("LoopbackWorkers: %v", err)
	}
	engine, err := NewEngine(graph.Pack(pg.graph), WithWorkers(workers...))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	resp, err := engine.Rank(context.Background(), Request{Query: SingleNode(pg.queries[0]), K: 3})
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	if resp.Method != TwoSBoundRemote || resp.Rows == nil {
		t.Fatalf("Auto planned %s (rows %v), want %s", resp.Method, resp.Rows, TwoSBoundRemote)
	}
}

// TestRemoteRejectsForeignFleet pins the graph-identity check on the row
// path, mirroring the exact-path test: over the flat graph and over its packed
// form alike.
func TestRemoteRejectsForeignFleet(t *testing.T) {
	pg := parityGraphs()[0]
	impostor := testgraphsCycle(t, pg.graph.NumNodes())
	for layout, view := range map[string]View{"flat": pg.graph, "packed": graph.Pack(pg.graph)} {
		workers, err := LoopbackWorkers(impostor, 2)
		if err != nil {
			t.Fatalf("LoopbackWorkers: %v", err)
		}
		engine, err := NewEngine(view, WithWorkers(workers...))
		if err != nil {
			t.Fatalf("%s: NewEngine: %v", layout, err)
		}
		_, err = engine.Rank(context.Background(), Request{Query: SingleNode(pg.queries[0]), K: 3, Method: TwoSBoundRemote})
		if err == nil || !strings.Contains(err.Error(), "fingerprint") {
			t.Fatalf("%s: foreign fleet accepted (err=%v)", layout, err)
		}
		var ce *ClusterError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: fleet mismatch not wrapped in ClusterError: %v", layout, err)
		}
	}
}

// TestRemoteSurvivesWorkerRestart is the chaos gate of the row path: a worker
// answering 503 for its first row fetches (dying and restarting mid-query)
// must be retried and the query must succeed bit-identically; a worker that
// never recovers must fail the query with a classified, stripe-attributed
// ClusterError instead of hanging the searcher.
func TestRemoteSurvivesWorkerRestart(t *testing.T) {
	pg := parityGraphs()[2] // cycle: every query touches both stripes
	var rowCalls, fail atomic.Int32
	fail.Store(2)
	cluster := make([]Transport, 2)
	for i := 0; i < 2; i++ {
		s, err := distributed.BuildStripe(pg.graph, i, 2)
		if err != nil {
			t.Fatalf("BuildStripe: %v", err)
		}
		h := distributed.NewWorker(s).Handler()
		if i == 1 {
			inner := h
			h = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				if strings.HasPrefix(r.URL.Path, "/v1/rows") {
					rowCalls.Add(1)
					if fail.Add(-1) >= 0 {
						http.Error(rw, `{"error":"worker restarting"}`, http.StatusServiceUnavailable)
						return
					}
				}
				inner.ServeHTTP(rw, r)
			})
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		cluster[i] = DialWorker(srv.URL)
	}
	engine, err := NewEngine(pg.graph, WithWorkers(cluster...))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	req := Request{Query: SingleNode(pg.queries[0]), K: 5, Epsilon: 0}
	req.Method = TwoSBound
	local, err := engine.Rank(context.Background(), req)
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	req.Method = TwoSBoundRemote
	remote, err := engine.Rank(context.Background(), req)
	if err != nil {
		t.Fatalf("remote query through a restarting worker: %v", err)
	}
	requireBitIdentical(t, "restarted-worker", remote, local)
	if retries := engine.FleetStats().Retries; retries < 2 {
		t.Errorf("restart absorbed with %d retries, want >= 2", retries)
	}
	if rowCalls.Load() < 3 {
		t.Errorf("row endpoint saw %d calls, expected the failed and retried fetches", rowCalls.Load())
	}

	// The worker dies for good: a fresh engine (cold cache) must fail loudly
	// with stripe attribution, classified transient so callers know a retry
	// after the worker returns is worthwhile.
	fail.Store(1 << 30)
	dead, err := NewEngine(pg.graph, WithWorkers(cluster...))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	_, err = dead.Rank(context.Background(), req)
	if err == nil {
		t.Fatalf("remote query through a dead worker succeeded")
	}
	var ce *ClusterError
	if !errors.As(err, &ce) {
		t.Fatalf("dead worker not reported as ClusterError: %v", err)
	}
	if !distributed.IsTransient(err) {
		t.Errorf("dead worker not classified transient: %v", err)
	}
	if !strings.Contains(err.Error(), "stripe 1") {
		t.Errorf("error does not attribute the failing stripe: %v", err)
	}
}

// TestRemoteEpochRollover pins the rollover contract of the row path: a
// query pinned to the old epoch keeps finishing with bit-identical results —
// served from cache, zero new RPCs — while Engine.Apply commits and
// redeploys; and the first query of the new epoch carries the unchanged
// stripes' cached rows over.
func TestRemoteEpochRollover(t *testing.T) {
	ctx := context.Background()
	base := epochBase(t)
	const workers = 3
	engine, err := NewEngine(base, WithWorkers(httpWorkerCluster(t, base, workers)...))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	qnode := base.NodeByLabel("paper:0")
	req := Request{Query: SingleNode(qnode), K: 5, Method: TwoSBoundRemote}
	before, err := engine.Rank(ctx, req)
	if err != nil {
		t.Fatalf("pre-rollover remote query: %v", err)
	}

	// The epoch-0 row view a long-running query would be pinned to.
	oldView := engine.snap.Load().fleet.Load()
	if oldView == nil || oldView.Epoch() != 0 {
		t.Fatalf("no epoch-0 row view connected")
	}
	tkOpts := topk.Options{K: 5, Epsilon: 0, Alpha: 0.25, Beta: 0.5, Scheme: topk.Scheme2SBound}
	preSess := oldView.Session(ctx)
	pre, err := topk.TopKRows(ctx, preSess, walk.SingleNode(qnode), tkOpts)
	if err != nil {
		t.Fatalf("pre-rollover pinned query: %v", err)
	}

	// Commit a single reweight: 2 stripes change content, 1 is retagged.
	d := NewDelta(base)
	if err := d.SetEdge(qnode, base.NodeByLabel("author:0"), 5); err != nil {
		t.Fatal(err)
	}
	res, err := engine.Apply(ctx, d)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if res.StripesShipped != 2 || res.StripesRetagged != 1 {
		t.Fatalf("redeploy shipped %d / retagged %d, want 2/1", res.StripesShipped, res.StripesRetagged)
	}

	// The old-epoch query finishes after the fleet moved on: bit-identical,
	// entirely from cache.
	postSess := oldView.Session(ctx)
	post, err := topk.TopKRows(ctx, postSess, walk.SingleNode(qnode), tkOpts)
	if err != nil {
		t.Fatalf("pinned query after rollover: %v", err)
	}
	if len(post.TopK) != len(pre.TopK) {
		t.Fatalf("pinned query returned %d results after rollover, %d before", len(post.TopK), len(pre.TopK))
	}
	for i := range pre.TopK {
		if post.TopK[i].Node != pre.TopK[i].Node ||
			math.Float64bits(post.TopK[i].Score) != math.Float64bits(pre.TopK[i].Score) {
			t.Fatalf("pinned query rank %d changed across the rollover: %+v vs %+v", i, post.TopK[i], pre.TopK[i])
		}
	}
	if st := postSess.Stats(); st.RPCs != 0 || st.Fetched != 0 {
		t.Fatalf("pinned query after rollover issued %d RPCs / %d fetches, want 0/0", st.RPCs, st.Fetched)
	}

	// The new epoch answers remotely, agrees with the local path on the
	// committed graph, and the retagged stripe's rows come from cache.
	after, err := engine.Rank(ctx, req)
	if err != nil {
		t.Fatalf("post-rollover remote query: %v", err)
	}
	reqLocal := req
	reqLocal.Method = TwoSBound
	localAfter, err := engine.Rank(ctx, reqLocal)
	if err != nil {
		t.Fatalf("post-rollover local query: %v", err)
	}
	requireBitIdentical(t, "post-rollover", after, localAfter)
	if after.Rows.CacheHits == 0 {
		t.Errorf("new epoch carried no cached rows over (stats %+v)", after.Rows)
	}
	// The reweight must actually change the ranking somewhere (otherwise the
	// rollover proved nothing).
	changed := len(after.Results) != len(before.Results)
	for i := 0; !changed && i < len(before.Results); i++ {
		changed = after.Results[i] != before.Results[i]
	}
	if !changed {
		t.Errorf("rankings identical across a reweighting commit")
	}
}

// TestRemoteConcurrentRank runs TwoSBoundRemote queries from many goroutines
// against one engine — the -race matrix exercises the row cache's
// single-flight and LRU paths here — and pins every answer to the serial
// baseline.
func TestRemoteConcurrentRank(t *testing.T) {
	pg := parityGraphs()[0]
	workers, err := LoopbackWorkers(pg.graph, 3)
	if err != nil {
		t.Fatalf("LoopbackWorkers: %v", err)
	}
	// A tiny cache keeps evictions racing the single-flight dedup.
	engine, err := NewEngine(pg.graph, WithWorkers(workers...), WithRowCacheRows(4))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	reqs := make([]Request, len(pg.queries))
	want := make([]*Response, len(pg.queries))
	for i, q := range pg.queries {
		reqs[i] = Request{Query: SingleNode(q), K: 5, Epsilon: 0, Method: TwoSBoundRemote}
		want[i], err = engine.Rank(context.Background(), reqs[i])
		if err != nil {
			t.Fatalf("serial baseline q%d: %v", q, err)
		}
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				i := (gi + round) % len(reqs)
				resp, err := engine.Rank(context.Background(), reqs[i])
				if err != nil {
					errs[gi] = err
					return
				}
				if len(resp.Results) != len(want[i].Results) {
					errs[gi] = fmt.Errorf("q%d: %d results, want %d", i, len(resp.Results), len(want[i].Results))
					return
				}
				for j := range want[i].Results {
					if resp.Results[j] != want[i].Results[j] {
						errs[gi] = fmt.Errorf("q%d rank %d: %+v, want %+v", i, j, resp.Results[j], want[i].Results[j])
						return
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	for gi, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", gi, err)
		}
	}
}

// TestRemoteRowViewReusesRowserveConnect pins that the engine's lazy row view
// is connected once per epoch and shared across queries (the connect-time
// metadata RPCs happen once, not per query).
func TestRemoteRowViewReusesRowserveConnect(t *testing.T) {
	pg := parityGraphs()[1]
	workers, err := LoopbackWorkers(pg.graph, 2)
	if err != nil {
		t.Fatalf("LoopbackWorkers: %v", err)
	}
	engine, err := NewEngine(pg.graph, WithWorkers(workers...))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	req := Request{Query: SingleNode(pg.queries[0]), K: 3, Method: TwoSBoundRemote}
	if _, err := engine.Rank(context.Background(), req); err != nil {
		t.Fatalf("first query: %v", err)
	}
	first := engine.snap.Load().fleet.Load()
	if first == nil {
		t.Fatalf("no row view after the first query")
	}
	if _, err := engine.Rank(context.Background(), req); err != nil {
		t.Fatalf("second query: %v", err)
	}
	if engine.snap.Load().fleet.Load() != first {
		t.Fatalf("second query reconnected the row view")
	}
}

// TestRemoteRowLookupsDoNotGrow pins what one remote query asks of the row
// cache. Stage II refines from the edge log and looks no row up, so a query's
// lookups are Stage I's alone — the rows BCA processes, the border picks, whose
// in-rows every path reads once per round, and the visits of each node joining
// a neighborhood, the prefetch hint that announces it among them — however
// many rounds refine. The fixed query below made 9 179 lookups when every
// refinement re-read the row of every seen node, and 7 226 while a remote T
// expansion read its picks' in-rows a second time to collect its prefetch
// wave; the count depends on the search, not on what the cache holds, so it
// repeats exactly.
func TestRemoteRowLookupsDoNotGrow(t *testing.T) {
	net, err := datasets.GenerateBibNet(datasets.ScaledBibNetConfig(0.12))
	if err != nil {
		t.Fatalf("GenerateBibNet: %v", err)
	}
	engine, err := NewEngine(net.Graph, WithWorkers(httpWorkerCluster(t, net.Graph, 2)...))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	req := Request{
		Query: SingleNode(net.Papers[0]), K: 10, Epsilon: 0, Method: TwoSBoundRemote,
		Budget: &Budget{MaxRounds: 8},
	}
	var lookups [2]int64
	for i := range lookups {
		resp, err := engine.Rank(context.Background(), req)
		if err != nil {
			t.Fatalf("remote query: %v", err)
		}
		lookups[i] = resp.Rows.CacheHits + resp.Rows.CacheMisses
		t.Logf("rounds %d, |Sf| %d, |St| %d: %d lookups", resp.Rounds, resp.FSeen, resp.TSeen, lookups[i])
	}
	const before = 7171
	if lookups[0] != lookups[1] || lookups[0] > before {
		t.Errorf("cold and warm run made %d and %d row lookups, want the same and at most %d", lookups[0], lookups[1], before)
	}
}
