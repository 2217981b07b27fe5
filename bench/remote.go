package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"roundtriprank"
	"roundtriprank/internal/distributed"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/rowserve"
	"roundtriprank/internal/topk"
)

// bibnet-remote runs the AP/GP row seam: an engine whose online searcher
// reads every row through rowserve (session + single-flight LRU) from two
// stripe workers behind real HTTP, warm, plus the Distributed exact solve
// that pays one gather RPC per worker per power iteration.

const (
	remoteWorkers = 2
	// remoteExactEvery: one Distributed op per this many 2sbound-remote ops.
	remoteExactEvery = 40
)

type remoteOp struct {
	family family
	node   graph.NodeID
	req    roundtriprank.Request
}

type remoteWorkload struct {
	sz   sizing
	seed int64
	in   *bibnetInputs
	ops  []remoteOp

	// The system under test.
	g       *graph.Graph
	servers []*httptest.Server
	workers []roundtriprank.Transport
	eng     *roundtriprank.Engine

	coldPass time.Duration
	tr       atomic.Pointer[tracer]
}

func remoteRequest(v graph.NodeID, m roundtriprank.Method) roundtriprank.Request {
	return roundtriprank.Request{Query: roundtriprank.SingleNode(v), K: topK, Epsilon: epsilon, Method: m}
}

func (w *remoteWorkload) generate(seed int64, sz sizing) error {
	w.seed, w.sz = seed, sz
	in, err := bibnetEdgeList(seed, sz.bibScale)
	if err != nil {
		return err
	}
	w.in = in
	rng := rand.New(rand.NewSource(seed))
	for i, v := range sampleNodes(rng, in.papers, sz.bibQueries) {
		w.ops = append(w.ops, remoteOp{family: famOnline, node: v, req: remoteRequest(v, roundtriprank.TwoSBoundRemote)})
		// Also after the first query, so that the op list of any size opens
		// with one op of each family.
		if (i+1)%remoteExactEvery == 0 || i == 0 {
			w.ops = append(w.ops, remoteOp{family: famExact, node: v, req: remoteRequest(v, roundtriprank.Distributed)})
		}
	}
	return nil
}

// spanRef travels in the request context from the client-side op span to the
// transport decorator, through Engine.Rank.
type spanRef struct{ id, op int }

type spanKey struct{}

// timedTransport decorates a worker transport with a span per RPC. It is the
// only place the benchmark sees the wire from outside; on the untraced run
// (no spanRef in the context) it only forwards.
type timedTransport struct {
	distributed.Transport
	rows distributed.RowFetcher
	tr   *atomic.Pointer[tracer]
}

func (t *timedTransport) span(ctx context.Context, name string) (*tracer, int) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	tr := t.tr.Load()
	if !ok || tr == nil {
		return nil, 0
	}
	return tr, tr.begin(ref.id, ref.op, "distributed", name)
}

func (t *timedTransport) Multiply(ctx context.Context, dir distributed.Direction, graphSum uint32, x []float64) ([]float64, error) {
	tr, id := t.span(ctx, "rpc.multiply")
	out, err := t.Transport.Multiply(ctx, dir, graphSum, x)
	tr.end(id, nil)
	return out, err
}

func (t *timedTransport) FetchRows(ctx context.Context, graphSum uint32, nodes []graph.NodeID) (distributed.RowBatch, error) {
	tr, id := t.span(ctx, "rpc.rows")
	out, err := t.rows.FetchRows(ctx, graphSum, nodes)
	tr.end(id, nil)
	return out, err
}

func (t *timedTransport) OutDegrees(ctx context.Context) ([]int32, error) {
	return t.rows.OutDegrees(ctx)
}

func (w *remoteWorkload) setup() (map[string]float64, error) {
	g, buildTime, err := w.in.build()
	if err != nil {
		return nil, err
	}
	var stripeTime time.Duration
	for i := 0; i < remoteWorkers; i++ {
		start := time.Now()
		s, err := distributed.BuildStripe(g, i, remoteWorkers)
		stripeTime += time.Since(start)
		if err != nil {
			return nil, err
		}
		srv := httptest.NewServer(distributed.NewWorker(s).Handler())
		w.servers = append(w.servers, srv)
		dialed := roundtriprank.DialWorker(srv.URL)
		rows, ok := dialed.(distributed.RowFetcher)
		if !ok {
			return nil, fmt.Errorf("transport %T serves no row fetches", dialed)
		}
		w.workers = append(w.workers, &timedTransport{Transport: dialed, rows: rows, tr: &w.tr})
	}
	w.g = g
	if w.eng, err = roundtriprank.NewEngine(g, roundtriprank.WithWorkers(w.workers...)); err != nil {
		return nil, err
	}
	// First Connect of both fleet views (they dial lazily): one query each.
	for _, i := range []int{0, 1} {
		if w.do(0, i, nil).failed {
			return nil, fmt.Errorf("first %s query failed", familyNames[w.ops[i].family])
		}
	}
	return map[string]float64{
		"graph.build_ms":            ms(buildTime),
		"graph.stripe_build_ms":     ms(stripeTime),
		"graph.flat_bytes_per_edge": ratio(float64(g.SizeBytes()), float64(g.NumEdges())),
	}, nil
}

// warm is the cold pass: every distinct query once, which fills the row cache
// (it fits: the list touches about two thousand rows, the cache holds 65536).
func (w *remoteWorkload) warm() error {
	start := time.Now()
	err := firstOps(w, len(w.ops))
	w.coldPass = time.Since(start)
	return err
}

func (w *remoteWorkload) teardown() {
	for _, t := range w.workers {
		_ = t.Close() // HTTP transports only drop idle connections
	}
	for _, s := range w.servers {
		s.Close()
	}
	w.workers, w.servers, w.eng, w.g = nil, nil, nil, nil
}

func (w *remoteWorkload) clients() int { return 1 }
func (w *remoteWorkload) listLen() int { return len(w.ops) }

func (w *remoteWorkload) do(_, i int, tr *tracer) sample {
	o := &w.ops[i%len(w.ops)]
	ctx := context.Background()
	id := tr.begin(0, i, "engine", "rank."+familyNames[o.family])
	if id != 0 {
		w.tr.Store(tr)
		ctx = context.WithValue(ctx, spanKey{}, spanRef{id: id, op: i})
	}
	start := time.Now()
	_, err := w.eng.Rank(ctx, o.req)
	d := time.Since(start)
	tr.end(id, nil)
	return sample{family: o.family, ms: ms(d), failed: err != nil}
}

func (w *remoteWorkload) verify(c *checker, m metrics) error {
	ctx := context.Background()
	local, err := roundtriprank.NewEngine(w.g)
	if err != nil {
		return err
	}
	var q quality
	for _, i := range everyNth(len(w.ops), w.sz.verify) {
		o := w.ops[i]
		what := fmt.Sprintf("bibnet-remote op %d", i)
		ref, err := exactReference(w.g, o.req.Query, nil)
		if err != nil {
			return err
		}
		resp, err := w.eng.Rank(ctx, o.req)
		if err != nil {
			c.check(false, "%s: %v", what, err)
			continue
		}
		checkShape(c, what, resp.Results)
		q.add(resp.Results, ref)
		if o.family == famExact {
			err := sameRanking(resp.Results, ref)
			c.check(err == nil, "%s: distributed results differ from the reference: %v", what, err)
			continue
		}
		checkCertified(c, what, resp, ref)
		q.addOnline(resp.Converged, resp.CertifiedK)
		want, err := local.Rank(ctx, remoteRequest(o.node, roundtriprank.TwoSBound))
		if err == nil {
			err = sameResponse(resp, want)
		}
		c.check(err == nil, "%s: remote response differs from the flat local engine's: %v", what, err)
	}
	q.report(m)
	return nil
}

func (w *remoteWorkload) finish(*checker) error { return nil }

// recordingRows notes which rows a search reads, so the session-read probe
// can walk exactly the touched set.
type recordingRows struct {
	graph.Rows
	touched []graph.NodeID
}

func (r *recordingRows) OutRow(v graph.NodeID) ([]graph.NodeID, []float64) {
	r.touched = append(r.touched, v)
	return r.Rows.OutRow(v)
}

func (r *recordingRows) InRow(v graph.NodeID) ([]graph.NodeID, []float64) {
	r.touched = append(r.touched, v)
	return r.Rows.InRow(v)
}

func (w *remoteWorkload) layers(tr *tracer, m metrics) error {
	ctx := context.Background()
	spans := tr.closed()

	// The wire, from the decorator's spans on the Distributed ops of the
	// traced loop.
	self := selfTimes(spans)
	exactOps := collect(spans, self, "engine", "rank.exact")
	rpcs := collect(spans, self, "distributed", "rpc.multiply")
	m.set("distributed.rpc_ms_p50", median(rpcs.durMS))
	m.set("distributed.rpcs_per_op", ratio(float64(len(rpcs.durMS)), float64(len(exactOps.durMS))))
	m.set("distributed.rpc_busy_share", 1-ratio(sum(exactOps.selfMS), sum(exactOps.durMS)))

	// The row seam, warm, on the first quarter of the distinct queries:
	// per-query row counters, and remote against local latency.
	local, err := roundtriprank.NewEngine(w.g)
	if err != nil {
		return err
	}
	var online []remoteOp
	for _, o := range w.ops {
		if o.family == famOnline && len(online) < (w.sz.bibQueries+3)/4 {
			online = append(online, o)
		}
	}
	var remoteMS, localMS []float64
	var rows roundtriprank.RowQueryStats
	for i, o := range online {
		var resp *roundtriprank.Response
		d := tr.timed(0, i, "engine", "rank.remote_warm", func() { resp, err = w.eng.Rank(ctx, o.req) })
		if err != nil {
			return err
		}
		remoteMS = append(remoteMS, ms(d))
		rows.Fetched += resp.Rows.Fetched
		rows.RPCs += resp.Rows.RPCs
		rows.CacheHits += resp.Rows.CacheHits
		rows.CacheMisses += resp.Rows.CacheMisses
		d = tr.timed(0, i, "engine", "rank.local", func() {
			_, err = local.Rank(ctx, remoteRequest(o.node, roundtriprank.TwoSBound))
		})
		if err != nil {
			return err
		}
		localMS = append(localMS, ms(d))
	}
	n := float64(len(online))
	m.set("rowserve.lookups_per_op", float64(rows.CacheHits+rows.CacheMisses)/n)
	m.set("rowserve.cache_hit_ratio", ratio(float64(rows.CacheHits), float64(rows.CacheHits+rows.CacheMisses)))
	m.set("rowserve.rows_fetched_per_op", float64(rows.Fetched)/n)
	m.set("rowserve.rpcs_per_op", float64(rows.RPCs)/n)
	m.set("rowserve.warm_over_local", ratio(median(remoteMS), median(localMS)))
	m.set("rowserve.cold_pass_ms", ms(w.coldPass))

	// Session reads against flat CSR reads over the rows the searches touch:
	// a view of our own onto the same workers, warmed by the same searches.
	view, err := rowserve.Connect(ctx, w.workers, nil)
	if err != nil {
		return err
	}
	rec := &recordingRows{Rows: view.Session(ctx)}
	var probes []probeQuery
	for _, o := range online[:min(len(online), w.sz.probeQueries)] {
		pq := probeQuery{req: remoteRequest(o.node, roundtriprank.TwoSBound)}
		probes = append(probes, pq)
		if _, err := topk.TopKRows(ctx, rec, pq.req.Query, pq.searchOptions()); err != nil {
			return err
		}
	}
	sess := view.Session(ctx)
	start := time.Now()
	edges := 0
	for _, v := range rec.touched {
		out, _ := sess.OutRow(v)
		in, _ := sess.InRow(v)
		edges += len(out) + len(in)
	}
	m.set("rowserve.session_row_ns", ratio(float64(time.Since(start).Nanoseconds()), float64(len(rec.touched))))
	if edges == 0 {
		return fmt.Errorf("session read probe touched no edges")
	}

	probeFlatGraph(rand.New(rand.NewSource(w.seed)), m, w.g, w.sz.rowReads)
	// The searcher itself is the local one: replay it on the flat graph.
	return probeOnline(tr, m, local, w.g, probes)
}
