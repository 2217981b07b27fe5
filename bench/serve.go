package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"roundtriprank"
	"roundtriprank/internal/cliutil"
	"roundtriprank/internal/datasets"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/serve"
)

// bibnet-serve drives the real rtrankd stack over loopback HTTP: the serve
// handlers behind the cliutil middleware, served by cliutil.Serve, with reads
// and mutation batches in one closed loop.

const (
	serveListLen  = 1000 // op list: 49% 2sbound, 49% auto, 2% mutation batches
	serveApplyOps = 20   // mutation batches per op list
	batchEdges    = 20   // set edges per mutation batch
	batchCycle    = 64   // distinct batches; batch j sets cycle[j%64], removes cycle[(j-1)%64]
	spanHeader    = "X-Bench-Span"
	rankPath      = "/rank"
	edgesPath     = "/v1/edges"
)

type serveOp struct {
	family family
	body   []byte                // POST /rank body; mutation bodies come from the write sequence
	req    roundtriprank.Request // the library request the body translates to
	keep   func(graph.NodeID) bool
}

type serveWorkload struct {
	sz      sizing
	seed    int64
	in      *bibnetInputs
	ops     []serveOp
	batches [][]wedge // batchCycle disjoint sets of batchEdges new paper→term edges

	// The system under test.
	g      *graph.Graph // the snapshot set-up built (epoch 0)
	eng    *roundtriprank.Engine
	url    string
	client *http.Client
	stop   context.CancelFunc
	served chan error

	// Mutation batches are sent one at a time in sequence, whichever client
	// draws them, so batch j+1 always removes what batch j added.
	writeMu sync.Mutex
	writes  int

	tr                 atomic.Pointer[tracer]
	reqBytes, resBytes atomic.Int64
	rankOps, shed      atomic.Int64
}

// rankReply is the part of a POST /rank response the client reads.
type rankReply struct {
	Results []struct {
		Node  graph.NodeID `json:"node"`
		Label string       `json:"label"`
		Score float64      `json:"score"`
	} `json:"results"`
	Method     string `json:"method"`
	Converged  bool   `json:"converged"`
	CertifiedK int    `json:"certified_k"`
	Rounds     int    `json:"rounds"`
}

func (w *serveWorkload) generate(seed int64, sz sizing) error {
	w.seed, w.sz = seed, sz
	in, err := bibnetEdgeList(seed, sz.bibScale)
	if err != nil {
		return err
	}
	w.in = in
	rng := rand.New(rand.NewSource(seed))
	papers := sampleNodes(rng, in.papers, sz.bibQueries)

	kinds := make([]family, 0, serveListLen)
	for i := 0; i < serveListLen; i++ {
		switch {
		case i < serveApplyOps:
			kinds = append(kinds, famApply)
		case i%2 == 0:
			kinds = append(kinds, famOnline)
		default:
			kinds = append(kinds, famExact)
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for i, kind := range kinds {
		q := papers[i%len(papers)]
		op := serveOp{family: kind}
		switch kind {
		case famOnline:
			op.body = []byte(fmt.Sprintf(`{"query":[%q],"k":%d,"method":"2sbound","type":"author"}`, in.labels[q], topK))
			op.req = roundtriprank.Request{
				Query: roundtriprank.MultiNode(q), K: topK, Epsilon: serve.DefaultEpsilon, Method: roundtriprank.TwoSBound,
				Filter: &roundtriprank.Filter{ExcludeQuery: true, Types: []roundtriprank.NodeType{datasets.TypeAuthor}},
			}
			op.keep = func(v graph.NodeID) bool { return in.types[v] == datasets.TypeAuthor && v != q }
		case famExact:
			op.body = []byte(fmt.Sprintf(`{"query":[%q],"k":%d,"method":"auto"}`, in.labels[q], topK))
			op.req = roundtriprank.Request{
				Query: roundtriprank.MultiNode(q), K: topK, Epsilon: serve.DefaultEpsilon, Method: roundtriprank.Auto,
				Filter: &roundtriprank.Filter{ExcludeQuery: true},
			}
			op.keep = func(v graph.NodeID) bool { return v != q }
		}
		w.ops = append(w.ops, op)
	}

	// Mutation batches: paper→term edges absent from the generated graph
	// and from every other batch, so removing a batch restores the base.
	taken := make(map[[2]graph.NodeID]bool, len(in.edges))
	for _, e := range in.edges {
		taken[[2]graph.NodeID{e.From, e.To}] = true
	}
	w.batches = make([][]wedge, batchCycle)
	for b := range w.batches {
		for len(w.batches[b]) < batchEdges {
			e := [2]graph.NodeID{in.papers[rng.Intn(len(in.papers))], in.terms[rng.Intn(len(in.terms))]}
			if !taken[e] {
				taken[e] = true
				w.batches[b] = append(w.batches[b], wedge{From: e[0], To: e[1], W: 1})
			}
		}
	}
	return nil
}

// batchBody is the POST /v1/edges body of the j-th mutation batch.
func (w *serveWorkload) batchBody(j int) []byte {
	type edge struct {
		From string `json:"from"`
		To   string `json:"to"`
	}
	specs := func(es []wedge) []edge {
		out := make([]edge, len(es))
		for i, e := range es {
			out[i] = edge{From: w.in.labels[e.From], To: w.in.labels[e.To]}
		}
		return out
	}
	body := map[string][]edge{"set": specs(w.batches[j%batchCycle])}
	if j > 0 {
		body["remove"] = specs(w.batches[(j-1)%batchCycle])
	}
	data, err := json.Marshal(body)
	if err != nil {
		panic(err) // strings and slices only: cannot fail
	}
	return data
}

// spanHandler records a span named name+path around next for requests of a
// traced run (they carry the client span in spanHeader) and re-parents the
// header so that an inner spanHandler nests under this one. Untraced requests
// pass straight through.
func (w *serveWorkload) spanHandler(next http.Handler, layer, name string) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		tr, h := w.tr.Load(), r.Header.Get(spanHeader)
		parent, op, ok := parseSpanHeader(h)
		if tr == nil || !ok {
			next.ServeHTTP(rw, r)
			return
		}
		id := tr.begin(parent, op, layer, name+r.URL.Path)
		r.Header.Set(spanHeader, spanHeaderValue(id, op))
		next.ServeHTTP(rw, r)
		tr.end(id, nil)
	})
}

func spanHeaderValue(id, op int) string { return strconv.Itoa(id) + "," + strconv.Itoa(op) }

func parseSpanHeader(h string) (parent, op int, ok bool) {
	a, b, found := strings.Cut(h, ",")
	if !found {
		return 0, 0, false
	}
	parent, err1 := strconv.Atoi(a)
	op, err2 := strconv.Atoi(b)
	return parent, op, err1 == nil && err2 == nil
}

func (w *serveWorkload) setup() (map[string]float64, error) {
	g, buildTime, err := w.in.build()
	if err != nil {
		return nil, err
	}
	// The wiring below is cmd/rtrankd's, flag defaults included.
	sm := serve.NewMetrics()
	eng, err := roundtriprank.NewEngine(g, roundtriprank.WithQueryStatsHook(sm.RecordQuery))
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	s := serve.New(eng, sm, serve.Config{BaseContext: ctx, DegradeMargin: 50 * time.Millisecond})
	handler := cliutil.WrapHTTP(w.spanHandler(s.Handler(), "serve", "handler"), sm.Registry(), cliutil.HTTPOptions{
		Routes:      serve.Routes(),
		Exempt:      serve.ExemptRoutes(),
		MaxInFlight: 4 * runtime.GOMAXPROCS(0),
		RetryAfter:  time.Second,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		stop()
		return nil, err
	}
	w.served = make(chan error, 1)
	go func() {
		w.served <- cliutil.Serve(ctx, ln, w.spanHandler(handler, "cliutil", "middleware"), cliutil.HTTPServerConfig{})
	}()
	w.g, w.eng, w.stop, w.writes = g, eng, stop, 0
	w.url = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.clients()}}
	return map[string]float64{
		"graph.build_ms":            ms(buildTime),
		"graph.flat_bytes_per_edge": ratio(float64(g.SizeBytes()), float64(g.NumEdges())),
	}, nil
}

// warm opens the keep-alive connections and fills the scratch pool.
func (w *serveWorkload) warm() error { return firstOps(w, w.sz.warmup) }

func (w *serveWorkload) teardown() {
	if w.stop == nil {
		return
	}
	w.client.CloseIdleConnections()
	w.stop()
	<-w.served
	w.stop, w.eng, w.g = nil, nil, nil
}

func (w *serveWorkload) clients() int { return runtime.GOMAXPROCS(0) }
func (w *serveWorkload) listLen() int { return len(w.ops) }

// post sends one request and returns the status and the body read in full.
func (w *serveWorkload) post(path string, body []byte, span string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, w.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span != "" {
		req.Header.Set(spanHeader, span)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// rank posts one /rank body outside the timed loops and decodes the reply.
func (w *serveWorkload) rank(body []byte) (rankReply, error) {
	var reply rankReply
	status, data, err := w.post(rankPath, body, "")
	if err != nil {
		return reply, err
	}
	if status != http.StatusOK {
		return reply, fmt.Errorf("status %d: %s", status, data)
	}
	return reply, json.Unmarshal(data, &reply)
}

func (w *serveWorkload) do(_, i int, tr *tracer) sample {
	o := &w.ops[i%len(w.ops)]
	if tr != nil {
		w.tr.Store(tr)
	}
	if o.family == famApply {
		w.writeMu.Lock()
		defer w.writeMu.Unlock()
		return w.send(o.family, i, tr, edgesPath, w.batchBody(w.writes))
	}
	return w.send(o.family, i, tr, rankPath, o.body)
}

func (w *serveWorkload) send(f family, i int, tr *tracer, path string, body []byte) sample {
	id := tr.begin(0, i, "client", "http"+path)
	span := ""
	if id != 0 {
		span = spanHeaderValue(id, i)
	}
	start := time.Now()
	status, data, err := w.post(path, body, span)
	d := time.Since(start)
	if id != 0 {
		tr.end(id, map[string]float64{"status": float64(status), "request_bytes": float64(len(body)), "response_bytes": float64(len(data))})
	}
	s := sample{family: f, ms: ms(d), failed: err != nil || status != http.StatusOK}
	if status == http.StatusTooManyRequests {
		w.shed.Add(1)
	}
	if s.failed {
		return s
	}
	if f == famApply {
		w.writes++ // under writeMu: acknowledged batches
		return s
	}
	w.rankOps.Add(1)
	w.reqBytes.Add(int64(len(body)))
	w.resBytes.Add(int64(len(data)))
	return s
}

func (w *serveWorkload) verify(c *checker, m metrics) error {
	ctx := context.Background()
	// The snapshot being served, not the one set-up built: warm-up may have
	// sent mutation batches already.
	served := w.eng.View().(*graph.Graph)
	var q quality
	for _, i := range everyNth(len(w.ops), w.sz.verify) {
		o := w.ops[i]
		if o.family == famApply {
			continue
		}
		what := fmt.Sprintf("bibnet-serve op %d", i)
		ref, err := exactReference(served, o.req.Query, o.keep)
		if err != nil {
			return err
		}
		reply, err := w.rank(o.body)
		if err != nil {
			c.check(false, "%s: %v", what, err)
			continue
		}
		want, err := w.eng.Rank(ctx, o.req)
		if err != nil {
			c.check(false, "%s: library call: %v", what, err)
			continue
		}
		got := &roundtriprank.Response{Converged: reply.Converged, CertifiedK: reply.CertifiedK, Rounds: reply.Rounds, AchievedEpsilon: want.AchievedEpsilon}
		labels := true
		for _, r := range reply.Results {
			got.Results = append(got.Results, roundtriprank.Result{Node: r.Node, Score: r.Score})
			labels = labels && r.Label == w.in.labels[r.Node]
		}
		err = sameResponse(got, want)
		c.check(err == nil && labels && reply.Method == want.Method.String(),
			"%s: HTTP body differs from the library response (method %s vs %s): %v", what, reply.Method, want.Method, err)
		checkShape(c, what, got.Results)
		checkCertified(c, what, got, ref)
		q.add(got.Results, ref)
		if o.family == famOnline {
			q.addOnline(got.Converged, got.CertifiedK)
		}
		if o.family == famExact {
			err := sameRanking(got.Results, ref)
			c.check(err == nil, "%s: auto→exact results differ from the reference: %v", what, err)
		}
	}
	q.report(m)
	return nil
}

// finish checks the state the mutation batches left behind: the epoch equals
// the acknowledged batches, and a query on a mutated endpoint answers as a
// fresh engine built from the final edge list does.
func (w *serveWorkload) finish(c *checker) error {
	resp, err := w.client.Get(w.url + "/v1/epoch")
	if err != nil {
		return err
	}
	var epoch struct {
		Epoch uint64 `json:"epoch"`
	}
	err = json.NewDecoder(resp.Body).Decode(&epoch)
	resp.Body.Close()
	if err != nil {
		return err
	}
	c.check(epoch.Epoch == uint64(w.writes), "bibnet-serve: epoch %d after %d acknowledged mutation batches", epoch.Epoch, w.writes)
	if w.writes == 0 {
		return nil
	}
	last := w.batches[(w.writes-1)%batchCycle]
	final := w.in.edgeList
	final.edges = append(append([]wedge(nil), final.edges...), last...)
	fresh, _, err := final.build()
	if err != nil {
		return err
	}
	eng, err := roundtriprank.NewEngine(fresh)
	if err != nil {
		return err
	}
	q := last[0].From
	for _, method := range []string{"2sbound", "exact"} {
		m, err := roundtriprank.ParseMethod(method)
		if err != nil {
			return err
		}
		want, err := eng.Rank(context.Background(), roundtriprank.Request{
			Query: roundtriprank.MultiNode(q), K: topK, Epsilon: serve.DefaultEpsilon, Method: m,
			Filter: &roundtriprank.Filter{ExcludeQuery: true},
		})
		if err != nil {
			return err
		}
		body := []byte(fmt.Sprintf(`{"query":[%q],"k":%d,"method":%q}`, w.in.labels[q], topK, method))
		reply, err := w.rank(body)
		same := err == nil && len(reply.Results) == len(want.Results)
		for i := 0; same && i < len(want.Results); i++ {
			same = reply.Results[i].Node == want.Results[i].Node &&
				math.Float64bits(reply.Results[i].Score) == math.Float64bits(want.Results[i].Score)
		}
		c.check(same, "bibnet-serve: %s on mutated endpoint %s differs from a fresh engine over the final edge list (%v)",
			method, w.in.labels[q], err)
	}
	return nil
}

// libraryLoop is the closed loop of the rank ops without the HTTP stack: the
// same op list and client count calling Engine.Rank directly, so that the
// handler's self time is the difference under the same contention.
type libraryLoop struct {
	*serveWorkload
	rank []int // indexes of the rank ops in the op list
}

func (l libraryLoop) listLen() int { return len(l.rank) }

func (l libraryLoop) do(_, i int, tr *tracer) sample {
	o := &l.ops[l.rank[i%len(l.rank)]]
	var err error
	d := tr.timed(0, i, "engine", "rank."+familyNames[o.family], func() { _, err = l.eng.Rank(context.Background(), o.req) })
	return sample{family: o.family, ms: ms(d), failed: err != nil}
}

func (w *serveWorkload) layers(tr *tracer, m metrics) error {
	spans := tr.closed()
	self := selfTimes(spans)
	httpSelf := collect(spans, self, "client", "http"+rankPath).selfMS
	mwSelf := collect(spans, self, "cliutil", "middleware"+rankPath).selfMS
	handlerMS := collect(spans, self, "serve", "handler"+rankPath).durMS
	loop := libraryLoop{serveWorkload: w}
	for i, o := range w.ops {
		if o.family != famApply {
			loop.rank = append(loop.rank, i)
		}
	}
	lib := closedLoop(loop, w.sz.probeTime, tr)
	var libMS []float64
	for _, s := range lib.samples {
		if s.failed {
			return fmt.Errorf("library loop: an Engine.Rank call failed")
		}
		libMS = append(libMS, s.ms)
	}
	m.set("serve.http_self_ms", mean(httpSelf))
	m.set("cliutil.middleware_self_ms", mean(mwSelf))
	m.set("serve.handler_self_ms", mean(handlerMS)-mean(libMS))
	m.set("serve.request_bytes", ratio(float64(w.reqBytes.Load()), float64(w.rankOps.Load())))
	m.set("serve.response_bytes", ratio(float64(w.resBytes.Load()), float64(w.rankOps.Load())))
	m.set("serve.shed_total", float64(w.shed.Load()))

	probeFlatGraph(rand.New(rand.NewSource(w.seed)), m, w.g, w.sz.rowReads)
	var online, exact []probeQuery
	for _, o := range w.ops[:len(w.ops)/4] {
		switch {
		case o.family == famOnline && len(online) < w.sz.probeQueries:
			online = append(online, probeQuery{req: o.req, keep: o.keep})
		case o.family == famExact && len(exact) < w.sz.probeQueries:
			exact = append(exact, probeQuery{req: o.req, keep: o.keep})
		}
	}
	// The layers below the handler are probed on a scratch engine over the
	// set-up snapshot: what the served engine holds by now depends on how many
	// mutation batches the timed loops got through.
	scratch, err := roundtriprank.NewEngine(w.g)
	if err != nil {
		return err
	}
	if err := probeOnline(tr, m, scratch, w.g, online); err != nil {
		return err
	}
	if err := probeExact(tr, m, scratch, w.g, exact, ""); err != nil {
		return err
	}
	return w.probeApply(tr, m, scratch)
}

// probeApply attributes the write path, on the scratch engine (the served
// engine's epoch stays what the HTTP clients made it): graph.Commit of the
// workload's own batches, Engine.Apply of the same batches, and the vector
// cache's hit ratio on a RankBatch.
func (w *serveWorkload) probeApply(tr *tracer, m metrics, eng *roundtriprank.Engine) error {
	ctx := context.Background()
	stage := func(base *graph.Graph, j int) (*graph.Delta, error) {
		d := graph.NewDelta(base)
		for _, e := range w.batches[j%batchCycle] {
			if err := d.SetEdge(e.From, e.To, e.W); err != nil {
				return nil, err
			}
		}
		if j > 0 {
			for _, e := range w.batches[(j-1)%batchCycle] {
				if err := d.RemoveEdge(e.From, e.To); err != nil {
					return nil, err
				}
			}
		}
		return d, nil
	}
	var commitMS, applyMS []float64
	for j := 0; j < w.sz.probeQueries; j++ {
		base := eng.View().(*graph.Graph)
		d, err := stage(base, j)
		if err != nil {
			return err
		}
		dur := tr.timed(0, j, "graph", "commit", func() { _, err = graph.Commit(base, d) })
		if err != nil {
			return err
		}
		commitMS = append(commitMS, ms(dur))
		if d, err = stage(base, j); err != nil {
			return err
		}
		dur = tr.timed(0, j, "engine", "apply", func() { _, err = eng.Apply(ctx, d) })
		if err != nil {
			return err
		}
		applyMS = append(applyMS, ms(dur))
	}
	m.set("graph.commit_ms", mean(commitMS))
	m.set("engine.apply_self_ms", mean(applyMS)-mean(commitMS))

	// 40 exact requests over the first 10 exact ops of the list.
	var distinct, batch []roundtriprank.Request
	for _, o := range w.ops {
		if o.family == famExact && len(distinct) < 10 {
			distinct = append(distinct, o.req)
		}
	}
	for i := 0; i < 40; i++ {
		batch = append(batch, distinct[i%len(distinct)])
	}
	h0, m0, _ := eng.CacheStats()
	if _, err := eng.RankBatch(ctx, batch); err != nil {
		return err
	}
	h1, m1, _ := eng.CacheStats()
	m.set("engine.veccache_hit_ratio", ratio(float64(h1-h0), float64(h1-h0+m1-m0)))
	return nil
}
