package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"roundtriprank"
	"roundtriprank/internal/cliutil"
	"roundtriprank/internal/testgraphs"
)

// newTestStack builds the full production stack over the toy graph: metrics,
// engine with the stats hook, server, and the shared middleware.
func newTestStack(t *testing.T, opts cliutil.HTTPOptions) (*roundtriprank.Engine, *Server, *httptest.Server) {
	t.Helper()
	toy := testgraphs.NewToy()
	m := NewMetrics()
	engine, err := roundtriprank.NewEngine(toy.Graph, roundtriprank.WithQueryStatsHook(m.RecordQuery))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s := New(engine, m, Config{})
	opts.Routes = Routes()
	opts.Exempt = ExemptRoutes()
	srv := httptest.NewServer(cliutil.WrapHTTP(s.Handler(), m.Registry(), opts))
	t.Cleanup(srv.Close)
	return engine, s, srv
}

func postRank(t *testing.T, srv *httptest.Server, body string) (*http.Response, rankResponse) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/rank", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /rank: %v", err)
	}
	defer resp.Body.Close()
	var out rankResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode /rank response: %v", err)
		}
	}
	return resp, out
}

// TestBuildRequestEpsilon pins the zero-value fix: an omitted epsilon plans
// the paper's ε=0.01 default, an explicit 0 still demands the exact
// guarantee, and other explicit values pass through.
func TestBuildRequestEpsilon(t *testing.T) {
	g := testgraphs.NewToy().Graph
	base := rankRequest{Query: []string{"term:spatio"}, K: 3}

	req, err := buildRequest(g, base)
	if err != nil {
		t.Fatalf("buildRequest: %v", err)
	}
	if req.Epsilon != DefaultEpsilon {
		t.Errorf("omitted epsilon plans %g, want %g", req.Epsilon, DefaultEpsilon)
	}

	zero := 0.0
	base.Epsilon = &zero
	if req, err = buildRequest(g, base); err != nil {
		t.Fatalf("buildRequest: %v", err)
	}
	if req.Epsilon != 0 {
		t.Errorf("explicit zero epsilon plans %g, want 0 (exact demand)", req.Epsilon)
	}

	quarter := 0.25
	base.Epsilon = &quarter
	if req, err = buildRequest(g, base); err != nil {
		t.Fatalf("buildRequest: %v", err)
	}
	if req.Epsilon != 0.25 {
		t.Errorf("explicit epsilon plans %g, want 0.25", req.Epsilon)
	}
}

// TestExplicitZeroEpsilonIsExact pins the wire behavior end to end: a /rank
// with "epsilon": 0 must reach the engine unchanged — its response is
// bit-identical to a direct exact-demand Engine.Rank — and its ranking must
// agree with the exact method's top-K.
func TestExplicitZeroEpsilonIsExact(t *testing.T) {
	engine, _, srv := newTestStack(t, cliutil.HTTPOptions{})

	resp, got := postRank(t, srv, `{"query":["term:spatio"],"k":3,"method":"2sbound","epsilon":0,"type":"venue"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/rank status = %d", resp.StatusCode)
	}
	if !got.Converged {
		t.Fatalf("eps=0 query did not converge")
	}

	// Mirror the request directly on the engine: the wire layer must not
	// have perturbed epsilon, so scores agree bit for bit.
	g := engine.View().(*roundtriprank.Graph)
	venue, err := cliutil.TypeByName(g, "venue")
	if err != nil {
		t.Fatalf("TypeByName: %v", err)
	}
	q := g.NodeByLabel("term:spatio")
	want, err := engine.Rank(context.Background(), roundtriprank.Request{
		Query:   roundtriprank.SingleNode(q),
		K:       3,
		Method:  roundtriprank.TwoSBound,
		Epsilon: 0,
		Filter:  &roundtriprank.Filter{ExcludeQuery: true, Types: []roundtriprank.NodeType{venue}},
	})
	if err != nil {
		t.Fatalf("engine Rank: %v", err)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("HTTP returned %d results, engine %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if got.Results[i].Node != want.Results[i].Node || got.Results[i].Score != want.Results[i].Score {
			t.Errorf("result %d: HTTP (%d, %v) != engine (%d, %v)",
				i, got.Results[i].Node, got.Results[i].Score, want.Results[i].Node, want.Results[i].Score)
		}
	}

	// And the eps=0 ranking agrees with the exact method's node order.
	respEx, exact := postRank(t, srv, `{"query":["term:spatio"],"k":3,"method":"exact","type":"venue"}`)
	if respEx.StatusCode != http.StatusOK {
		t.Fatalf("/rank exact status = %d", respEx.StatusCode)
	}
	for i := range exact.Results {
		if got.Results[i].Node != exact.Results[i].Node {
			t.Errorf("rank %d: eps=0 returned node %d, exact %d", i, got.Results[i].Node, exact.Results[i].Node)
		}
	}
}

// TestOmittedEpsilonServes checks a request without epsilon is served with
// the default precision (and converges on the toy graph).
func TestOmittedEpsilonServes(t *testing.T) {
	_, _, srv := newTestStack(t, cliutil.HTTPOptions{})
	resp, got := postRank(t, srv, `{"query":["term:spatio"],"k":3,"method":"2sbound"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/rank status = %d", resp.StatusCode)
	}
	if !got.Converged || len(got.Results) != 3 {
		t.Errorf("converged=%v results=%d, want converged top-3", got.Converged, len(got.Results))
	}
}

// TestMutationSurvivesClientDisconnect pins the detached-context fix: a
// client that disconnects mid-mutation must not cancel the commit. The
// handler sees an already-cancelled request context; the epoch still rolls.
func TestMutationSurvivesClientDisconnect(t *testing.T) {
	engine, s, _ := newTestStack(t, cliutil.HTTPOptions{})

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is gone before the commit starts
	body := `{"add_nodes":[{"type":"term","label":"term:streaming"}],` +
		`"set":[{"from":"term:streaming","to":"paper:p1","weight":1,"undirected":true}]}`
	req := httptest.NewRequest("POST", "/v1/edges", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)

	if rec.Code != http.StatusOK {
		t.Fatalf("mutation with disconnected client = %d: %s", rec.Code, rec.Body.String())
	}
	if got := engine.Epoch(); got != 1 {
		t.Errorf("epoch = %d after mutation, want 1", got)
	}
	g := engine.View().(*roundtriprank.Graph)
	if g.NodeByLabel("term:streaming") == roundtriprank.NoNode {
		t.Error("mutation did not land: term:streaming missing from the served graph")
	}
}

// TestEdgeWeightValidation pins what POST /v1/edges makes of an edge weight:
// a negative one, one beyond float64 (1e999), a literal NaN and a string are
// each a 400 that commits nothing — the epoch stays where it was — and 0 (like
// an omitted weight) is the documented default of 1.
func TestEdgeWeightValidation(t *testing.T) {
	engine, s, _ := newTestStack(t, cliutil.HTTPOptions{})
	post := func(weight string) *httptest.ResponseRecorder {
		body := `{"set":[{"from":"term:spatio","to":"venue:v1","weight":` + weight + `}]}`
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/edges", strings.NewReader(body)))
		return rec
	}
	g := engine.View().(*roundtriprank.Graph)
	from, to := g.NodeByLabel("term:spatio"), g.NodeByLabel("venue:v1")
	if from == roundtriprank.NoNode || to == roundtriprank.NoNode || g.HasEdge(from, to) {
		t.Fatalf("the case needs term:spatio and venue:v1 unconnected (nodes %d, %d)", from, to)
	}
	for _, weight := range []string{"-1", "1e999", "NaN", `"2"`} {
		if rec := post(weight); rec.Code != http.StatusBadRequest {
			t.Errorf("weight %s: status = %d, want 400: %s", weight, rec.Code, rec.Body.String())
		}
		if got := engine.Epoch(); got != 0 {
			t.Fatalf("weight %s: epoch = %d after a refused batch, want 0", weight, got)
		}
	}
	if rec := post("0"); rec.Code != http.StatusOK {
		t.Fatalf("weight 0: status = %d, want 200: %s", rec.Code, rec.Body.String())
	}
	if got := engine.Epoch(); got != 1 {
		t.Errorf("epoch = %d after the accepted batch, want 1", got)
	}
	g = engine.View().(*roundtriprank.Graph)
	if w, ok := g.EdgeWeight(from, to); !ok || w != 1 {
		t.Errorf("weight 0 stored as (%g, %v), want the default 1", w, ok)
	}
}

// TestStatusForError pins the error→status mapping the handlers rely on.
func TestStatusForError(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{&roundtriprank.ValidationError{Err: errors.New("bad k")}, http.StatusBadRequest},
		{fmt.Errorf("wrapped: %w", &roundtriprank.ValidationError{Err: errors.New("bad")}), http.StatusBadRequest},
		{&roundtriprank.ClusterError{Err: errors.New("worker down")}, http.StatusBadGateway},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{errors.New("solver exploded"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := statusForError(c.err); got != c.want {
			t.Errorf("statusForError(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestHandlerStatusCodes drives the classification end to end over the
// method-scoped mux.
func TestHandlerStatusCodes(t *testing.T) {
	_, _, srv := newTestStack(t, cliutil.HTTPOptions{})

	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"invalid JSON", "POST", "/rank", `{"query":`, http.StatusBadRequest},
		{"unknown method", "POST", "/rank", `{"query":["term:spatio"],"method":"psychic"}`, http.StatusBadRequest},
		{"unknown label", "POST", "/rank", `{"query":["term:nope"]}`, http.StatusBadRequest},
		{"negative k", "POST", "/rank", `{"query":["term:spatio"],"k":-1}`, http.StatusBadRequest},
		{"workers missing", "POST", "/rank", `{"query":["term:spatio"],"method":"distributed"}`, http.StatusBadRequest},
		{"GET on /rank", "GET", "/rank", "", http.StatusMethodNotAllowed},
		{"POST on /healthz", "POST", "/healthz", "", http.StatusMethodNotAllowed},
		{"empty mutation", "POST", "/v1/edges", `{}`, http.StatusBadRequest},
		{"stale edge target", "POST", "/v1/edges", `{"set":[{"from":"term:ghost","to":"paper:p1"}]}`, http.StatusBadRequest},
		{"healthz", "GET", "/healthz", "", http.StatusOK},
		{"epoch", "GET", "/v1/epoch", "", http.StatusOK},
		{"metrics", "GET", "/metrics", "", http.StatusOK},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, srv.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: NewRequest: %v", c.name, err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status = %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
}

// TestMetricsEndpoint scrapes /metrics after real traffic and asserts the
// documented families appear with the expected samples.
func TestMetricsEndpoint(t *testing.T) {
	_, _, srv := newTestStack(t, cliutil.HTTPOptions{})

	for i := 0; i < 3; i++ {
		if resp, _ := postRank(t, srv, `{"query":["term:spatio"],"k":3,"method":"2sbound"}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("/rank status = %d", resp.StatusCode)
		}
	}
	if resp, _ := postRank(t, srv, `{"query":["term:spatio"],"method":"psychic"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-method /rank status = %d", resp.StatusCode)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	body := string(raw)

	for _, want := range []string{
		`rtrank_engine_queries_total{method="2sbound",outcome="ok"} 3`,
		`rtrank_engine_query_duration_seconds_count{method="2sbound"} 3`,
		`rtrank_engine_query_latency_seconds{method="2sbound",quantile="0.99"}`,
		`rtrank_http_requests_total{path="/rank",code="200"} 3`,
		`rtrank_http_requests_total{path="/rank",code="400"} 1`,
		`rtrank_http_request_duration_seconds_bucket{path="/rank"`,
		"rtrank_epoch 0",
		"rtrank_fleet_connected 0",
		"rtrank_fleet_epoch_lag 0",
		"rtrank_vector_cache_hits_total",
		"rtrank_row_cache_hits_total 0",
		"rtrank_cluster_rpcs_total 0",
		"rtrank_scratch_pool_in_use 0",
		"rtrank_scratch_pool_peak",
		"rtrank_http_in_flight 0", // the scrape itself is exempt from the gate
		"rtrank_http_requests_shed_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}

// TestComposedStackShedsPastGate drives the stack as cmd/rtrankd composes it
// (engine stats hook → serve handlers → cliutil middleware) past its
// admission gate: a stats hook that parks holds two /rank requests inside
// the handler, so the third must be shed with 429 + Retry-After, /metrics
// must stay reachable while the gate is saturated (exempt route), and the
// stack's own shed counter must equal what the clients saw.
func TestComposedStackShedsPastGate(t *testing.T) {
	const limit = 2
	m := NewMetrics()
	entered := make(chan struct{}, limit)
	release := make(chan struct{})
	var queries atomic.Int32
	engine, err := roundtriprank.NewEngine(testgraphs.NewToy().Graph,
		roundtriprank.WithQueryStatsHook(func(st roundtriprank.QueryStat) {
			m.RecordQuery(st)
			// Only the first `limit` queries park: if the gate wrongly admits
			// a further one it is answered, and the test fails instead of
			// hanging.
			if queries.Add(1) <= limit {
				entered <- struct{}{}
				<-release
			}
		}))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	srv := httptest.NewServer(cliutil.WrapHTTP(New(engine, m, Config{}).Handler(), m.Registry(), cliutil.HTTPOptions{
		Routes:      Routes(),
		Exempt:      ExemptRoutes(),
		MaxInFlight: limit,
	}))
	defer srv.Close()
	unpark := sync.OnceFunc(func() { close(release) })
	defer unpark() // before srv.Close, which waits for the parked requests

	const body = `{"query":["term:spatio"],"k":3,"method":"2sbound"}`
	statuses := make(chan int, limit)
	for i := 0; i < limit; i++ {
		go func() {
			resp, err := http.Post(srv.URL+"/rank", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("admitted /rank: %v", err)
				statuses <- 0
				return
			}
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	for i := 0; i < limit; i++ {
		<-entered
	}

	shed := 0
	resp, _ := postRank(t, srv, body)
	if resp.StatusCode == http.StatusTooManyRequests {
		shed++
	} else {
		t.Errorf("over-limit /rank status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("shed response carries no Retry-After")
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics under saturation: %v", err)
	}
	raw, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status under saturation = %d, want 200 (exempt route)", mresp.StatusCode)
	}
	if want := fmt.Sprintf("rtrank_http_requests_shed_total %d\n", shed); !strings.Contains(string(raw), want) {
		t.Errorf("/metrics shed counter disagrees with the client tally: missing %q", strings.TrimSpace(want))
	}

	unpark()
	for i := 0; i < limit; i++ {
		if code := <-statuses; code != http.StatusOK {
			t.Errorf("parked /rank finished with status %d, want 200", code)
		}
	}
}
