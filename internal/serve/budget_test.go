package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"roundtriprank"
	"roundtriprank/internal/cliutil"
	"roundtriprank/internal/testgraphs"
)

// newDegradeStack is newTestStack with a degrade margin armed, so requests
// that arrive with a context deadline get the deadline-aware soft budget.
func newDegradeStack(t *testing.T, margin time.Duration, opts cliutil.HTTPOptions) (*Server, *httptest.Server) {
	t.Helper()
	toy := testgraphs.NewToy()
	m := NewMetrics()
	engine, err := roundtriprank.NewEngine(toy.Graph, roundtriprank.WithQueryStatsHook(m.RecordQuery))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s := New(engine, m, Config{DegradeMargin: margin})
	opts.Routes = Routes()
	opts.Exempt = ExemptRoutes()
	srv := httptest.NewServer(cliutil.WrapHTTP(s.Handler(), m.Registry(), opts))
	t.Cleanup(srv.Close)
	return s, srv
}

// TestBuildRequestBudget pins the wire → engine budget mapping: the three
// deterministic knobs pass through, the wall-clock margin stays server-side
// (a replayed request must not depend on when it was first sent), and an
// omitted budget plans none.
func TestBuildRequestBudget(t *testing.T) {
	g := testgraphs.NewToy().Graph
	base := rankRequest{Query: []string{"term:spatio"}, K: 3,
		Budget: &rankBudget{MaxRounds: 7, MaxTouched: 123, FrontierCap: 9}}
	req, err := buildRequest(g, base)
	if err != nil {
		t.Fatalf("buildRequest: %v", err)
	}
	if req.Budget == nil {
		t.Fatal("wire budget dropped")
	}
	if req.Budget.MaxRounds != 7 || req.Budget.MaxTouched != 123 || req.Budget.FrontierCap != 9 {
		t.Errorf("budget mapped to %+v, want 7/123/9", *req.Budget)
	}
	if req.Budget.FlushMargin != 0 {
		t.Errorf("wire budget set a flush margin %v; wall-clock policy is the server's", req.Budget.FlushMargin)
	}

	base.Budget = nil
	if req, err = buildRequest(g, base); err != nil {
		t.Fatalf("buildRequest: %v", err)
	}
	if req.Budget != nil {
		t.Errorf("omitted budget planned %+v, want none", *req.Budget)
	}
}

// TestRankBudgetDegradedServes200 drives a starved budget end to end: the
// query cannot converge in one round at eps=0, so the response must be a 200
// carrying the best-effort ranking with the degraded certificate — and the
// degradation must land in the metrics.
func TestRankBudgetDegradedServes200(t *testing.T) {
	_, _, srv := newTestStack(t, cliutil.HTTPOptions{})
	resp, out := postRank(t, srv, `{"query":["term:spatio"],"k":3,"method":"2sbound","epsilon":0,"budget":{"max_rounds":1}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/rank status = %d, want 200 with a degraded result", resp.StatusCode)
	}
	if !out.Degraded || out.Converged {
		t.Errorf("degraded=%v converged=%v, want a degraded partial result", out.Degraded, out.Converged)
	}
	if len(out.Results) != 3 {
		t.Errorf("degraded response carries %d results, want the best-effort top-3", len(out.Results))
	}
	if out.CertifiedK < 0 || out.CertifiedK > len(out.Results) {
		t.Errorf("certified_k = %d outside [0, %d]", out.CertifiedK, len(out.Results))
	}
	if out.AchievedEpsilon <= 0 {
		t.Errorf("achieved_epsilon = %g, want the positive residual gap", out.AchievedEpsilon)
	}
	if out.Rounds != 1 || out.Sweeps < 2 {
		t.Errorf("rounds = %d, sweeps = %d, want the one round and its two refinements' sweeps", out.Rounds, out.Sweeps)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	for _, want := range []string{
		`rtrank_engine_query_degraded_total{method="2sbound"} 1`,
		`rtrank_engine_query_certified_k_count{method="2sbound"} 1`,
		`rtrank_engine_query_stage2_sweeps_count{method="2sbound"} 1`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRankBudgetNothingCertifiableIs504 pins the only case the anytime layer
// still times out: the budget died before any admissible result existed (the
// venue filter needs two hops; one round reaches none), so there is nothing
// best-effort to return.
func TestRankBudgetNothingCertifiableIs504(t *testing.T) {
	_, _, srv := newTestStack(t, cliutil.HTTPOptions{})
	resp, _ := postRank(t, srv, `{"query":["term:spatio"],"k":3,"method":"2sbound","epsilon":0,"type":"venue","budget":{"max_rounds":1}}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("/rank with an empty degraded result = %d, want 504", resp.StatusCode)
	}
}

// TestRankConvergedCertifiesFullPrefix pins the certificate on the happy
// path: an eps=0 converged ranking is exact by definition, so the wire
// response certifies every returned position.
func TestRankConvergedCertifiesFullPrefix(t *testing.T) {
	_, _, srv := newTestStack(t, cliutil.HTTPOptions{})
	resp, out := postRank(t, srv, `{"query":["term:spatio"],"k":3,"method":"2sbound","epsilon":0,"type":"venue"}`)
	if resp.StatusCode != http.StatusOK || !out.Converged {
		t.Fatalf("status=%d converged=%v, want a converged 200", resp.StatusCode, out.Converged)
	}
	if out.Degraded {
		t.Errorf("converged response marked degraded")
	}
	if out.CertifiedK != len(out.Results) {
		t.Errorf("converged eps=0 certified %d of %d positions", out.CertifiedK, len(out.Results))
	}
}

// TestDegradeMarginConvertsDeadline pins the deadline-aware degradation
// policy: with the margin armed and the request running under a deadline the
// margin exceeds, the handler converts the deadline into a soft budget and
// answers 200-with-degraded instead of racing into a 504. Without a request
// deadline the margin must stay inert.
func TestDegradeMarginConvertsDeadline(t *testing.T) {
	_, srv := newDegradeStack(t, time.Hour, cliutil.HTTPOptions{RequestTimeout: 30 * time.Second})
	resp, out := postRank(t, srv, `{"query":["term:spatio"],"k":3,"method":"2sbound","epsilon":0}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/rank status = %d, want 200 (deadline converted to a soft stop)", resp.StatusCode)
	}
	if !out.Degraded || out.Converged || len(out.Results) == 0 {
		t.Errorf("degraded=%v converged=%v results=%d, want a degraded partial result",
			out.Degraded, out.Converged, len(out.Results))
	}

	_, plain := newDegradeStack(t, time.Hour, cliutil.HTTPOptions{})
	resp, out = postRank(t, plain, `{"query":["term:spatio"],"k":3,"method":"2sbound","epsilon":0,"type":"venue"}`)
	if resp.StatusCode != http.StatusOK || !out.Converged || out.Degraded {
		t.Errorf("without a deadline the margin must stay inert: status=%d converged=%v degraded=%v",
			resp.StatusCode, out.Converged, out.Degraded)
	}
}

// TestApplyDegradeMargin unit-tests the policy edges the end-to-end paths
// cannot isolate: a client-supplied flush margin wins over the server's, and
// a zero margin disables the conversion entirely.
func TestApplyDegradeMargin(t *testing.T) {
	s := &Server{cfg: Config{DegradeMargin: 50 * time.Millisecond}}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Minute))
	defer cancel()

	req := roundtriprank.Request{}
	s.applyDegradeMargin(ctx, &req)
	if req.Budget == nil || req.Budget.FlushMargin != 50*time.Millisecond {
		t.Errorf("margin not applied under a deadline: %+v", req.Budget)
	}

	req = roundtriprank.Request{Budget: &roundtriprank.Budget{FlushMargin: time.Second}}
	s.applyDegradeMargin(ctx, &req)
	if req.Budget.FlushMargin != time.Second {
		t.Errorf("server margin overwrote the request's own flush margin: %v", req.Budget.FlushMargin)
	}

	req = roundtriprank.Request{}
	s.applyDegradeMargin(context.Background(), &req)
	if req.Budget != nil {
		t.Errorf("margin applied without a deadline: %+v", req.Budget)
	}

	off := &Server{}
	req = roundtriprank.Request{}
	off.applyDegradeMargin(ctx, &req)
	if req.Budget != nil {
		t.Errorf("zero margin must disable the conversion: %+v", req.Budget)
	}
}
