package distributed

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/testgraphs"
	"roundtriprank/internal/walk"
)

// loopbackTransports stripes g across n in-process workers.
func loopbackTransports(t testing.TB, g *graph.Graph, n int) []Transport {
	t.Helper()
	ts := make([]Transport, n)
	for i := 0; i < n; i++ {
		s, err := BuildStripe(g, i, n)
		if err != nil {
			t.Fatalf("BuildStripe(%d,%d): %v", i, n, err)
		}
		ts[i] = NewLoopback(NewWorker(s))
	}
	return ts
}

// httpWorkers stripes g across n httptest servers speaking the worker wire
// protocol, optionally wrapping each handler.
func httpWorkers(t testing.TB, g *graph.Graph, n int, wrap func(i int, h http.Handler) http.Handler) []Transport {
	t.Helper()
	ts := make([]Transport, n)
	for i := 0; i < n; i++ {
		s, err := BuildStripe(g, i, n)
		if err != nil {
			t.Fatalf("BuildStripe(%d,%d): %v", i, n, err)
		}
		h := NewWorker(s).Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		tr := NewHTTPTransport(srv.URL)
		t.Cleanup(func() { tr.Close() })
		ts[i] = tr
	}
	return ts
}

func coordGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"toy":   testgraphs.NewToy().Graph,
		"line":  testgraphs.Line(9), // has a dangling tail node
		"cycle": testgraphs.Cycle(12),
		"star":  testgraphs.Star(7),
	}
}

// TestCoordinatorBitIdenticalToLocal is the core guarantee of the subsystem:
// distributed F-Rank and T-Rank equal the local kernel output bit for bit,
// for every worker count and over both transports.
func TestCoordinatorBitIdenticalToLocal(t *testing.T) {
	ctx := context.Background()
	p := walk.DefaultParams()
	for name, g := range coordGraphs() {
		for _, workers := range []int{1, 2, 3, 5} {
			for _, mode := range []string{"loopback", "http"} {
				t.Run(name+"/"+mode+"/w"+string(rune('0'+workers)), func(t *testing.T) {
					var ts []Transport
					if mode == "loopback" {
						ts = loopbackTransports(t, g, workers)
					} else {
						if workers > 2 { // keep the HTTP matrix small
							t.Skip("http parity covered at 1-2 workers")
						}
						ts = httpWorkers(t, g, workers, nil)
					}
					c, err := Connect(ctx, ts, nil)
					if err != nil {
						t.Fatalf("Connect: %v", err)
					}
					q := walk.SingleNode(graph.NodeID(g.NumNodes() / 2))
					wantF, err := walk.FRank(ctx, g, q, p)
					if err != nil {
						t.Fatalf("local FRank: %v", err)
					}
					gotF, _, err := walk.FRankOver(ctx, c, q, p)
					if err != nil {
						t.Fatalf("distributed FRank: %v", err)
					}
					wantT, err := walk.TRank(ctx, g, q, p)
					if err != nil {
						t.Fatalf("local TRank: %v", err)
					}
					gotT, _, err := walk.TRankOver(ctx, c, q, p)
					if err != nil {
						t.Fatalf("distributed TRank: %v", err)
					}
					for v := range wantF {
						if gotF[v] != wantF[v] {
							t.Fatalf("F-Rank differs at node %d: %g != %g", v, gotF[v], wantF[v])
						}
						if gotT[v] != wantT[v] {
							t.Fatalf("T-Rank differs at node %d: %g != %g", v, gotT[v], wantT[v])
						}
					}
				})
			}
		}
	}
}

// flakyHandler fails the first `failures` multiply calls with 503, then
// delegates. Multiply is idempotent, so the coordinator must absorb this.
type flakyHandler struct {
	inner    http.Handler
	failures int32
	failed   atomic.Int32
}

func (f *flakyHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/multiply") && f.failed.Add(1) <= f.failures {
		http.Error(rw, `{"error":"transient overload"}`, http.StatusServiceUnavailable)
		return
	}
	f.inner.ServeHTTP(rw, r)
}

func TestCoordinatorRetriesTransientWorkerFailure(t *testing.T) {
	g := testgraphs.NewToy().Graph
	var flaky *flakyHandler
	ts := httpWorkers(t, g, 2, func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		flaky = &flakyHandler{inner: h, failures: 2}
		return flaky
	})
	ctx := context.Background()
	c, err := Connect(ctx, ts, &RetryPolicy{Retries: 3, Backoff: time.Millisecond})
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}

	q := walk.SingleNode(0)
	got, _, err := walk.FRankOver(ctx, c, q, walk.DefaultParams())
	if err != nil {
		t.Fatalf("FRank through a flaky worker: %v", err)
	}
	want, err := walk.FRank(ctx, g, q, walk.DefaultParams())
	if err != nil {
		t.Fatalf("local FRank: %v", err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("retried solve differs at node %d", v)
		}
	}
	if _, retries := c.Stats(); retries < 2 {
		t.Errorf("expected at least 2 retries, got %d", retries)
	}
}

func TestCoordinatorFailsOnPersistentWorkerError(t *testing.T) {
	g := testgraphs.NewToy().Graph
	ts := httpWorkers(t, g, 2, func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		return &flakyHandler{inner: h, failures: 1 << 30} // never recovers
	})
	ctx := context.Background()
	c, err := Connect(ctx, ts, &RetryPolicy{Retries: 1, Backoff: time.Millisecond})
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	_, _, err = walk.FRankOver(ctx, c, walk.SingleNode(0), walk.DefaultParams())
	if err == nil {
		t.Fatalf("FRank through a dead worker succeeded")
	}
	if !strings.Contains(err.Error(), "worker 1") {
		t.Errorf("error does not identify the failing worker: %v", err)
	}
}

// TestConnectionFailureIsTransient pins the classification of
// connection-level failures: a worker that is down (connection refused) must
// yield a retryable error, while caller cancellation must not.
func TestConnectionFailureIsTransient(t *testing.T) {
	tr := NewHTTPTransport("http://127.0.0.1:1") // nothing listens here
	_, err := tr.Multiply(context.Background(), DirIn, 0, []float64{1})
	if err == nil {
		t.Fatalf("Multiply against a closed port succeeded")
	}
	if !IsTransient(err) {
		t.Fatalf("connection refused not classified transient: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = tr.Multiply(ctx, DirIn, 0, []float64{1})
	if err == nil || IsTransient(err) {
		t.Fatalf("caller cancellation classified transient: %v", err)
	}
}

// TestCoordinatorBlamesDeadWorker pins the root-cause error: when one worker
// dies mid-query, the error must identify it, not a sibling whose call was
// merely cancelled by the fan-out.
func TestCoordinatorBlamesDeadWorker(t *testing.T) {
	g := testgraphs.Cycle(20)
	var srv1 *httptest.Server
	ts := make([]Transport, 2)
	for i := 0; i < 2; i++ {
		s, err := BuildStripe(g, i, 2)
		if err != nil {
			t.Fatalf("BuildStripe: %v", err)
		}
		srv := httptest.NewServer(NewWorker(s).Handler())
		t.Cleanup(srv.Close)
		if i == 1 {
			srv1 = srv
		}
		ts[i] = NewHTTPTransport(srv.URL)
	}
	ctx := context.Background()
	c, err := Connect(ctx, ts, &RetryPolicy{Retries: 1, Backoff: time.Millisecond})
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	srv1.Close() // worker 1 goes down before the query

	_, _, err = walk.FRankOver(ctx, c, walk.SingleNode(0), walk.DefaultParams())
	if err == nil {
		t.Fatalf("FRank with a dead worker succeeded")
	}
	if !strings.Contains(err.Error(), "worker 1") {
		t.Errorf("error blames the wrong worker: %v", err)
	}
	if strings.Contains(err.Error(), "context canceled") {
		t.Errorf("error reports the sibling cancellation, not the root cause: %v", err)
	}
	if _, retries := c.Stats(); retries < 1 {
		t.Errorf("dead-worker calls were not retried (retries=%d)", retries)
	}
}

func TestCoordinatorRejectsBadTopology(t *testing.T) {
	g := testgraphs.NewToy().Graph
	ctx := context.Background()

	// Stripes installed in the wrong order.
	ts := loopbackTransports(t, g, 2)
	if _, err := Connect(ctx, []Transport{ts[1], ts[0]}, nil); err == nil {
		t.Errorf("swapped stripes accepted")
	}

	// Worker from a different partition arity.
	s0of3, err := BuildStripe(g, 0, 3)
	if err != nil {
		t.Fatalf("BuildStripe: %v", err)
	}
	ts = loopbackTransports(t, g, 2)
	if _, err := Connect(ctx, []Transport{NewLoopback(NewWorker(s0of3)), ts[1]}, nil); err == nil {
		t.Errorf("mixed stripe counts accepted")
	}

	// Worker with a different graph (different node count).
	other := testgraphs.Cycle(30)
	s0, err := BuildStripe(other, 0, 2)
	if err != nil {
		t.Fatalf("BuildStripe: %v", err)
	}
	ts = loopbackTransports(t, g, 2)
	if _, err := Connect(ctx, []Transport{NewLoopback(NewWorker(s0)), ts[1]}, nil); err == nil {
		t.Errorf("mismatched node counts accepted")
	}

	// Worker with a different graph of the SAME node count: only the graph
	// fingerprint can tell them apart, and silently mixing them would return
	// wrong rankings.
	sameSize := testgraphs.Cycle(g.NumNodes())
	s0, err = BuildStripe(sameSize, 0, 2)
	if err != nil {
		t.Fatalf("BuildStripe: %v", err)
	}
	ts = loopbackTransports(t, g, 2)
	_, err = Connect(ctx, []Transport{NewLoopback(NewWorker(s0)), ts[1]}, nil)
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("same-sized different graph accepted (err=%v)", err)
	}

	// Worker advertising a forged row count: the merge loops index global
	// vectors by i + r*count, so this must be rejected, not trusted.
	ts = loopbackTransports(t, g, 2)
	if _, err := Connect(ctx, []Transport{ts[0], &forgedRows{Transport: ts[1], rows: g.NumNodes() * 3}}, nil); err == nil {
		t.Errorf("forged row count accepted")
	}

	// Empty worker.
	if _, err := Connect(ctx, []Transport{NewLoopback(NewWorker(nil))}, nil); err == nil {
		t.Errorf("empty worker accepted")
	}
	if _, err := Connect(ctx, nil, nil); err == nil {
		t.Errorf("zero workers accepted")
	}
}

// TestMultiplyRejectsReplacedStripe pins the mid-lifetime graph-identity
// guarantee: after a coordinator connects, installing a stripe from a
// different graph on a worker must fail subsequent queries loudly instead of
// silently mixing graphs.
func TestMultiplyRejectsReplacedStripe(t *testing.T) {
	g := testgraphs.Cycle(12)
	workers := make([]*Worker, 2)
	ts := make([]Transport, 2)
	for i := 0; i < 2; i++ {
		s, err := BuildStripe(g, i, 2)
		if err != nil {
			t.Fatalf("BuildStripe: %v", err)
		}
		workers[i] = NewWorker(s)
		srv := httptest.NewServer(workers[i].Handler())
		t.Cleanup(srv.Close)
		ts[i] = NewHTTPTransport(srv.URL)
	}
	ctx := context.Background()
	c, err := Connect(ctx, ts, &RetryPolicy{Retries: 1, Backoff: time.Millisecond})
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if _, _, err := walk.FRankOver(ctx, c, walk.SingleNode(0), walk.DefaultParams()); err != nil {
		t.Fatalf("FRank before replacement: %v", err)
	}

	// Same node count, same striping, different adjacency: only the pinned
	// fingerprint can catch this.
	other := testgraphs.Star(g.NumNodes() - 1)
	s1, err := BuildStripe(other, 1, 2)
	if err != nil {
		t.Fatalf("BuildStripe: %v", err)
	}
	workers[1].SetStripe(s1)

	_, _, err = walk.FRankOver(ctx, c, walk.SingleNode(0), walk.DefaultParams())
	if err == nil {
		t.Fatalf("FRank through a replaced stripe succeeded")
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("replacement not reported as a fingerprint mismatch: %v", err)
	}
	if IsTransient(err) {
		t.Errorf("stripe replacement classified transient (would be retried forever): %v", err)
	}
}

// forgedRows wraps a Transport and lies about the owned row count.
type forgedRows struct {
	Transport
	rows int
}

func (f *forgedRows) Info(ctx context.Context) (WorkerInfo, error) {
	info, err := f.Transport.Info(ctx)
	info.Rows = f.rows
	return info, err
}

func TestCoordinatorHonorsCancellation(t *testing.T) {
	g := testgraphs.Cycle(50)
	ts := loopbackTransports(t, g, 2)
	c, err := Connect(context.Background(), ts, nil)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := walk.FRankOver(ctx, c, walk.SingleNode(0), walk.DefaultParams()); err == nil {
		t.Errorf("FRank with a cancelled context succeeded")
	}
}

// TestWorkerReceivesStripeOverHTTP exercises the empty-worker deployment
// mode: a worker starts with no stripe, the coordinator-side transport ships
// one, and the worker then serves it.
func TestWorkerReceivesStripeOverHTTP(t *testing.T) {
	g := testgraphs.NewToy().Graph
	srv := httptest.NewServer(NewWorker(nil).Handler())
	defer srv.Close()
	tr := NewHTTPTransport(srv.URL)
	defer tr.Close()
	ctx := context.Background()

	// Empty worker: info must fail with a non-transient error.
	if _, err := tr.Info(ctx); err == nil || IsTransient(err) {
		t.Fatalf("Info on an empty worker: got err=%v, want permanent error", err)
	}

	s, err := BuildStripe(g, 0, 1)
	if err != nil {
		t.Fatalf("BuildStripe: %v", err)
	}
	if err := tr.SendStripe(ctx, s); err != nil {
		t.Fatalf("SendStripe: %v", err)
	}
	info, err := tr.Info(ctx)
	if err != nil {
		t.Fatalf("Info after install: %v", err)
	}
	if info.NumNodes != g.NumNodes() || info.Rows != g.NumNodes() || info.Protocol != ProtocolVersion {
		t.Errorf("unexpected info after install: %+v", info)
	}

	c, err := Connect(ctx, []Transport{tr}, nil)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	q := walk.SingleNode(0)
	got, _, err := walk.FRankOver(ctx, c, q, walk.DefaultParams())
	if err != nil {
		t.Fatalf("FRank: %v", err)
	}
	want, err := walk.FRank(ctx, g, q, walk.DefaultParams())
	if err != nil {
		t.Fatalf("local FRank: %v", err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("shipped-stripe solve differs at node %d", v)
		}
	}
}

// TestWorkerHTTPProtocolErrors pins the wire protocol's failure modes.
func TestWorkerHTTPProtocolErrors(t *testing.T) {
	g := testgraphs.NewToy().Graph
	s, err := BuildStripe(g, 0, 2)
	if err != nil {
		t.Fatalf("BuildStripe: %v", err)
	}
	srv := httptest.NewServer(NewWorker(s).Handler())
	defer srv.Close()

	get := func(path string) *http.Response {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz: %s", resp.Status)
	}
	if resp := get("/v1/info"); resp.StatusCode != http.StatusOK {
		t.Errorf("/v1/info: %s", resp.Status)
	}

	// Wrong vector length must be a 400, not a 5xx (it is not retryable).
	short := AppendVector(nil, make([]float64, 3))
	resp, err := http.Post(srv.URL+"/v1/multiply?dir=in", "application/octet-stream", strings.NewReader(string(short)))
	if err != nil {
		t.Fatalf("POST multiply: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("short multiply body: got %s, want 400", resp.Status)
	}

	// Unknown direction.
	full := AppendVector(nil, make([]float64, g.NumNodes()))
	resp, err = http.Post(srv.URL+"/v1/multiply?dir=sideways", "application/octet-stream", strings.NewReader(string(full)))
	if err != nil {
		t.Fatalf("POST multiply: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad direction: got %s, want 400", resp.Status)
	}

	// Corrupt stripe upload.
	resp, err = http.Post(srv.URL+"/v1/stripe", "application/octet-stream", strings.NewReader("not a stripe"))
	if err != nil {
		t.Fatalf("POST stripe: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt stripe: got %s, want 400", resp.Status)
	}
}

func TestStripeCodecThroughDistributed(t *testing.T) {
	g := testgraphs.NewToy().Graph
	s, err := BuildStripe(g, 1, 3)
	if err != nil {
		t.Fatalf("BuildStripe: %v", err)
	}
	var buf strings.Builder
	if err := s.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeStripe(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("DecodeStripe: %v", err)
	}
	if got.Index != s.Index || got.Count != s.Count || got.NumNodes != s.NumNodes || got.Rows() != s.Rows() {
		t.Errorf("stripe header changed across the codec")
	}
	x := make([]float64, g.NumNodes())
	for i := range x {
		x[i] = float64(i + 1)
	}
	a := make([]float64, s.Rows())
	b := make([]float64, s.Rows())
	if err := s.MultiplyIn(x, a); err != nil {
		t.Fatalf("MultiplyIn: %v", err)
	}
	if err := got.MultiplyIn(x, b); err != nil {
		t.Fatalf("decoded MultiplyIn: %v", err)
	}
	for r := range a {
		if a[r] != b[r] {
			t.Errorf("decoded stripe multiplies differently at row %d", r)
		}
	}
}
