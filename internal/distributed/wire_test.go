package distributed

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/scratch"
	"roundtriprank/internal/testgraphs"
)

// wireGraph is an n-node graph with weighted edges (so CSR.Gather runs its
// weighted loop): i → i+1 at weight 1 and i → 7i+3 (mod n) at weight 2.
func wireGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	b.AddNodes(n, func(int) graph.Type { return graph.Untyped })
	for i := 0; i < n; i++ {
		next, jump := (i+1)%n, (i*7+3)%n
		if next != i {
			b.MustAddEdge(graph.NodeID(i), graph.NodeID(next), 1)
		}
		if jump != i && jump != next {
			b.MustAddEdge(graph.NodeID(i), graph.NodeID(jump), 2)
		}
	}
	return b.MustBuild()
}

// wireVector is an n-entry iteration vector distinct for every seed.
func wireVector(n, seed int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(1+(seed*n+i)%9973)
	}
	return x
}

// perCall runs call warm, then returns its allocations per run
// (testing.AllocsPerRun) and its bytes per run (runtime.MemStats). Like
// AllocsPerRun it runs on one P: a goroutine that moves to another P misses
// the buffer it left in the first one's sync.Pool slot.
func perCall(call func()) (allocs, size float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 20; i++ {
		call()
	}
	allocs = testing.AllocsPerRun(100, call)
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestMultiplyWireAllocs pins what a warm multiply RPC allocates, client and
// worker in one process: nothing but the partial vector Transport.Multiply
// returns (rows×8 bytes) beyond what net/http allocates to move the same
// bytes. That allowance is measured: the same exchange — a POST of the
// n-entry vector answered with a rows-entry one — between a bare client and
// handler that read into and write from buffers they keep. On go1.24 it is
// ~40 KiB a call on 4 096 nodes, 32 KiB of it the copy buffer net.TCPConn
// makes for every request body longer than the client's 4 KiB write buffer,
// and the protocol's own fixed costs add ~3.4 KiB. Before the wire buffers
// were pooled a call on 4 096 nodes allocated ~280 KiB, ~225 KiB beyond the
// partial and the allowance: a 64 KiB read scratch in the worker and five
// vector-sized buffers (the worker's x, dst and response, the client's
// request and its io.ReadAll growth).
func TestMultiplyWireAllocs(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	const n = 4096
	s, err := BuildStripe(wireGraph(t, n), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	x := wireVector(n, 1)
	partial := s.Rows() * 8

	in, reply := make([]byte, n*8), make([]byte, partial)
	bare := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		_, _ = io.ReadFull(r.Body, in)
		rw.Header().Set("Content-Length", strconv.Itoa(len(reply)))
		_, _ = rw.Write(reply)
	}))
	defer bare.Close()
	client := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	defer client.CloseIdleConnections()
	payload, out := AppendVector(nil, x), make([]byte, partial)
	bareAllocs, allowance := perCall(func() {
		resp, err := client.Post(bare.URL+"/v1/multiply?dir=in", "application/octet-stream", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.ReadFull(resp.Body, out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	})

	srv := httptest.NewServer(NewWorker(s).Handler())
	defer srv.Close()
	tr := NewHTTPTransport(srv.URL)
	defer tr.Close()
	allocs, size := perCall(func() {
		if _, err := tr.Multiply(ctx, graph.In, s.Graph, x); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d nodes: net/http allowance %.0f B (%.0f allocs) a call; Multiply %.0f B (%.0f allocs) a call, partial %d B",
		n, allowance, bareAllocs, size, allocs, partial)
	// 6 KiB of slack covers the protocol's own fixed costs (the per-RPC
	// timeout context, the write trace, query parsing and routing on the
	// worker); a second buffer of the partial's size (16 KiB) does not fit in
	// it.
	if limit := float64(partial) + allowance + 6<<10; size > limit {
		t.Errorf("a warm multiply round trip allocates %.0f B, want ≤ %.0f (the %d B partial + the %.0f B allowance + 6 KiB)",
			size, limit, partial, allowance)
	}
}

// TestMultiplyWireHandlerAllocs pins the worker's handler alone: a warm call
// allocates nothing proportional to the graph (its decoded x, gathered dst
// and encoded reply are pooled), so 16 384 nodes cost what 16 do, within
// 1 KiB, and at most 16 KiB: ~7.3 KiB a call, httptest's request and
// recorder included. Before
// pooling a call cost 72 KiB on 16 nodes (the 64 KiB read scratch) and
// 327 KiB on 16 384.
func TestMultiplyWireHandlerAllocs(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	serve := func(n int) (allocs, size float64) {
		s, err := BuildStripe(wireGraph(t, n), 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		h := NewWorker(s).Handler()
		payload := AppendVector(nil, wireVector(n, 2))
		reply := bytes.NewBuffer(make([]byte, 0, n*8))
		return perCall(func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/multiply?dir=out", bytes.NewReader(payload))
			rec := httptest.NewRecorder()
			reply.Reset()
			rec.Body = reply
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK || reply.Len() != s.Rows()*8 {
				t.Fatalf("multiply answered %d with %d bytes", rec.Code, reply.Len())
			}
		})
	}
	tinyAllocs, tinyBytes := serve(16)
	allocs, size := serve(1 << 14)
	t.Logf("16 nodes: %.0f allocs, %.0f B a call; 16384 nodes: %.0f allocs, %.0f B a call", tinyAllocs, tinyBytes, allocs, size)
	if tinyBytes > 16<<10 {
		t.Errorf("the multiply handler allocates %.0f B a call on 16 nodes, want ≤ 16 KiB", tinyBytes)
	}
	if size > tinyBytes+1024 || allocs > tinyAllocs+1 {
		t.Errorf("the multiply handler allocates %.0f B (%.0f allocs) a call on 16384 nodes and %.0f B (%.0f) on 16: it allocates per node",
			size, allocs, tinyBytes, tinyAllocs)
	}
}

// TestMultiplyWireBuffersDoNotAlias races many multiply calls with distinct
// vectors through one transport to one worker: each result must equal the
// stripe's own CSR.Gather bit for bit, so no pooled buffer is shared by two
// calls at once. Every fourth call addresses a stripe the worker does not
// serve, which it refuses with 409 before reading the body.
func TestMultiplyWireBuffersDoNotAlias(t *testing.T) {
	const n = 4096
	s, err := BuildStripe(wireGraph(t, n), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewWorker(s).Handler())
	defer srv.Close()
	tr := NewHTTPTransport(srv.URL)
	defer tr.Close()
	absent := tr.ForStripe(7)
	ctx := context.Background()
	const callers, calls = 8, 24
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < calls; k++ {
				if k%4 == 3 {
					if _, err := absent.Multiply(ctx, graph.In, s.Graph, wireVector(n, c)); err == nil {
						t.Errorf("caller %d: a multiply on an absent stripe succeeded", c)
					}
					continue
				}
				x := wireVector(n, c*calls+k)
				dir, rows := graph.In, s.In
				if k%2 == 1 {
					dir, rows = graph.Out, s.Out
				}
				got, err := tr.Multiply(ctx, dir, s.Graph, x)
				if err != nil {
					t.Errorf("caller %d call %d: %v", c, k, err)
					return
				}
				want := make([]float64, s.Rows())
				rows.Gather(x, want, nil, 0, len(want))
				if len(got) != len(want) {
					t.Errorf("caller %d call %d: %d entries, want %d", c, k, len(got), len(want))
					return
				}
				for r := range want {
					if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
						t.Errorf("caller %d call %d: row %d = %v, want %v", c, k, r, got[r], want[r])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// stallingRoundTripper answers every request 409 at once and reads its body
// only when told to, after RoundTrip has returned — which the
// http.RoundTripper contract allows, and what net/http's own transport does
// when a worker answers before reading the body.
type stallingRoundTripper struct {
	read chan struct{} // closed to let the bodies be read
	got  chan<- []byte // each body, once read
}

func (rt *stallingRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	go func() {
		<-rt.read
		var b bytes.Buffer
		_, _ = b.ReadFrom(req.Body)
		req.Body.Close()
		rt.got <- b.Bytes()
	}()
	return &http.Response{
		Status:     "409 Conflict",
		StatusCode: http.StatusConflict,
		Body:       io.NopCloser(strings.NewReader(`{"error":"stalled"}`)),
		Request:    req,
	}, nil
}

// scribble takes n-entry buffers from bytePool and overwrites them, as a
// concurrent call would.
func scribble(n int) {
	for j := 0; j < 4; j++ {
		b := vectorBytes(n)
		for k := range *b {
			(*b)[k] = 0xff
		}
	}
}

// TestMultiplyWireKeepsRequestUntilWritten holds the request buffer's one
// hazard: a reply can arrive while the transport is still writing the
// request, so the buffer must stay out of the pool until the transport is
// done with the body, not go back when Multiply returns. Over the network the
// transport here reads each body only after Multiply has returned and the
// test has taken buffers from the pool and overwritten them; in-process the
// handler takes and overwrites them before it reads the body. Either way the
// body must still be x.
func TestMultiplyWireKeepsRequestUntilWritten(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, calls = 4096, 3
	for _, tc := range []struct {
		name string
		// transport returns the round tripper under test, which sends each
		// body it reads to got, and what lets it read the bodies it holds.
		transport func(got chan<- []byte) (rt http.RoundTripper, release func())
	}{
		{"network", func(got chan<- []byte) (http.RoundTripper, func()) {
			rt := &stallingRoundTripper{read: make(chan struct{}), got: got}
			return rt, func() { close(rt.read) }
		}},
		{"in-process", func(got chan<- []byte) (http.RoundTripper, func()) {
			return inProcess{http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				scribble(n)
				var b bytes.Buffer
				_, _ = b.ReadFrom(r.Body)
				got <- b.Bytes()
				workerError(rw, http.StatusConflict, "stalled")
			})}, func() {}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := make(chan []byte, calls)
			rt, release := tc.transport(got)
			tr := NewHTTPTransport("http://worker.invalid")
			tr.client = &http.Client{Transport: rt}
			var want [][]byte
			for i := 0; i < calls; i++ {
				x := wireVector(n, i)
				if _, err := tr.Multiply(context.Background(), graph.In, 0, x); err == nil || !strings.Contains(err.Error(), "stalled") {
					t.Fatalf("Multiply = %v, want the stalled 409", err)
				}
				want = append(want, AppendVector(nil, x))
				scribble(n)
			}
			release()
			for range want {
				body := <-got
				if !slices.ContainsFunc(want, func(w []byte) bool { return bytes.Equal(w, body) }) {
					t.Errorf("a request body was overwritten before the transport read it")
				}
			}
		})
	}
}

// wireBits is an RPC result in its wire encoding, so that two results compare
// bit for bit.
func wireBits(t *testing.T, v any) []byte {
	t.Helper()
	switch v := v.(type) {
	case nil:
		return nil
	case WorkerInfo:
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	case []float64:
		return AppendVector(nil, v)
	case []int32:
		var b []byte
		for _, d := range v {
			b = binary.LittleEndian.AppendUint32(b, uint32(d))
		}
		return b
	case RowBatch:
		return appendRowBatch(nil, v)
	}
	t.Fatalf("no wire encoding for %T", v)
	return nil
}

// TestInProcessMatchesNetwork holds NewLoopback to the network: every RPC and
// every refusal, run in turn against an in-process transport and an
// HTTPTransport on an httptest server, each over its own worker cut from the
// same stripe, answers bit for bit alike and fails alike — the same message
// from the worker, the same IsTransient.
func TestInProcessMatchesNetwork(t *testing.T) {
	g := wireGraph(t, 64)
	s, err := BuildStripe(g, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// next is stripe 1 of another graph on as many nodes, which send installs
	// over s: a multiply pinned to s's graph is then refused by its pin.
	next, err := BuildStripe(testgraphs.Cycle(g.NumNodes()), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	inproc := NewLoopback(NewWorker(s))
	srv := httptest.NewServer(NewWorker(s).Handler())
	defer srv.Close()
	network := NewHTTPTransport(srv.URL)
	defer network.Close()

	x := wireVector(g.NumNodes(), 5)
	var owned []graph.NodeID
	for v := 1; v < g.NumNodes(); v += 2 {
		owned = append(owned, graph.NodeID(v))
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := context.Background()
	for _, step := range []struct {
		name    string
		refused bool
		rpc     func(tr *HTTPTransport) (any, error)
	}{
		{"info", false, func(tr *HTTPTransport) (any, error) { return tr.Info(ctx) }},
		{"outsums", false, func(tr *HTTPTransport) (any, error) { return tr.OutSums(ctx) }},
		{"outdegrees", false, func(tr *HTTPTransport) (any, error) { return tr.OutDegrees(ctx) }},
		{"multiply in", false, func(tr *HTTPTransport) (any, error) { return tr.Multiply(ctx, graph.In, s.Graph, x) }},
		{"multiply out", false, func(tr *HTTPTransport) (any, error) { return tr.Multiply(ctx, graph.Out, s.Graph, x) }},
		{"fetch rows", false, func(tr *HTTPTransport) (any, error) { return tr.FetchRows(ctx, s.Graph, owned) }},
		{"unknown stripe", true, func(tr *HTTPTransport) (any, error) { return tr.ForStripe(7).Info(ctx) }},
		{"unknown stripe rows", true, func(tr *HTTPTransport) (any, error) { return tr.ForStripe(7).FetchRows(ctx, s.Graph, owned) }},
		{"retag content mismatch", true, func(tr *HTTPTransport) (any, error) {
			return nil, tr.RetagStripe(ctx, s.Graph+1, s.Epoch+1, s.ContentFingerprint()+1)
		}},
		{"cancelled context", true, func(tr *HTTPTransport) (any, error) { return tr.Multiply(cancelled, graph.In, s.Graph, x) }},
		{"send", false, func(tr *HTTPTransport) (any, error) { return nil, tr.SendStripe(ctx, next) }},
		{"info after send", false, func(tr *HTTPTransport) (any, error) { return tr.Info(ctx) }},
		{"replaced stripe multiply", true, func(tr *HTTPTransport) (any, error) { return tr.Multiply(ctx, graph.In, s.Graph, x) }},
		{"replaced stripe rows", true, func(tr *HTTPTransport) (any, error) { return tr.FetchRows(ctx, s.Graph, owned) }},
		{"retag", false, func(tr *HTTPTransport) (any, error) {
			return nil, tr.RetagStripe(ctx, next.Graph+1, next.Epoch+1, next.ContentFingerprint())
		}},
		{"info after retag", false, func(tr *HTTPTransport) (any, error) { return tr.Info(ctx) }},
		{"remove", false, func(tr *HTTPTransport) (any, error) { return nil, tr.ForStripe(1).RemoveStripe(ctx) }},
		{"remove again", true, func(tr *HTTPTransport) (any, error) { return nil, tr.ForStripe(1).RemoveStripe(ctx) }},
		{"info when empty", true, func(tr *HTTPTransport) (any, error) { return tr.Info(ctx) }},
	} {
		got, gotErr := step.rpc(inproc)
		want, wantErr := step.rpc(network)
		if (gotErr != nil) != step.refused || (wantErr != nil) != step.refused {
			t.Fatalf("%s: in-process err %v, network err %v; want refused=%v", step.name, gotErr, wantErr, step.refused)
		}
		if step.refused {
			gotMsg := strings.ReplaceAll(gotErr.Error(), inproc.base, "")
			wantMsg := strings.ReplaceAll(wantErr.Error(), network.base, "")
			if gotMsg != wantMsg || IsTransient(gotErr) != IsTransient(wantErr) {
				t.Errorf("%s: in-process refused with %q (transient %v), network with %q (transient %v)",
					step.name, gotMsg, IsTransient(gotErr), wantMsg, IsTransient(wantErr))
			}
			continue
		}
		if !bytes.Equal(wireBits(t, got), wireBits(t, want)) {
			t.Errorf("%s: in-process answered %+v, network %+v", step.name, got, want)
		}
	}
}

// TestWireConnectionReuse holds the client's connection pool: once warm, 50
// rounds of 8 concurrent multiply calls to one worker dial at most 8 more
// connections (http.DefaultTransport, which keeps 2 idle a host, dialed
// ~300).
func TestWireConnectionReuse(t *testing.T) {
	g := wireGraph(t, 64)
	s, err := BuildStripe(g, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var opened atomic.Int64
	srv := httptest.NewUnstartedServer(NewWorker(s).Handler())
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	tr := NewHTTPTransport(srv.URL)
	defer tr.Close()
	x := wireVector(g.NumNodes(), 3)
	const concurrency = 8
	round := func() {
		var wg sync.WaitGroup
		for i := 0; i < concurrency; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := tr.Multiply(context.Background(), graph.Out, s.Graph, x); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	round()
	warm := opened.Load()
	for r := 0; r < 50; r++ {
		round()
	}
	if dialed := opened.Load() - warm; dialed > concurrency {
		t.Errorf("50 rounds of %d concurrent calls dialed %d connections after warm-up (%d in it), want ≤ %d",
			concurrency, dialed, warm, concurrency)
	}
}

// TestMultiplyRejectsMalformedReply: a stripe never owns more rows than the
// request vector has entries, so a reply longer than the request, or one
// that does not say its length, fails the call before its body is read — as
// a protocol violation naming the worker, which the fleet does not retry.
func TestMultiplyRejectsMalformedReply(t *testing.T) {
	g := wireGraph(t, 32)
	for _, tc := range []struct {
		name, want string
		reply      func(rw http.ResponseWriter, x []byte)
	}{
		{"one float past the request", "longer than the 32-entry request", func(rw http.ResponseWriter, x []byte) {
			workerBinary(rw, AppendVector(x, []float64{1}))
		}},
		{"no Content-Length", "no Content-Length", func(rw http.ResponseWriter, x []byte) {
			rw.Header().Set("Content-Type", "application/octet-stream")
			_, _ = rw.Write(x[:8])
			rw.(http.Flusher).Flush()
			_, _ = rw.Write(x[8:16])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httpWorkers(t, g, 2, func(i int, h http.Handler) http.Handler {
				if i != 1 {
					return h
				}
				return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
					if r.URL.Path != "/v1/multiply" {
						h.ServeHTTP(rw, r)
						return
					}
					var x bytes.Buffer
					_, _ = x.ReadFrom(r.Body)
					tc.reply(rw, x.Bytes())
				})
			})
			ctx := context.Background()
			f, err := Connect(ctx, ts, &RetryPolicy{Retries: 3, Backoff: time.Millisecond})
			if err != nil {
				t.Fatalf("Connect: %v", err)
			}
			x := wireVector(g.NumNodes(), 4)
			err = f.Gather(ctx, graph.In, x, make([]float64, g.NumNodes()), nil)
			if err == nil || IsTransient(err) || !strings.Contains(err.Error(), "worker 1") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Gather = %v, want a non-transient error naming worker 1 and saying %q", err, tc.want)
			}
			if _, retries := f.Stats(); retries != 0 {
				t.Errorf("the fleet retried a malformed reply %d times", retries)
			}
		})
	}
}

// TestDirWireSpelling pins the dir parameter of /v1/multiply: graph.Dir's
// String is the wire spelling, and the handler's parser reads exactly
// "in" and "out" back and rejects everything else.
func TestDirWireSpelling(t *testing.T) {
	for dir, want := range map[graph.Dir]string{graph.In: "in", graph.Out: "out"} {
		if got := dir.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", uint8(dir), got, want)
		}
		if got, err := parseDir(dir.String()); err != nil || got != dir {
			t.Errorf("parseDir(%q) = %v, %v; want %d", dir.String(), got, err, uint8(dir))
		}
	}
	for _, bad := range []string{"", "IN", "Out", "sideways", "in ", "0", "1"} {
		if got, err := parseDir(bad); err == nil {
			t.Errorf("parseDir(%q) = %v, want an error", bad, got)
		}
	}
}
