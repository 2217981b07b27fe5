package distributed

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"roundtriprank/internal/testgraphs"
)

// TestHTTPStatusClassification pins the retry taxonomy of the wire layer:
// 5xx responses mean "the worker is unwell, try again" and classify
// transient, while 4xx responses mean "this request is wrong" (bad stripe
// selector, fingerprint conflict, malformed body) — retrying those would
// just repeat the mistake, so they classify permanent.
func TestHTTPStatusClassification(t *testing.T) {
	cases := []struct {
		status    int
		transient bool
	}{
		{http.StatusInternalServerError, true}, // 500: worker bug or dying
		{http.StatusBadGateway, true},          // 502: proxy lost the worker
		{http.StatusServiceUnavailable, true},  // 503: shedding or draining
		{http.StatusGatewayTimeout, true},      // 504: worker too slow
		{http.StatusBadRequest, false},         // 400: protocol violation
		{http.StatusNotFound, false},           // 404: no such stripe/route
		{http.StatusConflict, false},           // 409: fingerprint mismatch
		{http.StatusGone, false},               // 410: stripe removed
	}
	for _, tc := range cases {
		t.Run(http.StatusText(tc.status), func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				http.Error(w, `{"error":"synthetic"}`, tc.status)
			}))
			defer srv.Close()
			tr := NewHTTPTransport(srv.URL)
			defer tr.Close()
			_, err := tr.Info(context.Background())
			if err == nil {
				t.Fatalf("HTTP %d produced no error", tc.status)
			}
			if got := IsTransient(err); got != tc.transient {
				t.Errorf("HTTP %d: IsTransient = %v, want %v (err: %v)", tc.status, got, tc.transient, err)
			}
		})
	}
}

// TestNetErrorClassification pins the network-level half of the taxonomy:
// failures to reach the worker at all (connection refused, per-RPC timeout)
// are transient — the replica/retry machinery exists precisely for them —
// while a caller-initiated cancellation is not, because retrying a call the
// caller abandoned wastes a replica's time.
func TestNetErrorClassification(t *testing.T) {
	ctx := context.Background()

	t.Run("connection refused", func(t *testing.T) {
		// Grab a loopback port and close it again: dialing it now refuses.
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		addr := lis.Addr().String()
		lis.Close()
		tr := NewHTTPTransport("http://" + addr)
		defer tr.Close()
		_, err = tr.Info(ctx)
		if err == nil {
			t.Skip("something answered on the recycled port")
		}
		if !IsTransient(err) {
			t.Errorf("connection refused classified permanent: %v", err)
		}
	})

	t.Run("per-RPC timeout", func(t *testing.T) {
		release := make(chan struct{})
		defer close(release)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-release:
			case <-r.Context().Done():
			}
		}))
		defer srv.Close()
		tr := NewHTTPTransport(srv.URL)
		defer tr.Close()
		// A deadline earlier than DefaultHTTPTimeout bounds the RPC in its
		// place, and expires the same way.
		dctx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
		defer cancel()
		_, err := tr.Info(dctx)
		if err == nil {
			t.Fatalf("timed-out call succeeded")
		}
		if !IsTransient(err) {
			t.Errorf("per-RPC timeout classified permanent: %v", err)
		}
	})

	t.Run("caller cancellation", func(t *testing.T) {
		started := make(chan struct{}, 1)
		release := make(chan struct{})
		defer close(release)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			started <- struct{}{}
			select {
			case <-release:
			case <-r.Context().Done():
			}
		}))
		defer srv.Close()
		tr := NewHTTPTransport(srv.URL)
		defer tr.Close()
		cctx, cancel := context.WithCancel(ctx)
		go func() {
			<-started
			cancel()
		}()
		_, err := tr.Info(cctx)
		if err == nil {
			t.Fatalf("cancelled call succeeded")
		}
		if IsTransient(err) {
			t.Errorf("caller cancellation classified transient: %v", err)
		}
	})
}

// failNTransport fails every gated call with a transient error until its
// counter runs out, then delegates to the inner transport.
type failNTransport struct {
	Transport
	remaining atomic.Int64
}

func (f *failNTransport) Info(ctx context.Context) (WorkerInfo, error) {
	if f.remaining.Add(-1) >= 0 {
		return WorkerInfo{}, &TransientError{Err: errors.New("synthetic transient")}
	}
	return f.Transport.Info(ctx)
}

// TestRetryBackoffRecovers pins the coordinator's retry policy end to end: a
// worker that fails transiently fewer times than the retry budget is retried
// through and the connect succeeds; one that exhausts the budget fails with
// the last transient error.
func TestRetryBackoffRecovers(t *testing.T) {
	g := testgraphs.Cycle(12)
	ctx := context.Background()
	mk := func(fails int64) []Transport {
		s, err := BuildStripe(g, 0, 1)
		if err != nil {
			t.Fatalf("BuildStripe: %v", err)
		}
		f := &failNTransport{Transport: NewLoopback(NewWorker(s))}
		f.remaining.Store(fails)
		return []Transport{f}
	}

	opts := &RetryPolicy{Retries: 2, Backoff: time.Millisecond}
	if _, err := Connect(ctx, mk(2), opts); err != nil {
		t.Errorf("2 transient failures under a 2-retry budget: %v", err)
	}
	if _, err := Connect(ctx, mk(10), opts); err == nil {
		t.Errorf("10 transient failures under a 2-retry budget connected anyway")
	} else if !IsTransient(err) {
		t.Errorf("budget exhaustion should surface the transient cause, got: %v", err)
	}
}

// TestBackoffCancellation pins the liveness property of the retry loop: a
// context cancelled while the coordinator sleeps between attempts aborts the
// wait immediately instead of serving out the backoff.
func TestBackoffCancellation(t *testing.T) {
	g := testgraphs.Cycle(12)
	s, err := BuildStripe(g, 0, 1)
	if err != nil {
		t.Fatalf("BuildStripe: %v", err)
	}
	f := &failNTransport{Transport: NewLoopback(NewWorker(s))}
	f.remaining.Store(1 << 30) // never recovers

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		// A huge backoff: if cancellation does not interrupt the sleep, the
		// test times out instead of passing slowly.
		_, err := Connect(ctx, []Transport{f}, &RetryPolicy{
			Retries: 10, Backoff: time.Hour,
		})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the first attempt fail and the sleep start
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("cancelled connect succeeded")
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("cancellation took %s to interrupt the backoff", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("cancellation never interrupted the backoff sleep")
	}
}
