package chaos

import (
	"fmt"
	"net"
	"net/http"
	"sync"

	"roundtriprank/internal/distributed"
)

// HTTPWorker is a worker HTTP server that tests can kill and restart on the
// same address — the process-level analogue of Transport.Kill. httptest
// servers cannot do this (a closed httptest server never re-binds its port),
// so HTTPWorker manages its own listener: Kill closes it abruptly, dropping
// in-flight connections the way a SIGKILL would, and Restart re-listens on
// the recorded address so coordinator-side transports dialing the old URL
// find the worker again.
//
// The wrapped *distributed.Worker outlives kills: a Restart serves the same
// in-memory stripes, modelling a process whose state survives (e.g. a worker
// restarted from a local stripe cache). To model a wiped restart, remove the
// stripes from the worker handed to the constructor before Restart.
type HTTPWorker struct {
	worker *distributed.Worker

	mu   sync.Mutex
	addr string
	srv  *http.Server
	done chan struct{}
}

// StartHTTPWorker serves w on a fresh loopback port.
func StartHTTPWorker(w *distributed.Worker) (*HTTPWorker, error) {
	hw := &HTTPWorker{worker: w}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	hw.addr = lis.Addr().String()
	hw.serve(lis)
	return hw, nil
}

// serve starts the HTTP server on lis. Caller holds no locks; the server and
// done channel are published under hw.mu.
func (hw *HTTPWorker) serve(lis net.Listener) {
	srv := &http.Server{Handler: hw.worker.Handler()}
	done := make(chan struct{})
	hw.mu.Lock()
	hw.srv, hw.done = srv, done
	hw.mu.Unlock()
	go func() {
		defer close(done)
		// ErrServerClosed (and the listener-closed error on Kill) are the
		// expected shutdown paths; nothing to report.
		_ = srv.Serve(lis)
	}()
}

// URL returns the worker's base URL. Stable across Kill/Restart.
func (hw *HTTPWorker) URL() string {
	hw.mu.Lock()
	defer hw.mu.Unlock()
	return "http://" + hw.addr
}

// Kill stops the server abruptly: the listener and all open connections are
// closed without draining, so in-flight RPCs fail at the coordinator with
// transport errors — which classify transient and trigger failover. Safe to
// call twice.
func (hw *HTTPWorker) Kill() {
	hw.mu.Lock()
	srv, done := hw.srv, hw.done
	hw.srv, hw.done = nil, nil
	hw.mu.Unlock()
	if srv == nil {
		return
	}
	_ = srv.Close()
	<-done
}

// Restart re-listens on the worker's original address and serves again. It
// fails if the port was taken in the interim (rare on loopback, but possible
// in a busy test machine — callers should treat it as a skip-worthy flake,
// not a bug).
func (hw *HTTPWorker) Restart() error {
	hw.mu.Lock()
	if hw.srv != nil {
		hw.mu.Unlock()
		return fmt.Errorf("chaos: worker at %s is already running", hw.addr)
	}
	addr := hw.addr
	hw.mu.Unlock()
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("chaos: re-listen %s: %w", addr, err)
	}
	hw.serve(lis)
	return nil
}

// Close shuts the worker down for good.
func (hw *HTTPWorker) Close() { hw.Kill() }
