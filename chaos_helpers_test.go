package roundtriprank

import (
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"roundtriprank/internal/distributed"
)

// The chaos harness behind the fleet's resilience suites. It injects faults
// on the worker wire: a chaosTransport is an in-process HTTPTransport whose
// requests pass a fault gate (HTTPTransport.WithRoundTripper) before they
// reach the worker, and an injected fault is a plain error from RoundTrip,
// which the transport classifies as it would a dropped connection —
// transient, unless the caller cancelled. httpWorker is a real socket worker
// that can die and come back on its address.
//
// Determinism discipline: every scheduled decision is a pure function of
// (seed, target, op, per-target-op sequence number). There is no shared RNG
// stream, so concurrent calls cannot reorder each other's decisions — the
// multiset of faults a schedule injects over N calls is identical run to
// run, which is what lets CI replay a chaos schedule and get the same
// answer. A multiply's op names its direction, because the F-Rank and T-Rank
// solves of one query multiply concurrently over the same targets: each then
// draws from a sequence only it advances, and (distributed.ReplicaSet keeping
// a failover preference per direction) meets the same faults on the same
// replicas in every run.

// chaosConfig tunes a schedule's per-call fault rate.
type chaosConfig struct {
	// Seed selects the schedule; same seed, same faults.
	Seed uint64
	// FailRate is the probability in [0, 1) that a call fails before it
	// reaches the worker, evaluated per call from the deterministic hash.
	FailRate float64
}

// chaosSchedule derives deterministic fault decisions for any number of
// wrapped transports. Safe for concurrent use.
type chaosSchedule struct {
	cfg chaosConfig

	mu  sync.Mutex
	seq map[string]*atomic.Uint64
}

func newChaosSchedule(cfg chaosConfig) *chaosSchedule {
	return &chaosSchedule{cfg: cfg, seq: make(map[string]*atomic.Uint64)}
}

// next returns the sequence number of this (target, op) call.
func (s *chaosSchedule) next(key string) uint64 {
	s.mu.Lock()
	c := s.seq[key]
	if c == nil {
		c = new(atomic.Uint64)
		s.seq[key] = c
	}
	s.mu.Unlock()
	return c.Add(1) - 1
}

// roll hashes (seed, target, op, seq) to a uniform value in [0, 1).
func (s *chaosSchedule) roll(target, op string, seq uint64) float64 {
	h := fnv.New64a()
	var b [16]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(s.cfg.Seed >> (8 * i))
		b[8+i] = byte(seq >> (8 * i))
	}
	_, _ = h.Write(b[:8])
	_, _ = h.Write([]byte(target))
	_, _ = h.Write([]byte(op))
	_, _ = h.Write(b[8:])
	// splitmix64 finalizer: FNV's low bits are not uniform enough alone.
	z := h.Sum64()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// decide draws whether this call fails.
func (s *chaosSchedule) decide(target, op string) bool {
	seq := s.next(target + "\x00" + op)
	return s.cfg.FailRate > 0 && s.roll(target, op+"#fail", seq) < s.cfg.FailRate
}

// chaosTransport is an in-process worker transport whose requests pass
// through its own RoundTrip: the schedule's faults plus test-driven
// kill/partition state, then the worker.
type chaosTransport struct {
	*distributed.HTTPTransport
	next   http.RoundTripper
	target string
	sched  *chaosSchedule

	// killed: every call fails, as if the process died.
	killed atomic.Bool
	// killAfter, when armed (>= 0), counts calls down to a kill — the
	// deterministic "die mid-query" trigger. Negative = disarmed.
	killAfter atomic.Int64
	// partitioned: like killed, but named for network-level splits.
	partitioned atomic.Bool

	injectedFails atomic.Int64
}

// Wrap returns a chaos transport over inner. target names the wrapped worker
// in the schedule's hash domain: same seed + same target = same faults.
func (s *chaosSchedule) Wrap(inner *distributed.HTTPTransport, target string) *chaosTransport {
	t := &chaosTransport{target: target, sched: s}
	t.killAfter.Store(-1)
	t.HTTPTransport = inner.WithRoundTripper(func(next http.RoundTripper) http.RoundTripper {
		t.next = next
		return t
	})
	return t
}

// Kill makes every subsequent call fail until Revive.
func (t *chaosTransport) Kill() { t.killed.Store(true) }

// Revive undoes Kill (and any armed KillAfter) and Partition.
func (t *chaosTransport) Revive() {
	t.killed.Store(false)
	t.partitioned.Store(false)
	t.killAfter.Store(-1)
}

// KillAfter arms a countdown: the next n calls succeed (modulo scheduled
// faults), then the transport dies as if the process was SIGKILLed between
// RPCs. KillAfter(0) kills on the very next call.
func (t *chaosTransport) KillAfter(n int) { t.killAfter.Store(int64(n)) }

// Partition makes every call fail until Heal — semantically a network split
// rather than a dead process (the worker keeps its state).
func (t *chaosTransport) Partition() { t.partitioned.Store(true) }

// Heal undoes Partition.
func (t *chaosTransport) Heal() { t.partitioned.Store(false) }

// Down reports whether the transport is currently killed or partitioned.
func (t *chaosTransport) Down() bool { return t.killed.Load() || t.partitioned.Load() }

// InjectedFaults returns how many calls the harness failed.
func (t *chaosTransport) InjectedFaults() int64 { return t.injectedFails.Load() }

// gate runs the fault decision for one call; a nil return lets the call
// through to the worker.
func (t *chaosTransport) gate(op string) error {
	if n := t.killAfter.Load(); n >= 0 {
		if t.killAfter.Add(-1) < 0 {
			t.killed.Store(true)
		}
	}
	if t.Down() {
		t.injectedFails.Add(1)
		return fmt.Errorf("chaos: %s is down", t.target)
	}
	if t.sched.decide(t.target, op) {
		t.injectedFails.Add(1)
		return fmt.Errorf("chaos: injected failure on %s %s", t.target, op)
	}
	return nil
}

// chaosOp names the RPC a request makes, the op its faults are drawn under:
// info, outsums, outdegs, rows, multiply/in, multiply/out, sendstripe, retag
// and removestripe. The spellings key the schedule's sequences, so a seeded
// schedule replays only while they stay put.
func chaosOp(req *http.Request) string {
	switch op := strings.TrimPrefix(req.URL.Path, "/v1/"); {
	case op == "multiply":
		return op + "/" + req.URL.Query().Get("dir")
	case op == "stripe/retag":
		return "retag"
	case op == "stripe" && req.Method == http.MethodDelete:
		return "removestripe"
	case op == "stripe":
		return "sendstripe"
	default:
		return op
	}
}

// RoundTrip implements http.RoundTripper: a call the gate fails never
// reaches the worker.
func (t *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := t.gate(chaosOp(req)); err != nil {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, err
	}
	return t.next.RoundTrip(req)
}

// httpWorker is a worker HTTP server that tests can kill and restart on the
// same address — the process-level analogue of chaosTransport.Kill. httptest
// servers cannot do this (a closed httptest server never re-binds its port),
// so httpWorker manages its own listener: Kill closes it abruptly, dropping
// in-flight connections the way a SIGKILL would, and Restart re-listens on
// the recorded address so coordinator-side transports dialing the old URL
// find the worker again.
//
// The wrapped *distributed.Worker outlives kills: a Restart serves the same
// in-memory stripes, modelling a process whose state survives (e.g. a worker
// restarted from a local stripe cache). To model a wiped restart, remove the
// stripes from the worker handed to the constructor before Restart.
type httpWorker struct {
	worker *distributed.Worker

	mu   sync.Mutex
	addr string
	srv  *http.Server
	done chan struct{}
}

// startHTTPWorker serves w on a fresh loopback port.
func startHTTPWorker(w *distributed.Worker) (*httpWorker, error) {
	hw := &httpWorker{worker: w}
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
func (hw *httpWorker) serve(lis net.Listener) {
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
func (hw *httpWorker) URL() string {
	hw.mu.Lock()
	defer hw.mu.Unlock()
	return "http://" + hw.addr
}

// Kill stops the server abruptly: the listener and all open connections are
// closed without draining, so in-flight RPCs fail at the coordinator with
// transport errors — which classify transient and trigger failover. Safe to
// call twice.
func (hw *httpWorker) Kill() {
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
func (hw *httpWorker) Restart() error {
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
func (hw *httpWorker) Close() { hw.Kill() }
