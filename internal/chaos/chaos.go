// Package chaos is the fault-injection harness behind the distributed
// subsystem's resilience guarantees. It wraps worker transports with
// seed-deterministic fault schedules (transient failures, slow calls,
// partitions, mid-query kills) and runs restartable HTTP workers whose
// process-level death and rebirth tests can drive — so the chaos parity
// suite can assert that Distributed and TwoSBoundRemote results stay
// bit-identical to local under churn, and the chaos benchmark can measure
// recovery time with reproducible schedules.
//
// Determinism discipline: every injected decision is a pure function of
// (seed, target, op, per-target-op sequence number). There is no shared RNG
// stream, so concurrent calls cannot reorder each other's decisions — the
// multiset of faults a schedule injects over N calls is identical run to
// run, which is what lets CI replay a chaos schedule and get the same
// answer. A multiply's op names its direction, because the F-Rank and T-Rank
// solves of one query multiply concurrently over the same targets: each then
// draws from a sequence only it advances, and (distributed.ReplicaSet keeping
// a failover preference per direction) meets the same faults on the same
// replicas in every run.
package chaos

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"roundtriprank/internal/distributed"
	"roundtriprank/internal/graph"
)

// Config tunes a Schedule's per-call fault rates. Rates are probabilities in
// [0, 1) evaluated independently per call from the deterministic hash.
type Config struct {
	// Seed selects the schedule; same seed, same faults.
	Seed uint64
	// FailRate is the probability a call fails with a transient error
	// before reaching the worker.
	FailRate float64
	// SlowRate is the probability a call is delayed by SlowBy first.
	SlowRate float64
	// SlowBy is the injected delay for slow calls (default 2ms).
	SlowBy time.Duration
}

// Schedule derives deterministic fault decisions for any number of wrapped
// transports. Safe for concurrent use.
type Schedule struct {
	cfg Config

	mu  sync.Mutex
	seq map[string]*atomic.Uint64
}

// NewSchedule returns a Schedule for the given config.
func NewSchedule(cfg Config) *Schedule {
	if cfg.SlowBy <= 0 {
		cfg.SlowBy = 2 * time.Millisecond
	}
	return &Schedule{cfg: cfg, seq: make(map[string]*atomic.Uint64)}
}

// next returns the sequence number of this (target, op) call.
func (s *Schedule) next(key string) uint64 {
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
func (s *Schedule) roll(target, op string, seq uint64) float64 {
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

// decision is one call's injected fate.
type decision struct {
	fail bool
	slow bool
}

// decide draws this call's fate. Two independent rolls so fail and slow
// rates compose without interacting.
func (s *Schedule) decide(target, op string) decision {
	seq := s.next(target + "\x00" + op)
	return decision{
		fail: s.cfg.FailRate > 0 && s.roll(target, op+"#fail", seq) < s.cfg.FailRate,
		slow: s.cfg.SlowRate > 0 && s.roll(target, op+"#slow", seq) < s.cfg.SlowRate,
	}
}

// Transport wraps a worker transport with the schedule's faults plus
// test-driven kill/partition state. It is a distributed.Transport and a
// distributed.StripeInstaller (forwarding deploys when the inner transport is
// one), so it can stand between a ReplicaSet (or Fleet) and any real transport.
type Transport struct {
	inner  distributed.Transport
	target string
	sched  *Schedule

	// killed: every call fails transiently, as if the process died.
	killed atomic.Bool
	// killAfter, when armed (>= 0), counts calls down to a kill — the
	// deterministic "die mid-query" trigger. Negative = disarmed.
	killAfter atomic.Int64
	// partitioned: like killed, but named for network-level splits.
	partitioned atomic.Bool

	injectedFails atomic.Int64
	injectedSlows atomic.Int64
}

// Wrap returns a chaos transport over inner. target names the wrapped worker
// in the schedule's hash domain: same seed + same target = same faults.
func (s *Schedule) Wrap(inner distributed.Transport, target string) *Transport {
	t := &Transport{inner: inner, target: target, sched: s}
	t.killAfter.Store(-1)
	return t
}

// Kill makes every subsequent call fail transiently until Revive.
func (t *Transport) Kill() { t.killed.Store(true) }

// Revive undoes Kill (and any armed KillAfter).
func (t *Transport) Revive() {
	t.killed.Store(false)
	t.partitioned.Store(false)
	t.killAfter.Store(-1)
}

// KillAfter arms a countdown: the next n calls succeed (modulo scheduled
// faults), then the transport dies as if the process was SIGKILLed between
// RPCs. KillAfter(0) kills on the very next call.
func (t *Transport) KillAfter(n int) { t.killAfter.Store(int64(n)) }

// Partition makes every call fail transiently until Heal — semantically a
// network split rather than a dead process (the worker keeps its state).
func (t *Transport) Partition() { t.partitioned.Store(true) }

// Heal undoes Partition.
func (t *Transport) Heal() { t.partitioned.Store(false) }

// Down reports whether the transport is currently killed or partitioned.
func (t *Transport) Down() bool { return t.killed.Load() || t.partitioned.Load() }

// InjectedFaults returns how many calls the harness failed or slowed.
func (t *Transport) InjectedFaults() (fails, slows int64) {
	return t.injectedFails.Load(), t.injectedSlows.Load()
}

// gate runs the fault decision for one call; a nil return lets the call
// through to the inner transport.
func (t *Transport) gate(ctx context.Context, op string) error {
	if n := t.killAfter.Load(); n >= 0 {
		if t.killAfter.Add(-1) < 0 {
			t.killed.Store(true)
		}
	}
	if t.Down() {
		t.injectedFails.Add(1)
		return &distributed.TransientError{Err: fmt.Errorf("chaos: %s is down", t.target)}
	}
	d := t.sched.decide(t.target, op)
	if d.slow {
		t.injectedSlows.Add(1)
		select {
		case <-time.After(t.sched.cfg.SlowBy):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if d.fail {
		t.injectedFails.Add(1)
		return &distributed.TransientError{Err: fmt.Errorf("chaos: injected failure on %s %s", t.target, op)}
	}
	return nil
}

// Info implements distributed.Transport.
func (t *Transport) Info(ctx context.Context) (distributed.WorkerInfo, error) {
	if err := t.gate(ctx, "info"); err != nil {
		return distributed.WorkerInfo{}, err
	}
	return t.inner.Info(ctx)
}

// OutSums implements distributed.Transport.
func (t *Transport) OutSums(ctx context.Context) ([]float64, error) {
	if err := t.gate(ctx, "outsums"); err != nil {
		return nil, err
	}
	return t.inner.OutSums(ctx)
}

// Multiply implements distributed.Transport.
func (t *Transport) Multiply(ctx context.Context, dir distributed.Direction, graphSum uint32, x []float64) ([]float64, error) {
	// The direction is part of the op: a Distributed solve multiplies in both
	// directions concurrently over the same transports, and a sequence the
	// two shared would hand out its numbers in goroutine order.
	if err := t.gate(ctx, "multiply/"+dir.String()); err != nil {
		return nil, err
	}
	return t.inner.Multiply(ctx, dir, graphSum, x)
}

// FetchRows implements distributed.Transport.
func (t *Transport) FetchRows(ctx context.Context, graphSum uint32, nodes []graph.NodeID) (distributed.RowBatch, error) {
	if err := t.gate(ctx, "rows"); err != nil {
		return distributed.RowBatch{}, err
	}
	return t.inner.FetchRows(ctx, graphSum, nodes)
}

// OutDegrees implements distributed.Transport.
func (t *Transport) OutDegrees(ctx context.Context) ([]int32, error) {
	if err := t.gate(ctx, "outdegs"); err != nil {
		return nil, err
	}
	return t.inner.OutDegrees(ctx)
}

// install gates one deploy RPC — reconciliation against a dead member must
// fail like any other call — and runs it on the inner transport's installer.
func (t *Transport) install(ctx context.Context, op string, rpc func(distributed.StripeInstaller) error) error {
	if err := t.gate(ctx, op); err != nil {
		return err
	}
	inst, ok := t.inner.(distributed.StripeInstaller)
	if !ok {
		return fmt.Errorf("chaos: inner transport %T cannot receive stripes", t.inner)
	}
	return rpc(inst)
}

// SendStripe implements distributed.StripeInstaller.
func (t *Transport) SendStripe(ctx context.Context, s *distributed.Stripe) error {
	return t.install(ctx, "sendstripe", func(i distributed.StripeInstaller) error { return i.SendStripe(ctx, s) })
}

// RetagStripe implements distributed.StripeInstaller.
func (t *Transport) RetagStripe(ctx context.Context, graphSum uint32, epoch uint64, content uint32) error {
	return t.install(ctx, "retag", func(i distributed.StripeInstaller) error {
		return i.RetagStripe(ctx, graphSum, epoch, content)
	})
}

// RemoveStripe implements distributed.StripeInstaller.
func (t *Transport) RemoveStripe(ctx context.Context) error {
	return t.install(ctx, "removestripe", func(i distributed.StripeInstaller) error { return i.RemoveStripe(ctx) })
}

// Close implements distributed.Transport.
func (t *Transport) Close() error { return t.inner.Close() }
