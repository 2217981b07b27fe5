package roundtriprank

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"roundtriprank/internal/distributed"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/testgraphs"
)

// Tests of the chaos harness itself (chaos_helpers_test.go): the schedule
// replays, its faults reach the coordinator through HTTPTransport's own
// classification, and the restartable socket worker comes back on its port.

func buildChaosStripe(t *testing.T, g *graph.Graph, index, count int) *distributed.Stripe {
	t.Helper()
	s, err := distributed.BuildStripe(g, index, count)
	if err != nil {
		t.Fatalf("BuildStripe: %v", err)
	}
	return s
}

// TestChaosScheduleDeterminism pins the replay property: two schedules with
// the same seed make identical decisions for identical call sequences, and a
// different seed actually changes the schedule.
func TestChaosScheduleDeterminism(t *testing.T) {
	const calls = 2000
	run := func(seed uint64) []bool {
		s := newChaosSchedule(chaosConfig{Seed: seed, FailRate: 0.2})
		out := make([]bool, 0, calls)
		for i := 0; i < calls; i++ {
			out = append(out, s.decide("w1", "multiply"))
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d: %v != %v", i, a[i], b[i])
		}
	}
	c := run(8)
	same := 0
	fails := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
		if a[i] {
			fails++
		}
	}
	if same == calls {
		t.Errorf("different seeds produced an identical schedule")
	}
	// FailRate 0.2 over 2000 draws: expect ~400; anything wildly off means
	// the hash isn't uniform.
	if fails < 200 || fails > 600 {
		t.Errorf("FailRate 0.2 produced %d/%d failures", fails, calls)
	}

	// Per-target independence: a second target's sequence does not disturb
	// the first's.
	s1 := newChaosSchedule(chaosConfig{Seed: 7, FailRate: 0.2})
	s2 := newChaosSchedule(chaosConfig{Seed: 7, FailRate: 0.2})
	var interleaved []bool
	for i := 0; i < calls; i++ {
		s1.decide("w2", "multiply") // extra traffic on another target
		interleaved = append(interleaved, s1.decide("w1", "multiply"))
		_ = s2.decide("w9", "rows")
	}
	for i := range a {
		if a[i] != interleaved[i] {
			t.Fatalf("cross-target traffic perturbed w1's schedule at call %d", i)
		}
	}
}

// TestChaosScheduleReplaysGolden pins the first 64 fail decisions of the
// seeds the chaos suites use, for every RPC a worker transport makes, at
// FailRate ½ on target "w1/s0": bit j of a mask is set when call j of that
// op was failed. The masks were recorded before fault injection moved onto
// the wire, so each call below also pins the op its request is drawn under —
// a request that drew under another spelling would read another sequence.
func TestChaosScheduleReplaysGolden(t *testing.T) {
	golden := []struct {
		seed  uint64
		masks [9]uint64
	}{
		{5, [9]uint64{0x459441f6e599ffb4, 0x83707df8e5c17578, 0x5f0287b5ed27d456, 0x66d562972a725489, 0x1916379201cf4e0e, 0x56d4e9589c15afb7, 0xbba8d7eaf3f073de, 0x9ae8422871405d35, 0x5474edbb63ebc998}},
		{11, [9]uint64{0x6f4715c1dc8ebb16, 0x780b9e87958fb20d, 0xc207a65f71d3bc77, 0x79eb41f34337cd58, 0x4c6f687830ca8f26, 0x7a93deb913f1a2a8, 0xc0b4c36fb1a6a4ea, 0x9d016c2cd045b26d, 0xec07654462c7ee6b}},
		{13, [9]uint64{0x749af118787d83d2, 0x89673a3f51f6e800, 0xa3f54c519112f734, 0x9818c62cc0ebbdf2, 0xc5d63349c073a0dd, 0x8562562d92e37103, 0x3568bea743fe253d, 0x008afd04893d3e25, 0x28d8cf96369f7575}},
		{17, [9]uint64{0x398ee0b8db4e4195, 0x3dad3d38e446930a, 0x27efc63101d677ca, 0xfc323fb7553d52d4, 0xa17e707891bd639f, 0x0af4bdc0123648fd, 0x2a98436923b4bdb6, 0x9ef429426b1acdea, 0x452ca39862dfccb2}},
		{19, [9]uint64{0x706b582ee8aa0bd3, 0x3b4ef504f957a2e5, 0x48f48175d1eed0d0, 0x901487a1e12501d4, 0x2831953bf8fb57dc, 0x813fec134d8797cf, 0xf2c60f0294787256, 0xdd995a7719746146, 0xd827eedad5ffd4e5}},
	}
	g := testgraphs.Cycle(12)
	s := buildChaosStripe(t, g, 0, 2)
	sum := s.GraphFingerprint()
	x := make([]float64, g.NumNodes())
	// The worker's answer does not matter here (a repeated removal is
	// refused); only whether the gate failed the call does.
	rpcs := []struct {
		op   string
		call func(context.Context, *chaosTransport) error
	}{
		{"info", func(ctx context.Context, tr *chaosTransport) error { _, err := tr.Info(ctx); return err }},
		{"outsums", func(ctx context.Context, tr *chaosTransport) error { _, err := tr.OutSums(ctx); return err }},
		{"outdegs", func(ctx context.Context, tr *chaosTransport) error { _, err := tr.OutDegrees(ctx); return err }},
		{"multiply/in", func(ctx context.Context, tr *chaosTransport) error {
			_, err := tr.Multiply(ctx, graph.In, sum, x)
			return err
		}},
		{"multiply/out", func(ctx context.Context, tr *chaosTransport) error {
			_, err := tr.Multiply(ctx, graph.Out, sum, x)
			return err
		}},
		{"rows", func(ctx context.Context, tr *chaosTransport) error {
			_, err := tr.FetchRows(ctx, sum, []graph.NodeID{0})
			return err
		}},
		{"sendstripe", func(ctx context.Context, tr *chaosTransport) error { return tr.SendStripe(ctx, s) }},
		{"retag", func(ctx context.Context, tr *chaosTransport) error {
			return tr.RetagStripe(ctx, sum, s.Epoch, s.ContentFingerprint())
		}},
		{"removestripe", func(ctx context.Context, tr *chaosTransport) error { return tr.RemoveStripe(ctx) }},
	}
	ctx := context.Background()
	for _, gold := range golden {
		sched := newChaosSchedule(chaosConfig{Seed: gold.seed, FailRate: 0.5})
		tr := sched.Wrap(distributed.NewLoopback(distributed.NewWorker(s)).ForStripe(0), "w1/s0")
		for i, rpc := range rpcs {
			var mask uint64
			for j := 0; j < 64; j++ {
				before := tr.InjectedFaults()
				_ = rpc.call(ctx, tr)
				if tr.InjectedFaults() != before {
					mask |= 1 << j
				}
			}
			if mask != gold.masks[i] {
				t.Errorf("seed %d, %s: fail mask %#016x, want %#016x", gold.seed, rpc.op, mask, gold.masks[i])
			}
			if c := sched.seq["w1/s0\x00"+rpc.op]; c == nil || c.Load() != 64 {
				t.Errorf("seed %d: sequence %q is %v, want 64 calls", gold.seed, rpc.op, c)
			}
		}
		if len(sched.seq) != len(rpcs) {
			t.Errorf("seed %d: schedule keys %d sequences, want %d", gold.seed, len(sched.seq), len(rpcs))
		}
	}
}

// TestChaosFaultsClassifyOnTheWire pins where a fault enters: below
// HTTPTransport.do, which classifies it like a dropped connection. A kill and
// a scheduled failure each reach the caller transient, wrapped in do's
// "distributed: <base>:" prefix; the same fault on a call whose caller
// cancelled is not transient, so it is not retried.
func TestChaosFaultsClassifyOnTheWire(t *testing.T) {
	g := testgraphs.Cycle(12)
	s := buildChaosStripe(t, g, 0, 2)
	inner := distributed.NewLoopback(distributed.NewWorker(s)).ForStripe(0)
	ctx := context.Background()
	requireWireTransient := func(label string, err error, cause string) {
		t.Helper()
		var te *distributed.TransientError
		if !distributed.IsTransient(err) || !errors.As(err, &te) {
			t.Fatalf("%s: %v is not transient", label, err)
		}
		if msg := te.Err.Error(); !strings.HasPrefix(msg, "distributed: http://in-process: ") || !strings.Contains(msg, cause) {
			t.Errorf("%s: %q is not do's classification of %q", label, msg, cause)
		}
	}

	killed := newChaosSchedule(chaosConfig{Seed: 1}).Wrap(inner, "w1")
	killed.Kill()
	_, err := killed.Info(ctx)
	requireWireTransient("kill", err, "chaos: w1 is down")

	scheduled := newChaosSchedule(chaosConfig{Seed: 1, FailRate: 1}).Wrap(inner, "w1")
	_, err = scheduled.OutSums(ctx)
	requireWireTransient("scheduled failure", err, "chaos: injected failure on w1 outsums")

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := killed.Info(cctx); err == nil || distributed.IsTransient(err) {
		t.Errorf("a killed call whose caller cancelled: err = %v, want a permanent error", err)
	}
	if got := killed.InjectedFaults() + scheduled.InjectedFaults(); got != 3 {
		t.Errorf("injected %d faults, want 3", got)
	}
}

func TestChaosTransportInjectsTransientFaults(t *testing.T) {
	g := testgraphs.Cycle(12)
	s := buildChaosStripe(t, g, 0, 2)
	inner := distributed.NewLoopback(distributed.NewWorker(s)).ForStripe(0)
	tr := newChaosSchedule(chaosConfig{Seed: 1, FailRate: 1}).Wrap(inner, "w1")
	ctx := context.Background()

	if _, err := tr.Info(ctx); err == nil {
		t.Fatalf("FailRate=1 let a call through")
	} else if !distributed.IsTransient(err) {
		t.Fatalf("injected fault is not transient: %v", err)
	}
	if tr.InjectedFaults() == 0 {
		t.Errorf("fault counter did not move")
	}

	// FailRate=0: calls pass through untouched and answer correctly.
	clean := newChaosSchedule(chaosConfig{Seed: 1}).Wrap(inner, "w1")
	info, err := clean.Info(ctx)
	if err != nil {
		t.Fatalf("clean Info: %v", err)
	}
	if info.Index != 0 || info.Count != 2 {
		t.Errorf("clean Info = %+v", info)
	}
}

func TestChaosTransportKillReviveAndKillAfter(t *testing.T) {
	g := testgraphs.Cycle(12)
	s := buildChaosStripe(t, g, 0, 2)
	inner := distributed.NewLoopback(distributed.NewWorker(s)).ForStripe(0)
	tr := newChaosSchedule(chaosConfig{Seed: 1}).Wrap(inner, "w1")
	ctx := context.Background()

	tr.Kill()
	if _, err := tr.Info(ctx); err == nil || !distributed.IsTransient(err) {
		t.Fatalf("killed transport answered (err=%v)", err)
	}
	tr.Revive()
	if _, err := tr.Info(ctx); err != nil {
		t.Fatalf("revived transport still down: %v", err)
	}

	// KillAfter(2): exactly two more calls succeed, then the process "dies".
	tr.KillAfter(2)
	for i := 0; i < 2; i++ {
		if _, err := tr.Info(ctx); err != nil {
			t.Fatalf("call %d before the armed kill failed: %v", i, err)
		}
	}
	if _, err := tr.Info(ctx); err == nil || !distributed.IsTransient(err) {
		t.Fatalf("armed kill did not fire (err=%v)", err)
	}
	if !tr.Down() {
		t.Errorf("transport not down after armed kill")
	}
	tr.Revive()
	if _, err := tr.Info(ctx); err != nil {
		t.Fatalf("revive after armed kill: %v", err)
	}

	tr.Partition()
	if _, err := tr.OutSums(ctx); err == nil || !distributed.IsTransient(err) {
		t.Fatalf("partitioned transport answered (err=%v)", err)
	}
	tr.Heal()
	if _, err := tr.OutSums(ctx); err != nil {
		t.Fatalf("healed transport still down: %v", err)
	}
}

// TestChaosTransportUnderReplicaSet is the integration the harness exists
// for: a replica group where chaos kills the preferred member fails over and
// keeps answering bit-identically.
func TestChaosTransportUnderReplicaSet(t *testing.T) {
	g := testgraphs.Cycle(12)
	s := buildChaosStripe(t, g, 0, 2)
	sched := newChaosSchedule(chaosConfig{Seed: 3})
	a := sched.Wrap(distributed.NewLoopback(distributed.NewWorker(s)).ForStripe(0), "a")
	b := sched.Wrap(distributed.NewLoopback(distributed.NewWorker(s)).ForStripe(0), "b")
	rs := distributed.NewReplicaSet([]distributed.Transport{a, b})
	ctx := context.Background()

	x := make([]float64, g.NumNodes())
	for i := range x {
		x[i] = 1
	}
	want, err := rs.Multiply(ctx, graph.In, s.GraphFingerprint(), x)
	if err != nil {
		t.Fatalf("Multiply: %v", err)
	}
	a.Kill()
	got, err := rs.Multiply(ctx, graph.In, s.GraphFingerprint(), x)
	if err != nil {
		t.Fatalf("Multiply with preferred replica killed: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("failover changed the answer at row %d: %g != %g", i, got[i], want[i])
		}
	}
	if rs.Failovers() == 0 {
		t.Errorf("failover counter did not move")
	}
}

// TestChaosMultiplyOpsNameTheWireDirection pins the op names a multiply
// draws its faults under, "multiply/in" and "multiply/out": they key the
// schedule's sequences, so a seeded schedule replays only while they stay
// put.
func TestChaosMultiplyOpsNameTheWireDirection(t *testing.T) {
	g := testgraphs.Cycle(12)
	s := buildChaosStripe(t, g, 0, 2)
	sched := newChaosSchedule(chaosConfig{Seed: 5})
	tr := sched.Wrap(distributed.NewLoopback(distributed.NewWorker(s)).ForStripe(0), "w")
	x := make([]float64, g.NumNodes())
	for _, dir := range []graph.Dir{graph.In, graph.Out, graph.Out} {
		if _, err := tr.Multiply(context.Background(), dir, s.GraphFingerprint(), x); err != nil {
			t.Fatalf("Multiply(%v): %v", dir, err)
		}
	}
	want := map[string]uint64{"w\x00multiply/in": 1, "w\x00multiply/out": 2}
	if len(sched.seq) != len(want) {
		t.Errorf("schedule keys %d sequences, want %d", len(sched.seq), len(want))
	}
	for key, n := range want {
		if c := sched.seq[key]; c == nil || c.Load() != n {
			t.Errorf("sequence %q is %v, want %d calls", key, c, n)
		}
	}
}

func TestChaosHTTPWorkerKillRestart(t *testing.T) {
	g := testgraphs.Cycle(12)
	s := buildChaosStripe(t, g, 0, 1)
	hw, err := startHTTPWorker(distributed.NewWorker(s))
	if err != nil {
		t.Fatalf("startHTTPWorker: %v", err)
	}
	t.Cleanup(hw.Close)
	tr := distributed.NewHTTPTransport(hw.URL())
	defer tr.Close()
	ctx := context.Background()

	info, err := tr.Info(ctx)
	if err != nil {
		t.Fatalf("Info: %v", err)
	}
	if info.Index != 0 || info.Count != 1 {
		t.Fatalf("Info = %+v", info)
	}

	hw.Kill()
	if _, err := tr.Info(ctx); err == nil {
		t.Fatalf("Info against a killed worker succeeded")
	} else if !distributed.IsTransient(err) {
		t.Fatalf("killed-worker error is not transient: %v", err)
	}

	// Restart on the same address: the same transport (same URL) reconnects
	// and the stripe state survived the "process" death.
	var restartErr error
	for attempt := 0; attempt < 20; attempt++ {
		if restartErr = hw.Restart(); restartErr == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if restartErr != nil {
		t.Skipf("port was taken during restart: %v", restartErr)
	}
	again, err := tr.Info(ctx)
	if err != nil {
		t.Fatalf("Info after restart: %v", err)
	}
	if again != info {
		t.Fatalf("restarted worker serves a different identity: %+v != %+v", again, info)
	}
	if err := hw.Restart(); err == nil {
		t.Errorf("double Restart succeeded")
	}
}
