package chaos

import (
	"context"
	"testing"
	"time"

	"roundtriprank/internal/distributed"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/testgraphs"
)

func buildStripe(t *testing.T, g *graph.Graph, index, count int) *distributed.Stripe {
	t.Helper()
	s, err := distributed.BuildStripe(g, index, count)
	if err != nil {
		t.Fatalf("BuildStripe: %v", err)
	}
	return s
}

// TestScheduleDeterminism pins the replay property: two schedules with the
// same seed make identical decisions for identical call sequences, and a
// different seed actually changes the schedule.
func TestScheduleDeterminism(t *testing.T) {
	const calls = 2000
	run := func(seed uint64) []decision {
		s := NewSchedule(Config{Seed: seed, FailRate: 0.2, SlowRate: 0.2})
		out := make([]decision, 0, calls)
		for i := 0; i < calls; i++ {
			out = append(out, s.decide("w1", "multiply"))
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d: %+v != %+v", i, a[i], b[i])
		}
	}
	c := run(8)
	same := 0
	fails := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
		if a[i].fail {
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
	s1 := NewSchedule(Config{Seed: 7, FailRate: 0.2, SlowRate: 0.2})
	s2 := NewSchedule(Config{Seed: 7, FailRate: 0.2, SlowRate: 0.2})
	var interleaved []decision
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

func TestTransportInjectsTransientFaults(t *testing.T) {
	g := testgraphs.Cycle(12)
	s := buildStripe(t, g, 0, 2)
	inner := distributed.NewLoopback(distributed.NewWorker(s)).ForStripe(0)
	tr := NewSchedule(Config{Seed: 1, FailRate: 1}).Wrap(inner, "w1")
	ctx := context.Background()

	if _, err := tr.Info(ctx); err == nil {
		t.Fatalf("FailRate=1 let a call through")
	} else if !distributed.IsTransient(err) {
		t.Fatalf("injected fault is not transient: %v", err)
	}
	fails, _ := tr.InjectedFaults()
	if fails == 0 {
		t.Errorf("fault counter did not move")
	}

	// FailRate=0: calls pass through untouched and answer correctly.
	clean := NewSchedule(Config{Seed: 1}).Wrap(inner, "w1")
	info, err := clean.Info(ctx)
	if err != nil {
		t.Fatalf("clean Info: %v", err)
	}
	if info.Index != 0 || info.Count != 2 {
		t.Errorf("clean Info = %+v", info)
	}
}

func TestTransportKillReviveAndKillAfter(t *testing.T) {
	g := testgraphs.Cycle(12)
	s := buildStripe(t, g, 0, 2)
	inner := distributed.NewLoopback(distributed.NewWorker(s)).ForStripe(0)
	tr := NewSchedule(Config{Seed: 1}).Wrap(inner, "w1")
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

// TestTransportUnderReplicaSet is the integration the harness exists for: a
// replica group where chaos kills the preferred member fails over and keeps
// answering bit-identically.
func TestTransportUnderReplicaSet(t *testing.T) {
	g := testgraphs.Cycle(12)
	s := buildStripe(t, g, 0, 2)
	sched := NewSchedule(Config{Seed: 3})
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

// TestMultiplyOpsNameTheWireDirection pins the op names a multiply draws its
// faults under, "multiply/in" and "multiply/out": they key the schedule's
// sequences, so a seeded schedule replays only while they stay put.
func TestMultiplyOpsNameTheWireDirection(t *testing.T) {
	g := testgraphs.Cycle(12)
	s := buildStripe(t, g, 0, 2)
	sched := NewSchedule(Config{Seed: 5})
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

func TestHTTPWorkerKillRestart(t *testing.T) {
	g := testgraphs.Cycle(12)
	s := buildStripe(t, g, 0, 1)
	hw, err := StartHTTPWorker(distributed.NewWorker(s))
	if err != nil {
		t.Fatalf("StartHTTPWorker: %v", err)
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
