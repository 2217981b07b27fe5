package roundtriprank

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"roundtriprank/internal/distributed"
	"roundtriprank/internal/fleet"
)

// Chaos parity suite: the acceptance gate of fleet self-organization. With
// R=2 replication, killing any single worker — before or in the middle of a
// query — must leave Distributed and TwoSBoundRemote answers bit-identical
// to the local solvers at eps=0; recovery must complete within the pinned
// liveness bound and ship only the dead member's stripes; a rejoining member
// whose retained payload still fingerprint-matches costs zero re-ships; and
// every injected fault schedule is seed-deterministic, so the whole suite
// replays under -race.

// chaosFleetCluster boots n empty chaos-restartable HTTP workers, registers
// them with a fresh R=2 fleet manager, and reconciles g onto them.
func chaosFleetCluster(t testing.TB, g *Graph, n int) (*Fleet, []*httpWorker) {
	t.Helper()
	m, err := NewFleet(FleetOptions{Stripes: n, Replication: 2})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	workers := make([]*httpWorker, n)
	for i := range workers {
		hw, err := startHTTPWorker(distributed.NewWorker(nil))
		if err != nil {
			t.Fatalf("startHTTPWorker: %v", err)
		}
		t.Cleanup(hw.Close)
		workers[i] = hw
		m.Table().Register(fmt.Sprintf("w%d", i), hw.URL())
	}
	if _, err := m.Reconcile(context.Background(), g); err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	return m, workers
}

// restartWorker restarts hw, retrying briefly in case the OS has not released
// the port yet. A port stolen by another process is an environment flake, not
// a product bug, so the caller skips.
func restartWorker(t *testing.T, hw *httpWorker) {
	t.Helper()
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		if err = hw.Restart(); err == nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Skipf("could not restart worker on its port: %v", err)
}

// TestChaosKillAnyWorkerParity kills each worker of an R=2 fleet in turn and
// pins, on every test graph, that Distributed and TwoSBoundRemote stay
// bit-identical to the local Exact and TwoSBound paths while the fleet
// serves with the member down.
func TestChaosKillAnyWorkerParity(t *testing.T) {
	ctx := context.Background()
	for _, pg := range parityGraphs() {
		const n = 3
		m, workers := chaosFleetCluster(t, pg.graph, n)
		// Local baselines never touch the fleet, so one engine serves them all.
		base, err := NewEngine(pg.graph, WithFleet(m))
		if err != nil {
			t.Fatalf("%s: NewEngine: %v", pg.name, err)
		}
		q := pg.queries[0]
		exact, err := base.Rank(ctx, Request{Query: SingleNode(q), K: 10, Epsilon: 0, Method: Exact})
		if err != nil {
			t.Fatalf("%s: exact baseline: %v", pg.name, err)
		}
		// The 2SBound comparison needs a K below the first exact-tie boundary
		// (the top-K set is otherwise not well defined at eps=0, and the bound
		// grinds for seconds trying to separate ties) — same gapK discipline as
		// the remote parity suite.
		full, err := base.Rank(ctx, Request{Query: SingleNode(q), K: pg.graph.NumNodes(), Epsilon: 0, Method: Exact})
		if err != nil {
			t.Fatalf("%s: full exact ranking: %v", pg.name, err)
		}
		k := gapK(full.Results, 10)
		var local *Response
		if k >= 1 {
			local, err = base.Rank(ctx, Request{Query: SingleNode(q), K: k, Epsilon: 0, Method: TwoSBound})
			if err != nil {
				t.Fatalf("%s: local 2sbound baseline: %v", pg.name, err)
			}
		}

		kills := 0
		for victim, hw := range workers {
			t.Run(fmt.Sprintf("%s/kill-w%d", pg.name, victim), func(t *testing.T) {
				hw.Kill()
				defer restartWorker(t, hw)
				kills++
				// A fresh engine keeps the remote row cache cold, so the query
				// below actually crosses the network with the member down.
				engine, err := NewEngine(pg.graph, WithFleet(m))
				if err != nil {
					t.Fatalf("NewEngine: %v", err)
				}
				dist, err := engine.Rank(ctx, Request{Query: SingleNode(q), K: 10, Epsilon: 0, Method: Distributed})
				if err != nil {
					t.Fatalf("distributed query with w%d dead: %v", victim, err)
				}
				requireBitIdentical(t, "distributed-vs-exact", dist, exact)
				if k >= 1 {
					remote, err := engine.Rank(ctx, Request{Query: SingleNode(q), K: k, Epsilon: 0, Method: TwoSBoundRemote})
					if err != nil {
						t.Fatalf("remote query with w%d dead: %v", victim, err)
					}
					requireBitIdentical(t, "remote-vs-local", remote, local)
				}
			})
		}
		// Every member was dead at some point while every stripe was queried,
		// so each group must have routed around its preferred replica at least
		// once. (Guarded on kills so -run filtering of subtests stays green.)
		if h := base.FleetStats(); kills == n && h.Failovers == 0 {
			t.Errorf("%s: no failovers recorded while killing every member in turn", pg.name)
		} else if h.Replication != 2 || h.MembersAlive != n {
			t.Errorf("%s: health census off: %+v", pg.name, h)
		}
	}
}

// loopbackChaosFleet builds an R=2 fleet over in-process multi-stripe workers
// whose transports are chaos-wrapped, keyed per (member, stripe) so the
// schedule stays deterministic regardless of cross-stripe goroutine
// interleaving. It returns the per-member transport lists for kill control.
func loopbackChaosFleet(t testing.TB, g *Graph, n int, sched *chaosSchedule) (*Fleet, map[string][]*chaosTransport) {
	t.Helper()
	members := make(map[string]*distributed.Worker, n)
	for i := 0; i < n; i++ {
		members[fmt.Sprintf("w%d", i)] = distributed.NewWorker(nil)
	}
	var mu sync.Mutex
	byMember := make(map[string][]*chaosTransport)
	dial := func(addr string, stripe int) distributed.Transport {
		id := strings.TrimPrefix(addr, "loop://")
		ct := sched.Wrap(distributed.NewLoopback(members[id]).ForStripe(stripe), fmt.Sprintf("%s/s%d", id, stripe))
		mu.Lock()
		byMember[id] = append(byMember[id], ct)
		mu.Unlock()
		return ct
	}
	m, err := NewFleet(FleetOptions{Stripes: n, Replication: 2, Dial: dial})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	for id := range members {
		m.Table().Register(id, "loop://"+id)
	}
	// The schedule's faults hit deploy RPCs too; retrying the reconcile until
	// every placement ships is itself deterministic (each attempt advances the
	// schedule the same way).
	var rerr error
	for attempt := 0; attempt < 20; attempt++ {
		var st fleet.ReconcileStats
		if st, rerr = m.Reconcile(context.Background(), g); rerr == nil && st.Failed > 0 {
			rerr = fmt.Errorf("%d placements failed to ship", st.Failed)
		}
		if rerr == nil {
			break
		}
	}
	if rerr != nil {
		t.Fatalf("Reconcile: %v", rerr)
	}
	return m, byMember
}

// TestChaosApplyOverlapsKill commits an epoch while one member of an R=2 fleet
// is dead. Every stripe keeps a live replica, so Engine.Apply rolls over with
// the dead member's placements left out and counted, rather than failing the
// commit after the replica groups have already moved to the new epoch; both
// networked methods then answer bit-identically to a local engine over the
// committed graph.
func TestChaosApplyOverlapsKill(t *testing.T) {
	pg := parityGraphs()[2] // cycle: every query's walk crosses all stripes
	m, byMember := loopbackChaosFleet(t, pg.graph, 3, newChaosSchedule(chaosConfig{Seed: 13}))
	engine, err := NewEngine(pg.graph, WithFleet(m))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for _, tr := range byMember["w1"] {
		tr.Kill()
	}
	applyWithMemberDown(t, engine, m, pg)
}

// TestChaosApplyOverlapsPartition is the partition schedule of the same
// commit: one member of an R=2 fleet is cut off from the coordinator for the
// whole of Engine.Apply and the queries after it, keeping the stripes of the
// old epoch. The commit rolls over with its placements counted as failed, and
// both networked methods answer bit-identically to a local engine over the
// committed graph: while the member is cut off, once it is back holding the
// stale stripes, and after a reconcile has shipped it the new ones.
func TestChaosApplyOverlapsPartition(t *testing.T) {
	ctx := context.Background()
	pg := parityGraphs()[2]
	m, byMember := loopbackChaosFleet(t, pg.graph, 3, newChaosSchedule(chaosConfig{Seed: 17}))
	engine, err := NewEngine(pg.graph, WithFleet(m))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for _, tr := range byMember["w2"] {
		tr.Partition()
	}
	g := applyWithMemberDown(t, engine, m, pg)
	for _, tr := range byMember["w2"] {
		tr.Heal()
	}
	requireFleetMatchesLocal(t, engine, g, pg.queries)
	if st, err := m.Reconcile(ctx, g); err != nil || st.Failed != 0 {
		t.Fatalf("reconcile after the partition healed: %+v, %v; want every placement shipped", st, err)
	}
	requireFleetMatchesLocal(t, engine, g, pg.queries)
}

// TestChaosApplyOverlapsMidShipKill lands the kill inside the commit: every
// transport of one member of an R=2 fleet dies after k more calls, for k in
// {0, 1, 2}, so the member dies at the handshake's Info, at the ship or retag
// of its stripe inside Engine.Apply, or right after it. Each k runs on a fresh
// fleet and must end like a member dead before the commit.
func TestChaosApplyOverlapsMidShipKill(t *testing.T) {
	pg := parityGraphs()[2]
	for k := 0; k <= 2; k++ {
		t.Run(fmt.Sprintf("after-%d", k), func(t *testing.T) {
			m, byMember := loopbackChaosFleet(t, pg.graph, 3, newChaosSchedule(chaosConfig{Seed: 19}))
			engine, err := NewEngine(pg.graph, WithFleet(m))
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			for _, tr := range byMember["w0"] {
				tr.KillAfter(k)
			}
			applyWithMemberDown(t, engine, m, pg)
		})
	}
}

// applyWithMemberDown commits one edge through engine while a member of its
// R=2 fleet m is down, checks that the new epoch is served and that a
// reconcile counts the member's placements as failed without erroring, and
// holds both networked methods to a local engine over the committed graph. It
// returns that graph.
func applyWithMemberDown(t *testing.T, engine *Engine, m *Fleet, pg parityGraph) *Graph {
	t.Helper()
	ctx := context.Background()
	d := NewDelta(pg.graph)
	if err := d.SetEdge(0, 6, 1); err != nil {
		t.Fatalf("SetEdge: %v", err)
	}
	epoch := engine.Epoch()
	res, err := engine.Apply(ctx, d)
	if err != nil {
		t.Fatalf("Apply with a member down: %v", err)
	}
	if res.Epoch != epoch+1 || engine.Epoch() != epoch+1 {
		t.Fatalf("Apply committed epoch %d and the engine serves %d, want both %d", res.Epoch, engine.Epoch(), epoch+1)
	}
	if st, err := m.Reconcile(ctx, res.Graph); err != nil || st.Failed < 1 {
		t.Fatalf("reconcile with a member down: %+v, %v; want its placements failed and no error", st, err)
	}
	requireFleetMatchesLocal(t, engine, res.Graph, pg.queries)
	return res.Graph
}

// requireFleetMatchesLocal holds engine's Distributed answers to a local
// engine's Exact ones over g, and its ε = 0 TwoSBoundRemote answers to the
// local TwoSBound ones wherever the top-K is well defined, for every query.
func requireFleetMatchesLocal(t *testing.T, engine *Engine, g *Graph, queries []NodeID) {
	t.Helper()
	ctx := context.Background()
	local, err := NewEngine(g)
	if err != nil {
		t.Fatalf("local NewEngine: %v", err)
	}
	for _, q := range queries {
		exact, err := local.Rank(ctx, Request{Query: SingleNode(q), K: 10, Epsilon: 0, Method: Exact})
		if err != nil {
			t.Fatalf("q%d: local exact: %v", q, err)
		}
		dist, err := engine.Rank(ctx, Request{Query: SingleNode(q), K: 10, Epsilon: 0, Method: Distributed})
		if err != nil {
			t.Fatalf("q%d: distributed query after the commit: %v", q, err)
		}
		requireBitIdentical(t, "distributed-vs-exact", dist, exact)
		full, err := local.Rank(ctx, Request{Query: SingleNode(q), K: g.NumNodes(), Epsilon: 0, Method: Exact})
		if err != nil {
			t.Fatalf("q%d: full exact ranking: %v", q, err)
		}
		k := gapK(full.Results, 10)
		if k < 1 {
			continue
		}
		want, err := local.Rank(ctx, Request{Query: SingleNode(q), K: k, Epsilon: 0, Method: TwoSBound})
		if err != nil {
			t.Fatalf("q%d: local 2sbound: %v", q, err)
		}
		remote, err := engine.Rank(ctx, Request{Query: SingleNode(q), K: k, Epsilon: 0, Method: TwoSBoundRemote})
		if err != nil {
			t.Fatalf("q%d: remote query after the commit: %v", q, err)
		}
		requireBitIdentical(t, "remote-vs-local", remote, want)
	}
}

// TestChaosMidQueryKillParity arms deterministic mid-query kills: each member
// in turn dies after serving k more RPCs — for several k, so the death lands
// at different points inside the query's RPC stream — and both networked
// methods must fail over mid-flight and still answer bit-identically.
func TestChaosMidQueryKillParity(t *testing.T) {
	ctx := context.Background()
	pg := parityGraphs()[2] // cycle: every query's walk crosses all stripes
	const n = 3
	m, byMember := loopbackChaosFleet(t, pg.graph, n, newChaosSchedule(chaosConfig{Seed: 11}))
	base, err := NewEngine(pg.graph, WithFleet(m))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	q := pg.queries[0]
	exact, err := base.Rank(ctx, Request{Query: SingleNode(q), K: 10, Epsilon: 0, Method: Exact})
	if err != nil {
		t.Fatalf("exact baseline: %v", err)
	}
	full, err := base.Rank(ctx, Request{Query: SingleNode(q), K: pg.graph.NumNodes(), Epsilon: 0, Method: Exact})
	if err != nil {
		t.Fatalf("full exact ranking: %v", err)
	}
	k := gapK(full.Results, 10)
	var local *Response
	if k >= 1 {
		local, err = base.Rank(ctx, Request{Query: SingleNode(q), K: k, Epsilon: 0, Method: TwoSBound})
		if err != nil {
			t.Fatalf("local baseline: %v", err)
		}
	}

	for victim := 0; victim < n; victim++ {
		id := fmt.Sprintf("w%d", victim)
		for _, after := range []int{0, 1, 3, 7} {
			t.Run(fmt.Sprintf("kill-%s-after-%d", id, after), func(t *testing.T) {
				for _, tr := range byMember[id] {
					tr.KillAfter(after)
				}
				defer func() {
					for _, tr := range byMember[id] {
						tr.Revive()
					}
				}()
				engine, err := NewEngine(pg.graph, WithFleet(m))
				if err != nil {
					t.Fatalf("NewEngine: %v", err)
				}
				dist, err := engine.Rank(ctx, Request{Query: SingleNode(q), K: 10, Epsilon: 0, Method: Distributed})
				if err != nil {
					t.Fatalf("distributed query with %s dying mid-stream: %v", id, err)
				}
				requireBitIdentical(t, "mid-query-distributed", dist, exact)
				if k >= 1 {
					remote, err := engine.Rank(ctx, Request{Query: SingleNode(q), K: k, Epsilon: 0, Method: TwoSBoundRemote})
					if err != nil {
						t.Fatalf("remote query with %s dying mid-stream: %v", id, err)
					}
					requireBitIdentical(t, "mid-query-remote", remote, local)
				}
			})
		}
	}
}

// TestChaosRecoveryAndRejoin walks the full incident arc under the table's
// liveness bound (suspect at 2 missed ticks, dead at 4): a killed member is
// routed around immediately, turns suspect on the third tick and dead on the
// fifth, the recovery reconcile ships exactly the stripes the member held
// and nothing else, and the member's restart + re-registration converges
// with zero re-ships because its retained payload still fingerprint-matches.
func TestChaosRecoveryAndRejoin(t *testing.T) {
	ctx := context.Background()
	pg := parityGraphs()[0]
	m, workers := chaosFleetCluster(t, pg.graph, 3)
	engine, err := NewEngine(pg.graph, WithFleet(m))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	q := pg.queries[0]
	exact, err := engine.Rank(ctx, Request{Query: SingleNode(q), K: 5, Epsilon: 0, Method: Exact})
	if err != nil {
		t.Fatalf("exact baseline: %v", err)
	}
	distReq := Request{Query: SingleNode(q), K: 5, Epsilon: 0, Method: Distributed}

	// The victim is stripe 0's preferred replica (rendezvous placement is a
	// pure function of the member set, so this is computable up front): a
	// Distributed query multiplies against every stripe, so killing it
	// guarantees at least one recorded failover.
	victim := fleet.Place(m.Stripes(), m.Replication(), []string{"w0", "w1", "w2"})[0][0]
	victimIdx := int(victim[1] - '0')
	heldByVictim := 0
	for _, group := range m.Placement() {
		for _, id := range group {
			if id == victim {
				heldByVictim++
			}
		}
	}

	// Phase 1 — failover: the instant after the kill, before any liveness
	// machinery has noticed, queries already succeed via the replicas.
	workers[victimIdx].Kill()
	during, err := engine.Rank(ctx, distReq)
	if err != nil {
		t.Fatalf("query during outage: %v", err)
	}
	requireBitIdentical(t, "during-outage", during, exact)
	if h := engine.FleetStats(); h.Failovers == 0 {
		t.Errorf("outage absorbed without a recorded failover: %+v", h)
	}

	// Phase 2 — detection, pinned to the tick bound: alive on the first tick
	// (it consumes the registration's seen-mark) and the second (one miss),
	// suspect on the third and fourth, dead on the fifth. No wall clock
	// anywhere.
	wantStates := []fleet.State{fleet.StateAlive, fleet.StateAlive, fleet.StateSuspect, fleet.StateSuspect, fleet.StateDead}
	for tick, want := range wantStates {
		for i := range workers {
			if i != victimIdx {
				m.Table().Heartbeat(fmt.Sprintf("w%d", i))
			}
		}
		m.Table().Tick()
		mem, ok := m.Table().Lookup(victim)
		if !ok || mem.State != want {
			t.Fatalf("tick %d: %s state %v, want %v", tick+1, victim, mem.State, want)
		}
	}

	// Phase 3 — recovery reconcile: the survivors absorb exactly the dead
	// member's placements; nothing already in place moves.
	st, err := m.Reconcile(ctx, pg.graph)
	if err != nil {
		t.Fatalf("recovery reconcile: %v", err)
	}
	if st.Shipped != heldByVictim {
		t.Errorf("recovery shipped %d stripes, want exactly the dead member's %d", st.Shipped, heldByVictim)
	}
	if st.Retagged != 0 {
		t.Errorf("recovery retagged %d stripes; content never changed", st.Retagged)
	}
	for i, group := range m.Placement() {
		for _, id := range group {
			if id == victim {
				t.Errorf("stripe %d still placed on the dead member", i)
			}
		}
	}
	steady, err := engine.Rank(ctx, distReq)
	if err != nil {
		t.Fatalf("query after recovery: %v", err)
	}
	requireBitIdentical(t, "post-recovery", steady, exact)

	// Phase 4 — rejoin: the worker restarts with its stripe payload intact
	// (an on-disk stripe cache surviving a process restart). Fingerprint
	// validation makes the rejoin free: zero ships, and the members that
	// covered for it drop the extra copies.
	restartWorker(t, workers[victimIdx])
	m.Table().Register(victim, workers[victimIdx].URL())
	st, err = m.Reconcile(ctx, pg.graph)
	if err != nil {
		t.Fatalf("rejoin reconcile: %v", err)
	}
	if st.Shipped != 0 {
		t.Errorf("rejoin shipped %d stripes; retained payload should cost zero", st.Shipped)
	}
	if st.Removed != heldByVictim {
		t.Errorf("rejoin removed %d covering copies, want %d", st.Removed, heldByVictim)
	}
	back := 0
	for _, group := range m.Placement() {
		for _, id := range group {
			if id == victim {
				back++
			}
		}
	}
	if back != heldByVictim {
		t.Errorf("rejoined member serves %d stripes, held %d before the outage", back, heldByVictim)
	}
	after, err := engine.Rank(ctx, distReq)
	if err != nil {
		t.Fatalf("query after rejoin: %v", err)
	}
	requireBitIdentical(t, "post-rejoin", after, exact)
}

// TestChaosSeededScheduleIsDeterministic replays an identical fault schedule
// twice — random transient failures injected under every multiply — and pins
// that both runs answer bit-identically AND inject the identical per-target
// fault counts. This is the property that makes every other chaos test
// replayable under -race: goroutine interleavings may differ, the schedule
// may not.
func TestChaosSeededScheduleIsDeterministic(t *testing.T) {
	ctx := context.Background()
	pg := parityGraphs()[1] // line graph

	type runResult struct {
		answers string
		faults  map[string]int64
	}
	run := func() runResult {
		sched := newChaosSchedule(chaosConfig{Seed: 5, FailRate: 0.1})
		m, byMember := loopbackChaosFleet(t, pg.graph, 3, sched)
		engine, err := NewEngine(pg.graph, WithFleet(m))
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		var answers strings.Builder
		for round := 0; round < 3; round++ {
			for _, q := range pg.queries {
				resp, err := engine.Rank(ctx, Request{Query: SingleNode(q), K: 5, Epsilon: 0, Method: Distributed})
				if err != nil {
					t.Fatalf("round %d q%d: %v", round, q, err)
				}
				fmt.Fprintf(&answers, "%d/%d:%+v\n", round, q, resp.Results)
			}
		}
		faults := make(map[string]int64)
		for id, trs := range byMember {
			for _, tr := range trs {
				faults[id] += tr.InjectedFaults()
			}
		}
		return runResult{answers.String(), faults}
	}

	a, b := run(), run()
	if a.answers != b.answers {
		t.Errorf("same seed, different answers:\nrun1:\n%s\nrun2:\n%s", a.answers, b.answers)
	}
	total := int64(0)
	for id, n := range a.faults {
		if b.faults[id] != n {
			t.Errorf("member %s: run1 injected %d faults, run2 %d", id, n, b.faults[id])
		}
		total += n
	}
	if total == 0 {
		t.Errorf("schedule injected no faults; the determinism claim is vacuous")
	}
}
