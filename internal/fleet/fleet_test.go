package fleet

import (
	"context"
	"strings"
	"testing"

	"roundtriprank/internal/distributed"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/testgraphs"
)

func TestTableLivenessTransitions(t *testing.T) {
	tb := NewTable()
	tb.Register("w1", "http://w1")
	tb.Register("w2", "http://w2")

	// w2 heartbeats every tick, w1 goes silent: deterministic demotion. The
	// first tick consumes the registration itself as a sign of life.
	states := []State{StateAlive, StateAlive, StateAlive, StateSuspect, StateSuspect, StateDead}
	for i, want := range states {
		m, _ := tb.Lookup("w1")
		if m.State != want {
			t.Fatalf("tick %d: w1 state %v, want %v", i, m.State, want)
		}
		tb.Heartbeat("w2")
		tb.Tick()
	}
	if m, _ := tb.Lookup("w2"); m.State != StateAlive {
		t.Errorf("heartbeating member demoted to %v", m.State)
	}
	st := tb.Stats()
	if st.Alive != 1 || st.Dead != 1 {
		t.Errorf("stats = %+v, want 1 alive / 1 dead", st)
	}
	if got := len(tb.Placeable()); got != 1 {
		t.Errorf("placeable = %d, want 1 (dead member excluded)", got)
	}

	// A heartbeat resurrects even a dead member; an unknown one must
	// re-register.
	if !tb.Heartbeat("w1") {
		t.Fatalf("heartbeat for a known dead member rejected")
	}
	if m, _ := tb.Lookup("w1"); m.State != StateAlive || m.Misses != 0 {
		t.Errorf("resurrected member: %+v", m)
	}
	if tb.Heartbeat("ghost") {
		t.Errorf("heartbeat for an unknown member accepted")
	}
}

func TestTableDrainExcludesFromPlacement(t *testing.T) {
	tb := NewTable()
	tb.Register("w1", "http://w1")
	tb.Register("w2", "http://w2")
	if !tb.Drain("w1") {
		t.Fatalf("drain rejected")
	}
	pl := tb.Placeable()
	if len(pl) != 1 || pl[0].ID != "w2" {
		t.Fatalf("draining member still placeable: %+v", pl)
	}
	st := tb.Stats()
	if st.Draining != 1 || st.Alive != 2 {
		t.Errorf("stats = %+v", st)
	}
	// Re-registration cancels the drain (the worker came back for real).
	tb.Register("w1", "http://w1")
	if len(tb.Placeable()) != 2 {
		t.Errorf("re-registered member still excluded")
	}
}

func TestTableGenTracksPlacementRelevantChanges(t *testing.T) {
	tb := NewTable()
	g0 := tb.Gen()
	tb.Register("w1", "http://w1")
	if tb.Gen() == g0 {
		t.Errorf("register did not bump gen")
	}
	g1 := tb.Gen()
	tb.Heartbeat("w1")
	tb.Tick() // heartbeated: no change
	if tb.Gen() != g1 {
		t.Errorf("no-op tick bumped gen")
	}
	tb.Tick() // miss 1: still alive
	if tb.Gen() != g1 {
		t.Errorf("a miss below the suspect threshold bumped gen")
	}
	tb.Tick() // miss 2 → suspect
	if tb.Gen() == g1 {
		t.Errorf("state transition did not bump gen")
	}
}

func TestPlaceDeterministicAndBalanced(t *testing.T) {
	members := []string{"w1", "w2", "w3", "w4"}
	a := Place(8, 2, members)
	b := Place(8, 2, []string{"w4", "w3", "w2", "w1"}) // order must not matter
	for i := range a {
		if len(a[i]) != 2 {
			t.Fatalf("stripe %d has %d replicas, want 2", i, len(a[i]))
		}
		if a[i][0] == a[i][1] {
			t.Fatalf("stripe %d placed twice on %s", i, a[i][0])
		}
		if strings.Join(a[i], ",") != strings.Join(b[i], ",") {
			t.Fatalf("placement depends on member order: %v vs %v", a[i], b[i])
		}
	}
	// Degraded: fewer members than replicas.
	short := Place(4, 3, []string{"solo"})
	for i := range short {
		if len(short[i]) != 1 || short[i][0] != "solo" {
			t.Fatalf("degraded placement: %v", short[i])
		}
	}
}

// TestPlaceMinimalMovement pins the rendezvous property the rebalance cost
// claim rests on: removing one member only moves the assignments that member
// held.
func TestPlaceMinimalMovement(t *testing.T) {
	members := []string{"w1", "w2", "w3", "w4", "w5"}
	const stripes, r = 32, 2
	before := Place(stripes, r, members)
	after := Place(stripes, r, []string{"w1", "w2", "w4", "w5"}) // w3 leaves

	for i := 0; i < stripes; i++ {
		keep := make(map[string]bool)
		for _, id := range before[i] {
			if id != "w3" {
				keep[id] = true
			}
		}
		// Every surviving assignment must persist...
		got := make(map[string]bool)
		for _, id := range after[i] {
			got[id] = true
		}
		for id := range keep {
			if !got[id] {
				t.Errorf("stripe %d: %s lost its assignment when w3 left", i, id)
			}
		}
		// ...and only stripes w3 held may gain a new member.
		if len(keep) == len(before[i]) {
			for id := range got {
				if !keep[id] {
					t.Errorf("stripe %d gained %s though w3 did not hold it", i, id)
				}
			}
		}
	}
}

// loopbackFleet is a test fixture: n workers reachable by fake addresses,
// dialed via stripe-bound loopbacks.
type loopbackFleet struct {
	workers map[string]*distributed.Worker
}

func newLoopbackFleet(ids ...string) *loopbackFleet {
	lf := &loopbackFleet{workers: make(map[string]*distributed.Worker)}
	for _, id := range ids {
		lf.workers[id] = distributed.NewWorker(nil)
	}
	return lf
}

func (lf *loopbackFleet) dial(addr string, stripe int) distributed.Transport {
	id := strings.TrimPrefix(addr, "http://")
	return distributed.NewLoopback(lf.workers[id]).ForStripe(stripe)
}

func (lf *loopbackFleet) register(m *Manager, ids ...string) {
	for _, id := range ids {
		m.Table().Register(id, "http://"+id)
	}
}

func newTestManager(t *testing.T, lf *loopbackFleet, stripes, r int) *Manager {
	t.Helper()
	m, err := NewManager(ManagerOptions{Stripes: stripes, Replication: r, Dial: lf.dial})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

func TestManagerReconcilePlacesAndRebalances(t *testing.T) {
	g := testgraphs.Cycle(24)
	lf := newLoopbackFleet("w1", "w2", "w3")
	m := newTestManager(t, lf, 4, 2)
	lf.register(m, "w1", "w2", "w3")
	ctx := context.Background()

	st, err := m.Reconcile(ctx, g)
	if err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	if st.Shipped != 4*2 {
		t.Errorf("initial reconcile shipped %d, want 8", st.Shipped)
	}
	// Every stripe must be served by exactly 2 distinct members.
	served := make(map[int]int)
	for _, w := range lf.workers {
		for _, s := range w.Stripes() {
			served[s.Index]++
		}
	}
	for i := 0; i < 4; i++ {
		if served[i] != 2 {
			t.Errorf("stripe %d served by %d members, want 2", i, served[i])
		}
	}

	// Reconciling again with nothing changed must move nothing.
	st, err = m.Reconcile(ctx, g)
	if err != nil {
		t.Fatalf("second Reconcile: %v", err)
	}
	if st.Shipped+st.Retagged+st.Removed != 0 {
		t.Errorf("idle reconcile moved things: %+v", st)
	}
	if st.Unchanged != 8 {
		t.Errorf("idle reconcile unchanged = %d, want 8", st.Unchanged)
	}

	// A member dies: its stripes move to the survivors, the others' stay.
	tb := m.Table()
	tb.Heartbeat("w1")
	tb.Heartbeat("w2")
	for i := 0; i < 6; i++ { // drive w3 to dead
		tb.Tick()
		tb.Heartbeat("w1")
		tb.Heartbeat("w2")
	}
	if mem, _ := tb.Lookup("w3"); mem.State != StateDead {
		t.Fatalf("w3 not dead after ticks: %+v", mem)
	}
	lost := len(lf.workers["w3"].Stripes())
	st, err = m.Reconcile(ctx, g)
	if err != nil {
		t.Fatalf("post-death Reconcile: %v", err)
	}
	if st.Shipped != lost {
		t.Errorf("death of a member holding %d stripes shipped %d", lost, st.Shipped)
	}
	for i, group := range m.Placement() {
		for _, id := range group {
			if id == "w3" {
				t.Errorf("stripe %d still placed on the dead member", i)
			}
		}
	}
}

// TestManagerRejoinZeroReships pins the re-admission guarantee: a worker that
// comes back still holding its stripes (content fingerprints match) is
// re-admitted with retags at most — zero payload ships.
func TestManagerRejoinZeroReships(t *testing.T) {
	g := testgraphs.Cycle(24)
	lf := newLoopbackFleet("w1", "w2", "w3")
	m := newTestManager(t, lf, 4, 2)
	lf.register(m, "w1", "w2", "w3")
	ctx := context.Background()
	if _, err := m.Reconcile(ctx, g); err != nil {
		t.Fatalf("Reconcile: %v", err)
	}

	// w3 "restarts" but keeps its payload (the Worker object survives in this
	// fixture, as a gpserver restarted from its stripe files would).
	tb := m.Table()
	for i := 0; i < 6; i++ {
		tb.Tick()
		tb.Heartbeat("w1")
		tb.Heartbeat("w2")
	}
	if _, err := m.Reconcile(ctx, g); err != nil {
		t.Fatalf("Reconcile with w3 dead: %v", err)
	}
	tb.Register("w3", "http://w3") // rejoin
	st, err := m.Reconcile(ctx, g)
	if err != nil {
		t.Fatalf("rejoin Reconcile: %v", err)
	}
	if st.Shipped != 0 {
		t.Errorf("rejoin with matching fingerprints shipped %d stripes, want 0", st.Shipped)
	}

	// Wiped rejoin: the worker lost its disk — now the payload must ship.
	for _, idx := range []int{0, 1, 2, 3} {
		lf.workers["w3"].RemoveStripe(idx)
	}
	st, err = m.Reconcile(ctx, g)
	if err != nil {
		t.Fatalf("wiped-rejoin Reconcile: %v", err)
	}
	want := 0
	for _, group := range m.Placement() {
		for _, id := range group {
			if id == "w3" {
				want++
			}
		}
	}
	if st.Shipped != want {
		t.Errorf("wiped rejoin shipped %d, want %d (w3's assignments)", st.Shipped, want)
	}
}

func TestManagerEpochRolloverRetags(t *testing.T) {
	tg := testgraphs.NewToy()
	g := tg.Graph
	lf := newLoopbackFleet("w1", "w2")
	m := newTestManager(t, lf, 2, 2)
	lf.register(m, "w1", "w2")
	ctx := context.Background()
	if _, err := m.Reconcile(ctx, g); err != nil {
		t.Fatalf("Reconcile: %v", err)
	}

	// Commit a delta touching one node: its stripe re-ships, the other
	// retags on every member.
	d := graph.NewDelta(g)
	if err := d.SetEdge(0, 2, 0.5); err != nil {
		t.Fatalf("SetEdge: %v", err)
	}
	g2, err := graph.Commit(g, d)
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	st, err := m.Reconcile(ctx, g2)
	if err != nil {
		t.Fatalf("post-commit Reconcile: %v", err)
	}
	if st.Shipped == 0 || st.Retagged == 0 {
		t.Errorf("epoch rollover: %+v, want both ships (touched stripe) and retags (untouched)", st)
	}
	if st.Shipped+st.Retagged != 4 {
		t.Errorf("rollover did not converge all 4 placements: %+v", st)
	}
}

func TestManagerCoordinatorParityThroughFleet(t *testing.T) {
	g := testgraphs.NewToy().Graph
	lf := newLoopbackFleet("w1", "w2", "w3")
	m := newTestManager(t, lf, 2, 2)
	lf.register(m, "w1", "w2", "w3")
	ctx := context.Background()
	if _, err := m.Reconcile(ctx, g); err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	if _, err := distributed.Connect(ctx, m.Transports(), nil); err != nil {
		t.Fatalf("Connect over fleet groups: %v", err)
	}
}

func TestManagerNoMembers(t *testing.T) {
	m, err := NewManager(ManagerOptions{Stripes: 2})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	_, err = m.Reconcile(context.Background(), testgraphs.NewToy().Graph)
	if err == nil {
		t.Fatalf("Reconcile with no members succeeded")
	}
	if !distributed.IsTransient(err) {
		t.Errorf("no-members error not transient (workers may register any moment): %v", err)
	}
}
