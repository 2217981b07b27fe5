// Package fleet is the self-organization layer of the distributed worker
// cluster: a coordinator-side membership table fed by worker registration and
// heartbeats, deterministic rendezvous placement of R-way replicated stripes
// over the live members, and a manager that reconciles what each member
// serves with what placement says it should — shipping, retagging or
// removing stripes so that rebalance cost stays proportional to the delta.
//
// Liveness is tracked with miss-count eviction, the k-bucket idiom from
// Kademlia-style node tables: every tick (one heartbeat interval), a member
// that has not been heard from accrues a miss; a few misses demote it to
// suspect (still placed, queries prefer its replicas), a few more declare it
// dead (unplaced, its stripes move). A heartbeat or re-registration resets
// the count, so flapping members rejoin cheaply — re-admission validates
// stripe content fingerprints and re-ships nothing that still matches.
package fleet

import (
	"fmt"
	"sort"
	"sync"
)

// State is a member's liveness classification.
type State int

const (
	// StateAlive: heartbeats arriving on schedule.
	StateAlive State = iota
	// StateSuspect: missed suspectMisses consecutive ticks; still placed,
	// but the replica call path will have promoted its replicas.
	StateSuspect
	// StateDead: missed deadMisses consecutive ticks; evicted from
	// placement, its stripes move to the surviving members.
	StateDead
)

// String names the state for logs and metrics labels.
func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("state-%d", int(s))
	}
}

// Member is one registered worker as the table sees it.
type Member struct {
	// ID is the worker's self-chosen stable identity (it survives restarts,
	// so a rejoining worker reclaims its row instead of growing the table).
	ID string
	// Addr is the worker's wire-protocol base URL.
	Addr string
	// State is the current liveness classification.
	State State
	// Misses is the consecutive tick count without a heartbeat.
	Misses int
	// Draining marks a member excluded from new placement while it finishes
	// in-flight work; it keeps heartbeating until it exits.
	Draining bool
}

// The liveness thresholds, in ticks: a member that missed suspectMisses
// consecutive ticks turns suspect, one that missed deadMisses is declared dead
// and evicted from placement. The tick period (rtrankd's -fleet-tick) is the
// one liveness setting.
const (
	suspectMisses = 2
	deadMisses    = 4
)

// Stats is the table's aggregate liveness view, exported on /metrics.
type Stats struct {
	Alive, Suspect, Dead, Draining int
}

// Table is the coordinator's membership table. Time is external: the owner
// calls Tick once per heartbeat interval, which makes liveness fully
// deterministic — a property the chaos tests lean on. All methods are safe
// for concurrent use.
type Table struct {
	mu      sync.Mutex
	members map[string]*Member
	// seen marks members heard from since the last Tick.
	seen map[string]bool
	// gen increments whenever membership state changes in a way that can
	// change placement (register, drain, state transition, removal).
	gen uint64
}

// NewTable returns an empty membership table: a member turns suspect after 2
// consecutive missed ticks and dead after 4.
func NewTable() *Table {
	return &Table{
		members: make(map[string]*Member),
		seen:    make(map[string]bool),
	}
}

// Register admits (or re-admits) a member: its state resets to alive, its
// miss count to zero, and a drain in progress is cancelled. Re-registering
// with a new address moves the member (a worker restarted on another port).
func (t *Table) Register(id, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.members[id]
	if m == nil {
		m = &Member{ID: id}
		t.members[id] = m
	}
	if m.State != StateAlive || m.Addr != addr || m.Draining {
		t.gen++
	}
	m.Addr = addr
	m.State = StateAlive
	m.Misses = 0
	m.Draining = false
	t.seen[id] = true
}

// Heartbeat records a sign of life and reports whether the member is known;
// an unknown member must re-register (the table may have evicted it, or the
// coordinator restarted). A heartbeat resurrects a suspect — and even a
// not-yet-forgotten dead member — back to alive.
func (t *Table) Heartbeat(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.members[id]
	if m == nil {
		return false
	}
	if m.State != StateAlive {
		t.gen++
	}
	m.State = StateAlive
	m.Misses = 0
	t.seen[id] = true
	return true
}

// Drain marks a member as draining: it stays off new placement while its
// in-flight RPCs finish. Reports whether the member is known.
func (t *Table) Drain(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.members[id]
	if m == nil {
		return false
	}
	if !m.Draining {
		m.Draining = true
		t.gen++
	}
	return true
}

// Remove forgets a member entirely (a drained worker that exited).
func (t *Table) Remove(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.members[id]; !ok {
		return false
	}
	delete(t.members, id)
	delete(t.seen, id)
	t.gen++
	return true
}

// Tick advances liveness by one heartbeat interval: every member not heard
// from since the previous Tick accrues a miss, crossing the suspect and dead
// thresholds as misses accumulate. The owner calls it on a timer; tests call
// it directly, which makes every liveness transition deterministic.
func (t *Table) Tick() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, m := range t.members {
		if t.seen[id] {
			delete(t.seen, id)
			continue
		}
		m.Misses++
		want := m.State
		switch {
		case m.Misses >= deadMisses:
			want = StateDead
		case m.Misses >= suspectMisses:
			want = StateSuspect
		}
		if want != m.State {
			m.State = want
			t.gen++
		}
	}
}

// Gen returns the membership generation: it moves whenever something that
// can change placement changed, so a reconcile loop can cheaply detect "no
// change since last time".
func (t *Table) Gen() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.gen
}

// Members returns a snapshot of all members, sorted by ID.
func (t *Table) Members() []Member {
	t.mu.Lock()
	out := make([]Member, 0, len(t.members))
	for _, m := range t.members {
		out = append(out, *m)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Placeable returns the members eligible for stripe placement — alive or
// suspect (a suspect is probably coming back; moving its stripes on the
// first hiccup would thrash) and not draining — sorted by ID.
func (t *Table) Placeable() []Member {
	var out []Member
	for _, m := range t.Members() {
		if m.State != StateDead && !m.Draining {
			out = append(out, m)
		}
	}
	return out
}

// Lookup returns the member with the given ID.
func (t *Table) Lookup(id string) (Member, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.members[id]
	if m == nil {
		return Member{}, false
	}
	return *m, true
}

// Stats returns the aggregate liveness counts.
func (t *Table) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var st Stats
	for _, m := range t.members {
		switch m.State {
		case StateAlive:
			st.Alive++
		case StateSuspect:
			st.Suspect++
		case StateDead:
			st.Dead++
		}
		if m.Draining {
			st.Draining++
		}
	}
	return st
}
