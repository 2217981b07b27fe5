package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"roundtriprank/internal/distributed"
	"roundtriprank/internal/graph"
)

// Dialer opens a transport to the member at addr, bound to one stripe.
type Dialer func(addr string, stripe int) distributed.Transport

// ManagerOptions tune a fleet Manager. Liveness is not among them: the
// membership table turns a member suspect after 2 missed ticks and dead after
// 4 (NewTable), and the owner's tick period is the one liveness setting.
type ManagerOptions struct {
	// Stripes is the stripe count of the deployment (required, fixed for the
	// manager's lifetime; every graph snapshot is cut Stripes ways).
	Stripes int
	// Replication is the replica count per stripe (default 2). Fewer live
	// members than Replication degrades gracefully.
	Replication int
	// Dial opens member transports (default: the gpserver HTTP protocol).
	Dial Dialer
}

// ReconcileStats reports what one reconciliation had to move.
type ReconcileStats struct {
	// Shipped counts full stripe payloads sent over the wire.
	Shipped int
	// Retagged counts members converged with an identity-rebind RPC only.
	Retagged int
	// Unchanged counts members that already served the exact stripe.
	Unchanged int
	// Removed counts stripes uninstalled from members that lost them.
	Removed int
	// Failed counts placements left out because the member failed its ship.
	Failed int
}

// Manager is the coordinator-side fleet brain: it owns the membership table,
// computes placement over the live members, reconciles what each member
// serves, and maintains one ReplicaSet per stripe whose replica lists it
// swaps as placement moves. The ReplicaSets are stable objects — hand
// Transports() to an Engine once; reconciliations update them in place and
// in-flight queries fail over naturally.
type Manager struct {
	opts  ManagerOptions
	table *Table

	mu     sync.Mutex
	groups []*distributed.ReplicaSet
	// conns caches member transports: member ID → stripe → transport.
	conns map[string]map[int]distributed.Transport
	// connAddr remembers the address each member's conns were dialed at, so
	// a member re-registering elsewhere is re-dialed.
	connAddr map[string]string
	// assigned is the placement last applied: member ID → stripe set.
	assigned map[string]map[int]bool
}

// NewManager returns a Manager with an empty membership table; workers
// register (directly via Table, or through the registration HTTP endpoint)
// and a Reconcile cuts and places the stripes.
func NewManager(opts ManagerOptions) (*Manager, error) {
	if opts.Stripes <= 0 {
		return nil, fmt.Errorf("fleet: need a positive stripe count, got %d", opts.Stripes)
	}
	if opts.Replication <= 0 {
		opts.Replication = 2
	}
	if opts.Dial == nil {
		opts.Dial = func(addr string, stripe int) distributed.Transport {
			return distributed.NewHTTPTransport(addr).ForStripe(stripe)
		}
	}
	m := &Manager{
		opts:     opts,
		table:    NewTable(),
		groups:   make([]*distributed.ReplicaSet, opts.Stripes),
		conns:    make(map[string]map[int]distributed.Transport),
		connAddr: make(map[string]string),
		assigned: make(map[string]map[int]bool),
	}
	for i := range m.groups {
		m.groups[i] = distributed.NewReplicaSet(nil)
	}
	return m, nil
}

// Table returns the membership table (registration, heartbeats, ticks).
func (m *Manager) Table() *Table { return m.table }

// Stripes returns the deployment's stripe count.
func (m *Manager) Stripes() int { return m.opts.Stripes }

// Replication returns the configured replica count per stripe.
func (m *Manager) Replication() int { return m.opts.Replication }

// Transports returns the per-stripe replica groups as coordinator
// transports, in stripe order. The slice's elements are stable across
// reconciliations.
func (m *Manager) Transports() []distributed.Transport {
	out := make([]distributed.Transport, len(m.groups))
	for i, g := range m.groups {
		out[i] = g
	}
	return out
}

// Failovers sums the replica groups' failover counters.
func (m *Manager) Failovers() (failovers int64) {
	for _, g := range m.groups {
		failovers += g.Failovers()
	}
	return failovers
}

// ErrNoMembers reports a reconcile with nothing to place on.
var ErrNoMembers = errors.New("fleet: no placeable members registered")

// conn returns the cached transport for (member, stripe), dialing on demand
// and re-dialing when the member moved address. Caller holds m.mu.
func (m *Manager) conn(id, addr string, stripe int) distributed.Transport {
	if m.connAddr[id] != addr {
		m.conns[id] = nil
		m.connAddr[id] = addr
	}
	byStripe := m.conns[id]
	if byStripe == nil {
		byStripe = make(map[int]distributed.Transport)
		m.conns[id] = byStripe
	}
	t := byStripe[stripe]
	if t == nil {
		t = m.opts.Dial(addr, stripe)
		byStripe[stripe] = t
	}
	return t
}

// Reconcile converges the fleet onto g: placement is computed over the
// placeable members, each (stripe, member) pair is brought up to date with
// the cheapest sufficient RPC (nothing / retag / full ship — see
// distributed.EnsureStripe), members that lost a stripe drop it, and the
// replica groups' lists are swapped to the new placement. It is the fleet
// analogue of RedeployStripes and what Engine.Apply calls on epoch commits.
//
// A member that fails its ship is left out of its group's replica list for
// this round (queries route around it) and counted in Failed; the reconcile
// only errors when some stripe converged on zero members, since queries
// against that stripe cannot succeed at all.
func (m *Manager) Reconcile(ctx context.Context, g *graph.Graph) (ReconcileStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var st ReconcileStats

	members := m.table.Placeable()
	if len(members) == 0 {
		return st, &distributed.TransientError{Err: ErrNoMembers}
	}
	ids := make([]string, len(members))
	addr := make(map[string]string, len(members))
	for i, mem := range members {
		ids[i] = mem.ID
		addr[mem.ID] = mem.Addr
	}
	placement := Place(m.opts.Stripes, m.opts.Replication, ids)

	newAssigned := make(map[string]map[int]bool, len(members))
	for i, group := range placement {
		d, err := graph.BuildStripeData(g, i, m.opts.Stripes)
		if err != nil {
			return st, err
		}
		s := distributed.StripeFromData(d)
		var replicas []distributed.Transport
		var shipErr error
		for _, id := range group {
			t := m.conn(id, addr[id], i)
			act, err := distributed.EnsureStripe(ctx, t, s)
			if err != nil {
				st.Failed++
				shipErr = fmt.Errorf("fleet: stripe %d on member %s: %w", i, id, err)
				continue
			}
			switch act {
			case distributed.DeployNone:
				st.Unchanged++
			case distributed.DeployRetag:
				st.Retagged++
			case distributed.DeployShip:
				st.Shipped++
			}
			if newAssigned[id] == nil {
				newAssigned[id] = make(map[int]bool)
			}
			newAssigned[id][i] = true
			replicas = append(replicas, t)
		}
		if len(replicas) == 0 {
			return st, fmt.Errorf("fleet: stripe %d has no serving member: %w", i, shipErr)
		}
		m.groups[i].SetReplicas(replicas)
	}

	// Members that lost an assignment drop the stripe — but only members
	// still expected to answer (alive, not draining): a draining member keeps
	// its payload for in-flight work and a dead one is not reachable anyway.
	for id, stripes := range m.assigned {
		mem, ok := m.table.Lookup(id)
		if !ok || mem.State != StateAlive || mem.Draining {
			continue
		}
		for i := range stripes {
			if newAssigned[id][i] {
				continue
			}
			if inst, ok := m.conn(id, mem.Addr, i).(distributed.StripeInstaller); ok && inst.RemoveStripe(ctx) == nil {
				st.Removed++
			}
		}
	}
	m.assigned = newAssigned
	return st, nil
}

// Placement returns the member IDs most recently assigned to each stripe (in
// replica-preference order), for operator introspection.
func (m *Manager) Placement() [][]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([][]string, m.opts.Stripes)
	for id, stripes := range m.assigned {
		for i := range stripes {
			out[i] = append(out[i], id)
		}
	}
	for _, g := range out {
		sort.Strings(g)
	}
	return out
}
