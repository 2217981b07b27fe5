package roundtriprank

import (
	"fmt"

	"roundtriprank/internal/fleet"
)

// This file is the public surface of fleet self-organization: instead of a
// static WithWorkers list (one transport per stripe, one dead worker stalls
// the fleet), an Engine configured with WithFleet serves through a Fleet
// manager — workers register and heartbeat, stripes are R-way replicated
// over the live members by rendezvous placement, and every multiply/row RPC
// fails over between replicas. See docs/OPERATIONS.md for the runbook.

// Fleet is the coordinator-side fleet manager: membership table, replica
// placement, and reconciliation. Create one with NewFleet, let workers
// register (fleet HTTP endpoints, or Table().Register for in-process
// fixtures), call Reconcile to place stripes, and hand it to an Engine with
// WithFleet.
type Fleet = fleet.Manager

// FleetOptions configures a Fleet; see fleet.ManagerOptions.
type FleetOptions = fleet.ManagerOptions

// NewFleet returns a fleet manager for a Stripes-way striped deployment with
// R-way replication (FleetOptions.Replication, default 2).
func NewFleet(opts FleetOptions) (*Fleet, error) { return fleet.NewManager(opts) }

// WithFleet configures the engine to serve its distributed and remote-online
// methods through a self-organizing worker fleet: the engine's stripe
// transports become the manager's per-stripe replica groups (stable objects
// whose member lists the manager swaps as workers come and go), and
// Engine.Apply reconciles membership and placement instead of walking a
// static worker list. Mutually exclusive with WithWorkers.
func WithFleet(m *Fleet) Option {
	return func(e *Engine) error {
		if m == nil {
			return fmt.Errorf("roundtriprank: WithFleet needs a manager")
		}
		if len(e.workers) > 0 {
			return fmt.Errorf("roundtriprank: WithFleet and WithWorkers are mutually exclusive")
		}
		e.fleetMgr = m
		e.workers = m.Transports()
		return nil
	}
}

// ClusterHealth is the fleet-aware serving health snapshot: RPC/retry
// counters of the current epoch's fleet handle (like ClusterStats), the
// replica groups' failover counter, and the membership table's liveness
// census. Engines configured with WithWorkers report the RPC
// counters only.
type ClusterHealth struct {
	// RPCs and Retries mirror ClusterStats.
	RPCs, Retries int64
	// Failovers counts calls that succeeded only after routing around a
	// failed replica; zero without a fleet manager.
	Failovers int64
	// MembersAlive/Suspect/Dead/Draining are the membership census; all zero
	// without a fleet manager.
	MembersAlive, MembersSuspect, MembersDead, MembersDraining int
	// Replication is the configured replica count (zero without a fleet).
	Replication int
}

// ClusterHealth reports the engine's distributed serving health. It is cheap
// (atomic counter reads plus one mutex'd table scan) and safe to call from a
// metrics scrape.
func (e *Engine) ClusterHealth() ClusterHealth {
	var h ClusterHealth
	h.RPCs, h.Retries = e.ClusterStats()
	if e.fleetMgr == nil {
		return h
	}
	h.Failovers = e.fleetMgr.Failovers()
	st := e.fleetMgr.Table().Stats()
	h.MembersAlive, h.MembersSuspect, h.MembersDead, h.MembersDraining =
		st.Alive, st.Suspect, st.Dead, st.Draining
	h.Replication = e.fleetMgr.Replication()
	return h
}
