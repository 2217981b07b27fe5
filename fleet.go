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

// FleetOptions configures a Fleet — its stripe count, replication and, for
// tests, how it dials a member; see fleet.ManagerOptions. Liveness thresholds
// are fixed (suspect after 2 missed ticks, dead after 4); the caller's tick
// period sets how long that is.
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

// FleetStats is one snapshot of the engine's worker fleet, the one place its
// serving state is observed: the current epoch's fleet handle, the shared row
// cache, and — under WithFleet — the manager's failovers and membership. All
// zeros without workers.
type FleetStats struct {
	// Connected reports whether a distributed or remote-online query has
	// connected the current epoch to its fleet (each epoch connects lazily);
	// Epoch is then the epoch the fleet serves. The engine's Epoch minus it is
	// the "epoch lag" on /metrics: non-zero while queries are pinned to
	// stripes the fleet has since rolled past.
	Connected bool
	Epoch     uint64
	// RPCs counts the worker RPCs of the current epoch's fleet handle —
	// handshake, multiplies and row fetches — Retries those that followed a
	// transient failure, and RowsFetched the rows it pulled over the network.
	// All three reset to zero when an Apply rolls the engine to a new epoch.
	RPCs, Retries, RowsFetched int64
	// CacheHits, CacheMisses and CacheEvictions are lifetime counters of the
	// engine's row cache, which spans epochs; CachedRows is the rows it holds.
	CacheHits, CacheMisses, CacheEvictions int64
	CachedRows                             int
	// Failovers counts calls that succeeded only after routing around a
	// failed replica; zero without a fleet manager.
	Failovers int64
	// MembersAlive/Suspect/Dead/Draining are the membership census; all zero
	// without a fleet manager.
	MembersAlive, MembersSuspect, MembersDead, MembersDraining int
	// Replication is the configured replica count (zero without a fleet).
	Replication int
}

// FleetStats reports the engine's worker fleet. It is cheap (atomic counter
// reads plus one mutex'd table scan) and safe to call from a metrics scrape.
func (e *Engine) FleetStats() FleetStats {
	var st FleetStats
	if r := e.snap.Load().fleet.Load(); r != nil {
		st.Connected, st.Epoch = true, r.Epoch()
		st.RPCs, st.Retries, st.RowsFetched = r.Stats()
	}
	st.CacheHits, st.CacheMisses, st.CacheEvictions = e.rowCache.Stats()
	st.CachedRows = e.rowCache.Len()
	if e.fleetMgr == nil {
		return st
	}
	st.Failovers = e.fleetMgr.Failovers()
	census := e.fleetMgr.Table().Stats()
	st.MembersAlive, st.MembersSuspect, st.MembersDead, st.MembersDraining =
		census.Alive, census.Suspect, census.Dead, census.Draining
	st.Replication = e.fleetMgr.Replication()
	return st
}
