// Replica-aware transport: the failover layer between the coordinator (or the
// rowserve session) and an R-way replicated stripe. A ReplicaSet presents one
// stripe's replica group as a single Transport, so everything above it —
// coordinator fan-out, retry accounting, the online row cache — keeps its
// one-transport-per-stripe worldview while calls transparently fail over
// between members.
package distributed

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"roundtriprank/internal/graph"
)

// ReplicaSet is a Transport that multiplexes one stripe's RPCs over its
// replicas. Calls start at the preferred replica and advance to the next on
// transient error — permanent errors (protocol violations, 4xx) return
// immediately, since every replica would answer the same. A successful
// failover promotes the answering replica to preferred, so a dead member
// costs one timeout once, not once per call.
//
// The preference is kept per kind of call: one for each multiply direction
// and one for everything else. An exact distributed solve iterates F-Rank
// (DirIn) and T-Rank (DirOut) concurrently over the same replica sets; with
// one shared preference, the instant at which one solve's failover re-routed
// the other was a race, so an identical fault schedule reached the replicas as
// different call sequences from run to run. Separate preferences make each
// solve's routing a function of its own calls alone, which is what lets a
// seeded chaos schedule replay exactly (a dead member then costs one timeout
// per direction).
//
// The replica list is swappable at runtime (fleet reconciliation calls
// SetReplicas as placement moves stripes between members); in-flight calls
// finish on the list they started with. All methods are safe for concurrent
// use.
type ReplicaSet struct {
	replicas  atomic.Pointer[[]Transport]
	preferred [DirOut + 1]atomic.Int64 // indexed by Direction; slot 0: calls without one
	failovers atomic.Int64
}

// NewReplicaSet returns a ReplicaSet over the given replica transports of one
// stripe (each already bound to the stripe on its member).
func NewReplicaSet(replicas []Transport) *ReplicaSet {
	rs := &ReplicaSet{}
	rs.SetReplicas(replicas)
	return rs
}

// SetReplicas atomically replaces the replica list. The old transports are
// not closed — fleet reconciliation owns member connections and members
// usually persist across placement changes.
func (rs *ReplicaSet) SetReplicas(replicas []Transport) {
	list := append([]Transport(nil), replicas...)
	rs.replicas.Store(&list)
	for i := range rs.preferred {
		rs.preferred[i].Store(0)
	}
}

// Failovers returns the number of calls that succeeded only after advancing
// past a failed replica — the fleet's "a member was down and we routed
// around it" counter.
func (rs *ReplicaSet) Failovers() int64 { return rs.failovers.Load() }

// errNoReplicas reports a replica set whose placement has no live member.
var errNoReplicas = errors.New("distributed: replica set has no members")

// replicaCall runs op against the replicas in the preference order kept for
// dir (zero for calls that are not multiplies). Transient
// failures advance to the next replica (recording a failover and promoting
// the survivor); a permanent failure or a success returns immediately. When
// every replica fails transiently the last error is returned — still marked
// transient, so the coordinator's own retry loop re-enters and picks up any
// replica that recovered in the meantime.
func replicaCall[T any](ctx context.Context, rs *ReplicaSet, dir Direction, op func(Transport) (T, error)) (T, error) {
	var zero T
	replicas := *rs.replicas.Load()
	if len(replicas) == 0 {
		return zero, &TransientError{Err: errNoReplicas}
	}
	if int(dir) >= len(rs.preferred) {
		dir = 0 // not a direction; the worker is the one to say so
	}
	preferred := &rs.preferred[dir]
	start := int(preferred.Load()) % len(replicas)
	if start < 0 {
		start = 0
	}
	var lastErr error
	for i := 0; i < len(replicas); i++ {
		idx := (start + i) % len(replicas)
		out, err := op(replicas[idx])
		if err == nil {
			if i > 0 {
				rs.failovers.Add(1)
				preferred.Store(int64(idx))
			}
			return out, nil
		}
		if !IsTransient(err) || ctx.Err() != nil {
			return zero, err
		}
		lastErr = err
	}
	return zero, lastErr
}

// Info implements Transport.
func (rs *ReplicaSet) Info(ctx context.Context) (WorkerInfo, error) {
	return replicaCall(ctx, rs, 0, func(t Transport) (WorkerInfo, error) { return t.Info(ctx) })
}

// OutSums implements Transport.
func (rs *ReplicaSet) OutSums(ctx context.Context) ([]float64, error) {
	return replicaCall(ctx, rs, 0, func(t Transport) ([]float64, error) { return t.OutSums(ctx) })
}

// Multiply implements Transport.
func (rs *ReplicaSet) Multiply(ctx context.Context, dir Direction, graphSum uint32, x []float64) ([]float64, error) {
	return replicaCall(ctx, rs, dir, func(t Transport) ([]float64, error) {
		return t.Multiply(ctx, dir, graphSum, x)
	})
}

// OutDegrees implements Transport.
func (rs *ReplicaSet) OutDegrees(ctx context.Context) ([]int32, error) {
	return replicaCall(ctx, rs, 0, func(t Transport) ([]int32, error) { return t.OutDegrees(ctx) })
}

// FetchRows implements Transport.
func (rs *ReplicaSet) FetchRows(ctx context.Context, graphSum uint32, nodes []graph.NodeID) (RowBatch, error) {
	return replicaCall(ctx, rs, 0, func(t Transport) (RowBatch, error) {
		return t.FetchRows(ctx, graphSum, nodes)
	})
}

// DeployAction is what EnsureStripe had to do to converge one member.
type DeployAction int

const (
	// DeployNone: the member already served the exact stripe identity.
	DeployNone DeployAction = iota
	// DeployRetag: the payload matched, only the graph identity was rebound.
	DeployRetag
	// DeployShip: the full stripe was shipped.
	DeployShip
)

// EnsureStripe installs s on one member with the cheapest sufficient RPC:
// nothing when the member already serves this exact stripe identity, a retag
// when the payload matches but the graph identity moved (an epoch rollover
// that left the stripe's rows untouched, or a rejoining member whose
// retained payload still fingerprint-matches), a full ship otherwise. It is
// the one deploy ladder — RedeployStripes and fleet reconciliation both walk
// their members through it — and what keeps redeploy cost proportional to
// the delta.
func EnsureStripe(ctx context.Context, t Transport, s *Stripe) (DeployAction, error) {
	inst, ok := t.(StripeInstaller)
	if !ok {
		return DeployNone, fmt.Errorf("distributed: transport %T cannot receive stripes", t)
	}
	if info, err := t.Info(ctx); err == nil && info.Index == s.Index && info.Count == s.Count && info.Content == s.ContentFingerprint() {
		if info.Graph == s.Graph && info.Epoch == s.Epoch {
			return DeployNone, nil
		}
		if err := inst.RetagStripe(ctx, s.Graph, s.Epoch, s.ContentFingerprint()); err == nil {
			return DeployRetag, nil
		}
	}
	return DeployShip, inst.SendStripe(ctx, s)
}

// Close implements Transport, closing every replica transport.
func (rs *ReplicaSet) Close() error {
	var firstErr error
	for _, t := range *rs.replicas.Load() {
		if err := t.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
