package roundtriprank

import (
	"context"
	"fmt"

	"roundtriprank/internal/distributed"
	"roundtriprank/internal/rowserve"
)

// This file is the public surface of the coordinator/worker subsystem: an
// Engine configured with WithWorkers can execute the Distributed method,
// fanning each exact power iteration out to stripe workers (cmd/gpserver
// processes, or in-process loopback workers) and merging the partial vectors
// into the same top-K path as the Exact method. See ARCHITECTURE.md for the
// topology and docs/API.md for the wire protocol.

// Transport is one coordinator-side connection to a stripe worker. Obtain one
// with DialWorker (HTTP) or LoopbackWorkers (in-process).
type Transport = distributed.Transport

// ClusterError wraps a failure of the distributed worker cluster — a failed
// connect, a worker outage that outlived the retry budget, or a stripe
// mismatch. It distinguishes backend trouble from request-validation errors,
// so servers can answer 5xx instead of 4xx; unwrap with errors.As.
type ClusterError struct {
	Err error
}

// Error implements error.
func (e *ClusterError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying cluster failure.
func (e *ClusterError) Unwrap() error { return e.Err }

// DialWorker returns a Transport speaking the gpserver HTTP wire protocol to
// the worker at baseURL (e.g. "http://10.0.0.7:7001"). Dialing is lazy: the
// connection is first used when the engine plans a Distributed query.
func DialWorker(baseURL string) Transport {
	return distributed.NewHTTPTransport(baseURL)
}

// LoopbackWorkers stripes g across n in-process workers and returns their
// transports, in stripe order. It is the single-process deployment of the
// Distributed method: identical code paths to an HTTP cluster, no network.
func LoopbackWorkers(g *Graph, n int) ([]Transport, error) {
	if n <= 0 {
		return nil, fmt.Errorf("roundtriprank: need at least one worker, got %d", n)
	}
	ts := make([]Transport, n)
	for i := 0; i < n; i++ {
		s, err := distributed.BuildStripe(g, i, n)
		if err != nil {
			return nil, err
		}
		ts[i] = distributed.NewLoopback(distributed.NewWorker(s))
	}
	return ts, nil
}

// DeployStripes builds the n-way striping of g and installs stripe i on
// workers[i], for workers that support installation (HTTP workers do:
// gpserver accepts stripes over POST /v1/stripe). Use it to bring up a
// cluster of empty gpserver processes without giving each one a copy of the
// graph. It is RedeployStripes without the counts: a worker that already
// serves its stripe of g costs one Info call and is left alone.
func DeployStripes(ctx context.Context, g *Graph, workers []Transport) error {
	_, _, err := RedeployStripes(ctx, g, workers)
	return err
}

// RedeployStripes reconciles a worker fleet with a new graph snapshot after
// a Commit: it cuts the len(workers)-way striping of g, asks each worker what
// it currently serves, and ships the full stripe only where the content
// fingerprint changed (or the worker is empty or mis-striped). Workers whose
// stripe the commit did not touch are retagged — one tiny RPC rebinding the
// stripe to the new graph fingerprint and epoch — so the cost of an epoch
// rollover scales with the delta, not with the graph. It returns how many
// stripes were shipped and how many retagged; a worker that already serves
// its stripe under g's own fingerprint and epoch (g was not committed since
// the last deploy) costs one Info call and counts as neither.
//
// Engine.Apply calls this automatically on engines configured with
// WithWorkers; use it directly when the graph is committed out-of-band (e.g.
// a loader process feeding a worker fleet that rtrankd coordinators dial).
func RedeployStripes(ctx context.Context, g *Graph, workers []Transport) (shipped, retagged int, err error) {
	if len(workers) == 0 {
		return 0, 0, fmt.Errorf("roundtriprank: no workers to deploy to")
	}
	for i, w := range workers {
		s, err := distributed.BuildStripe(g, i, len(workers))
		if err != nil {
			return shipped, retagged, err
		}
		action, err := distributed.EnsureStripe(ctx, w, s)
		if err != nil {
			return shipped, retagged, fmt.Errorf("roundtriprank: deploy stripe %d: %w", i, err)
		}
		switch action {
		case distributed.DeployShip:
			shipped++
		case distributed.DeployRetag:
			retagged++
		}
	}
	return shipped, retagged, nil
}

// WithWorkers configures the engine's stripe worker cluster, enabling the
// Distributed and TwoSBoundRemote methods: workers[i] must serve stripe i of
// len(workers) of the engine's graph. The engine connects and validates the
// topology on each epoch's first query of either method. The engine does not
// take ownership of the transports; close them when done.
func WithWorkers(workers ...Transport) Option {
	return func(e *Engine) error {
		if len(workers) == 0 {
			return fmt.Errorf("roundtriprank: WithWorkers needs at least one transport")
		}
		e.workers = append([]Transport(nil), workers...)
		return nil
	}
}

// WithRowCacheRows sets the capacity, in rows, of the engine's row cache —
// the coordinator-side store the TwoSBoundRemote method serves repeated row
// reads from (default rowserve.DefaultCacheRows = 65536). A cached row costs
// roughly 12 bytes per stored edge plus ~100 bytes of bookkeeping; see
// docs/TUNING.md for sizing. Only meaningful together with WithWorkers.
func WithRowCacheRows(n int) Option {
	return func(e *Engine) error {
		if n <= 0 {
			return fmt.Errorf("roundtriprank: WithRowCacheRows needs a positive capacity, got %d", n)
		}
		e.rowCache = rowserve.NewCache(n)
		return nil
	}
}

// ClusterStats reports the worker RPC count of the current snapshot's fleet
// handle — handshake, multiplies and row fetches — and how many of those were
// retries after transient failures. All zeros before the first distributed
// or remote-online query on the current epoch (each epoch connects lazily)
// or when no workers are configured.
func (e *Engine) ClusterStats() (rpcs, retries int64) {
	if r := e.snap.Load().fleet.Load(); r != nil {
		rpcs, retries, _ = r.Stats()
	}
	return rpcs, retries
}

// FleetEpoch reports the epoch the worker fleet is currently serving, as
// seen by the snapshot's fleet handle. connected is false when no
// distributed or remote-online query has run on the current epoch yet (each
// epoch connects to the fleet lazily) or when the engine has no workers; the
// local epoch (Epoch) minus a connected fleet epoch is the "epoch lag"
// surfaced on /metrics — non-zero lag means queries are still pinned to
// stripes the fleet has since rolled past.
func (e *Engine) FleetEpoch() (epoch uint64, connected bool) {
	if r := e.snap.Load().fleet.Load(); r != nil {
		return r.Epoch(), true
	}
	return 0, false
}

// RowQueryStats is the row-serving footprint of one TwoSBoundRemote query,
// reported in Response.Rows and the /rank reply: with the searcher's
// neighborhood sizes it proves the O(touched) serving property — Fetched never
// exceeds the rows touched, and a fully cached repeat shows RPCs == 0.
type RowQueryStats = rowserve.QueryStats

// RowServeStats is the engine-wide view of the TwoSBoundRemote serving state:
// cumulative counters of the current epoch's fleet handle and the shared
// row cache's lifetime counters (the cache spans epochs).
type RowServeStats struct {
	// RowsFetched counts the rows the current snapshot's fleet handle pulled
	// over the network; RowRPCs and RowRetries are its RPC counters, the same
	// numbers ClusterStats reports. All three reset to zero when an Apply
	// rolls the engine to a new epoch (each epoch connects lazily).
	RowsFetched, RowRPCs, RowRetries int64
	// CacheHits, CacheMisses and CacheEvictions are lifetime counters of the
	// engine's shared row cache.
	CacheHits, CacheMisses, CacheEvictions int64
	// CachedRows is the number of rows currently held.
	CachedRows int
}

// RowServeStats reports the engine's row-serving counters. All zeros when no
// workers are configured or before the epoch's first fleet query.
func (e *Engine) RowServeStats() RowServeStats {
	var st RowServeStats
	if r := e.snap.Load().fleet.Load(); r != nil {
		st.RowRPCs, st.RowRetries, st.RowsFetched = r.Stats()
	}
	st.CacheHits, st.CacheMisses, st.CacheEvictions = e.rowCache.Stats()
	st.CachedRows = e.rowCache.Len()
	return st
}
