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
// Distributed method: each transport speaks the gpserver wire protocol to its
// worker's handler in memory, so it runs the code paths of an HTTP cluster,
// codec included, without a network.
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

// RedeployStripes brings a worker fleet to graph g: it cuts the
// len(workers)-way striping of g, asks each worker what it currently serves,
// and ships the full stripe only where the content fingerprint changed or the
// worker is empty or mis-striped (HTTP workers accept stripes: gpserver takes
// them over POST /v1/stripe). Workers whose stripe a commit did not touch are
// retagged — one tiny RPC rebinding the stripe to the new graph fingerprint
// and epoch — so the cost of an epoch rollover scales with the delta, not with
// the graph. It returns how many stripes were shipped and how many retagged; a
// worker that already serves its stripe under g's own fingerprint and epoch
// costs one Info call and counts as neither.
//
// It provisions a cluster of empty gpserver processes without giving each one
// a copy of the graph, and Engine.Apply calls it on engines configured with
// WithWorkers; call it directly when the graph is committed out-of-band (e.g.
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

// RowQueryStats is the row-serving footprint of one TwoSBoundRemote query,
// reported in Response.Rows and the /rank reply: with the searcher's
// neighborhood sizes it proves the O(touched) serving property — Fetched never
// exceeds the rows touched, and a fully cached repeat shows RPCs == 0.
type RowQueryStats = rowserve.QueryStats
