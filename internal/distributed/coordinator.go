package distributed

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"roundtriprank/internal/fan"
	"roundtriprank/internal/graph"
)

// RetryPolicy is how a Fleet retries an idempotent worker call; the zero
// value gives defaults.
type RetryPolicy struct {
	// Retries is how many times a failed transient call is retried on the
	// same worker before the query fails (default 2; negative disables).
	Retries int
	// Backoff is the base delay before a retry; attempt k waits k*Backoff
	// (default 50ms).
	Backoff time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Retries == 0 {
		p.Retries = 2
	}
	if p.Retries < 0 {
		p.Retries = 0
	}
	if p.Backoff <= 0 {
		p.Backoff = 50 * time.Millisecond
	}
	return p
}

// Fleet is one validated, epoch-pinned connection to a striped worker fleet:
// the outcome of the handshake (Connect) plus the retry policy and RPC
// counters every later call on the connection goes through. It is a
// walk.Gatherer (the distributed exact solve, below) and the row-serving
// rowserve.RemoteCSR embeds one with the row RPCs on top, so one handshake
// serves both algorithm families and a fleet is validated in one place.
type Fleet struct {
	ts      []Transport
	n       int       // nodes in the full graph
	graph   uint32    // graph fingerprint every worker must agree on
	epoch   uint64    // snapshot version every worker must agree on
	rows    []int     // owned rows per stripe, recomputed from n
	content []uint32  // per-stripe payload fingerprint
	outSum  []float64 // global out-weight sums, assembled from the stripes
	policy  RetryPolicy

	rpcs    atomic.Int64
	retries atomic.Int64
}

// Connect performs the fleet handshake — transports[i] must serve stripe i of
// len(transports) — validating the topology the workers advertise and
// assembling the global out-weight vector; one inconsistent worker fails the
// connect, not a later query. policy may be nil for defaults. Connect does not
// take ownership of the transports.
func Connect(ctx context.Context, transports []Transport, policy *RetryPolicy) (*Fleet, error) {
	count := len(transports)
	if count == 0 {
		return nil, fmt.Errorf("distributed: need at least one worker")
	}
	f := &Fleet{ts: transports, rows: make([]int, count), content: make([]uint32, count)}
	if policy != nil {
		f.policy = *policy
	}
	f.policy = f.policy.withDefaults()

	infos := make([]WorkerInfo, count)
	err := fan.Do(ctx, count, count, func(ctx context.Context, i int) error {
		info, err := Call(ctx, f, i, f.ts[i].Info)
		infos[i] = info
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, info := range infos {
		if info.Protocol != ProtocolVersion {
			return nil, fmt.Errorf("distributed: worker %d speaks protocol %d, coordinator speaks %d", i, info.Protocol, ProtocolVersion)
		}
		if info.Index != i || info.Count != count {
			return nil, fmt.Errorf("distributed: worker %d serves stripe %d of %d, want %d of %d",
				i, info.Index, info.Count, i, count)
		}
		if i == 0 {
			f.n = info.NumNodes
			f.graph = info.Graph
			f.epoch = info.Epoch
		} else {
			if info.NumNodes != f.n {
				return nil, fmt.Errorf("distributed: worker %d serves a %d-node graph, worker 0 a %d-node one", i, info.NumNodes, f.n)
			}
			if info.Graph != f.graph {
				return nil, fmt.Errorf("distributed: worker %d was striped from a different graph (fingerprint %08x, worker 0 has %08x)",
					i, info.Graph, f.graph)
			}
			if info.Epoch != f.epoch {
				return nil, fmt.Errorf("distributed: worker %d serves epoch %d, worker 0 epoch %d (redeploy in progress?)",
					i, info.Epoch, f.epoch)
			}
		}
		// Never trust the advertised row count: Scatter indexes global vectors
		// with i + r*count, so an oversized value would panic.
		wantRows := 0
		if f.n > i {
			wantRows = (f.n - i + count - 1) / count
		}
		if info.Rows != wantRows {
			return nil, fmt.Errorf("distributed: worker %d advertises %d rows, stripe %d of %d over %d nodes owns %d",
				i, info.Rows, i, count, f.n, wantRows)
		}
		f.rows[i] = info.Rows
		f.content[i] = info.Content
	}
	if f.n <= 0 {
		return nil, fmt.Errorf("distributed: workers serve an empty graph")
	}
	f.outSum = make([]float64, f.n)
	err = Scatter(ctx, f, "out-sums", f.outSum, func(ctx context.Context, i int) ([]float64, error) {
		return f.ts[i].OutSums(ctx)
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// NumNodes returns the node count of the striped graph.
func (f *Fleet) NumNodes() int { return f.n }

// GraphFingerprint returns the fingerprint of the graph the fleet serves
// (graph.GraphFingerprint), agreed on by every worker at connect time.
func (f *Fleet) GraphFingerprint() uint32 { return f.graph }

// Epoch returns the snapshot version of the graph the fleet serves, agreed on
// by every worker at connect time. A Fleet is pinned to its epoch: after a
// redeploy rolls the workers forward, its calls fail their fingerprint check
// and the caller connects afresh.
func (f *Fleet) Epoch() uint64 { return f.epoch }

// Workers returns the number of workers (stripes) in the fleet.
func (f *Fleet) Workers() int { return len(f.ts) }

// Content returns the payload fingerprint stripe i advertised at connect time.
func (f *Fleet) Content(i int) uint32 { return f.content[i] }

// OutSums returns every node's total out-weight, assembled at connect time;
// read-only. It is the walk.Gatherer method of the same name.
func (f *Fleet) OutSums() []float64 { return f.outSum }

// InSums implements walk.Gatherer: the workers do not report in-weights, so
// an F-Rank solve over the fleet updates every node.
func (f *Fleet) InSums() []float64 { return nil }

// Stats reports the cumulative worker RPC count and how many of those were
// retries after a transient failure.
func (f *Fleet) Stats() (rpcs, retries int64) {
	return f.rpcs.Load(), f.retries.Load()
}

// Call runs one idempotent RPC against worker i under the fleet's retry
// policy: transient failures are retried with linear backoff, everything else
// (and context cancellation) fails immediately, and the error names the
// worker while keeping its TransientError classification in the chain.
func Call[T any](ctx context.Context, f *Fleet, i int, rpc func(ctx context.Context) (T, error)) (T, error) {
	var zero T
	var lastErr error
	for attempt := 0; attempt <= f.policy.Retries; attempt++ {
		if attempt > 0 {
			f.retries.Add(1)
			select {
			case <-ctx.Done():
				return zero, ctx.Err()
			case <-time.After(time.Duration(attempt) * f.policy.Backoff):
			}
		}
		f.rpcs.Add(1)
		out, err := rpc(ctx)
		if err == nil {
			return out, nil
		}
		lastErr = err
		if !IsTransient(err) || ctx.Err() != nil {
			break
		}
	}
	return zero, fmt.Errorf("distributed: worker %d (stripe %d of %d): %w", i, i, len(f.ts), lastErr)
}

// Scatter fetches one per-owned-row array from every worker — fanned out on
// a goroutine per worker by fan.Do, each fetch under Call's retry policy —
// checks its length against the stripe's row count, and scatters it into the
// per-node array dst by the round-robin assignment (worker i's row r is node
// i + r·count). what names the payload in the length error. On failure dst is
// partly written.
func Scatter[T any](ctx context.Context, f *Fleet, what string, dst []T, fetch func(ctx context.Context, i int) ([]T, error)) error {
	return fan.Do(ctx, len(f.ts), len(f.ts), func(ctx context.Context, i int) error {
		part, err := Call(ctx, f, i, func(ctx context.Context) ([]T, error) { return fetch(ctx, i) })
		if err != nil {
			return err
		}
		if len(part) != f.rows[i] {
			return fmt.Errorf("distributed: worker %d returned %d %s for %d rows", i, len(part), what, f.rows[i])
		}
		for r, v := range part {
			dst[i+r*len(f.ts)] = v
		}
		return nil
	})
}

// Gather implements walk.Gatherer over the workers' rows of one direction.
// With OutSums it makes the fleet itself the row gather of the distributed
// exact solve: each gather fans one Multiply out to every worker in
// parallel, pinned to the connect-time graph fingerprint, retries transient
// failures (multiply calls are idempotent) and scatters the partial vectors by
// stripe; the power iteration around it is walk's own loop, and each worker
// reduces its rows with graph.CSR.Gather. A solve over a Fleet is therefore
// bit-identical to walk.FRank/walk.TRank on the unstriped graph, for any number
// of workers, by construction. That is what lets the Engine route a query
// through the cluster and still satisfy the exact top-K contract. A worker
// multiplies its whole stripe whatever rows the solve lists: a row outside
// the solve's support comes back as an exact zero the solve never reads.
func (f *Fleet) Gather(ctx context.Context, dir graph.Dir, x, dst []float64, _ []graph.NodeID) error {
	return Scatter(ctx, f, "entries", dst, func(ctx context.Context, i int) ([]float64, error) {
		return f.ts[i].Multiply(ctx, dir, f.graph, x)
	})
}
