// Package rowserve is the online-distributed serving layer: it lets the
// pooled flat 2SBound searcher (internal/topk) run against a striped worker
// fleet by streaming CSR rows on demand instead of holding the whole graph.
// This is the paper's AP/GP architecture in its final form — the coordinator
// is the active processor, the workers are the graph processors, and the
// coordinator's working set is O(rows touched), never O(edges).
//
// The pieces: RemoteCSR is one epoch-pinned connection to the fleet,
// validated the same way the exact-path Coordinator validates its workers and
// holding only dense per-node metadata (out-sums and out-degrees, the two
// arrays the searcher reads for arbitrary neighbors). Cache is the shared LRU
// row store with single-flight dedup. Session is one query's window onto a
// RemoteCSR: it implements graph.Rows (and graph.RowPrefetcher, which
// coalesces each expansion wave's missing rows into one batched /v1/rows RPC
// per stripe) and carries the query context and per-query counters.
//
// Because every row arrives bit-exact from the stripe that owns it and the
// searcher's arithmetic never changes, 2SBound over a RemoteCSR returns
// results bit-identical to the local flat path for any worker count.
package rowserve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"roundtriprank/internal/distributed"
	"roundtriprank/internal/graph"
)

// Options tune a RemoteCSR connection; the zero value gives defaults.
type Options struct {
	// Retries is how many times a failed transient row fetch is retried on
	// the same worker before the query fails (default 2).
	Retries int
	// RetryBackoff is the base delay before a retry; attempt k waits
	// k*RetryBackoff (default 50ms).
	RetryBackoff time.Duration
	// Cache is the row cache to serve from. Sharing one Cache across the
	// RemoteCSRs an engine connects over successive epochs is what carries
	// unchanged stripes' rows across an Engine.Apply rollover; nil creates a
	// private cache with DefaultCacheRows capacity.
	Cache *Cache
}

func (o Options) withDefaults() Options {
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	if o.Cache == nil {
		o.Cache = NewCache(0)
	}
	return o
}

// RemoteCSR is an epoch-pinned row-serving view of a striped worker fleet.
// Connect validates the fleet's topology exactly like the exact-path
// coordinator, then records each stripe's content fingerprint and assembles
// the dense out-sum and out-degree arrays; everything else is fetched row by
// row through Sessions. A RemoteCSR stays correct after the fleet rolls
// forward — its row fetches pin the connect-time graph fingerprint, so they
// either keep being served from cache or fail loudly — and it does not own
// its transports (the engine that dialed the workers closes them).
type RemoteCSR struct {
	fetchers []distributed.RowFetcher
	count    int
	n        int
	graphSum uint32
	epoch    uint64
	content  []uint32 // per-stripe payload fingerprint, the cache key space
	outSum   []float64
	outDeg   []int32
	cache    *Cache
	opts     Options

	rpcs, retries, fetched atomic.Int64
}

// Connect dials the fleet: transports[i] must serve stripe i of
// len(transports) and implement distributed.RowFetcher (both built-in
// transports do). opts may be nil for defaults.
func Connect(ctx context.Context, transports []distributed.Transport, opts *Options) (*RemoteCSR, error) {
	if len(transports) == 0 {
		return nil, fmt.Errorf("rowserve: need at least one worker")
	}
	r := &RemoteCSR{count: len(transports)}
	if opts != nil {
		r.opts = *opts
	}
	r.opts = r.opts.withDefaults()
	r.cache = r.opts.Cache

	r.fetchers = make([]distributed.RowFetcher, len(transports))
	for i, t := range transports {
		f, ok := t.(distributed.RowFetcher)
		if !ok {
			return nil, fmt.Errorf("rowserve: worker %d transport %T does not serve the row-fetch RPC", i, t)
		}
		r.fetchers[i] = f
	}

	// Validate the advertised topology, stripe by stripe, with the same
	// checks the exact-path coordinator performs: one inconsistent worker
	// fails the connect, not a later query.
	infos := make([]distributed.WorkerInfo, len(transports))
	rows := make([]int, len(transports))
	for i, t := range transports {
		info, err := retry(ctx, r, i, func(ctx context.Context) (distributed.WorkerInfo, error) {
			return t.Info(ctx)
		})
		if err != nil {
			return nil, err
		}
		infos[i] = info
	}
	for i, info := range infos {
		if info.Protocol != distributed.ProtocolVersion {
			return nil, fmt.Errorf("rowserve: worker %d speaks protocol %d, coordinator speaks %d", i, info.Protocol, distributed.ProtocolVersion)
		}
		if info.Index != i || info.Count != r.count {
			return nil, fmt.Errorf("rowserve: worker %d serves stripe %d of %d, want %d of %d",
				i, info.Index, info.Count, i, r.count)
		}
		if i == 0 {
			r.n = info.NumNodes
			r.graphSum = info.Graph
			r.epoch = info.Epoch
		} else {
			if info.NumNodes != r.n {
				return nil, fmt.Errorf("rowserve: worker %d serves a %d-node graph, worker 0 a %d-node one", i, info.NumNodes, r.n)
			}
			if info.Graph != r.graphSum {
				return nil, fmt.Errorf("rowserve: worker %d was striped from a different graph (fingerprint %08x, worker 0 has %08x)",
					i, info.Graph, r.graphSum)
			}
			if info.Epoch != r.epoch {
				return nil, fmt.Errorf("rowserve: worker %d serves epoch %d, worker 0 epoch %d (redeploy in progress?)",
					i, info.Epoch, r.epoch)
			}
		}
		wantRows := 0
		if r.n > i {
			wantRows = (r.n - i + r.count - 1) / r.count
		}
		if info.Rows != wantRows {
			return nil, fmt.Errorf("rowserve: worker %d advertises %d rows, stripe %d of %d over %d nodes owns %d",
				i, info.Rows, i, r.count, r.n, wantRows)
		}
		rows[i] = info.Rows
	}
	if r.n <= 0 {
		return nil, fmt.Errorf("rowserve: workers serve an empty graph")
	}
	r.content = make([]uint32, r.count)
	for i, info := range infos {
		r.content[i] = info.Content
	}

	// The two dense per-node arrays: O(n) floats+ints of metadata, the same
	// order as the searcher's own scratch arrays — NOT the CSR adjacency,
	// which stays on the workers.
	r.outSum = make([]float64, r.n)
	r.outDeg = make([]int32, r.n)
	for i := range transports {
		sums, err := retry(ctx, r, i, func(ctx context.Context) ([]float64, error) {
			return transports[i].OutSums(ctx)
		})
		if err != nil {
			return nil, err
		}
		degs, err := retry(ctx, r, i, func(ctx context.Context) ([]int32, error) {
			return r.fetchers[i].OutDegrees(ctx)
		})
		if err != nil {
			return nil, err
		}
		if len(sums) != rows[i] || len(degs) != rows[i] {
			return nil, fmt.Errorf("rowserve: worker %d returned %d out-sums and %d out-degrees for %d rows",
				i, len(sums), len(degs), rows[i])
		}
		for rr := range sums {
			r.outSum[i+rr*r.count] = sums[rr]
			r.outDeg[i+rr*r.count] = degs[rr]
		}
	}
	return r, nil
}

// NumNodes returns the node count of the striped graph.
func (r *RemoteCSR) NumNodes() int { return r.n }

// GraphFingerprint returns the fingerprint of the graph snapshot this view is
// pinned to.
func (r *RemoteCSR) GraphFingerprint() uint32 { return r.graphSum }

// Epoch returns the snapshot version this view is pinned to.
func (r *RemoteCSR) Epoch() uint64 { return r.epoch }

// Workers returns the stripe count.
func (r *RemoteCSR) Workers() int { return r.count }

// Cache returns the row cache this view serves from.
func (r *RemoteCSR) Cache() *Cache { return r.cache }

// Stats reports the cumulative row-fetch RPC count, how many of those were
// retries after a transient failure, and the total rows fetched.
func (r *RemoteCSR) Stats() (rpcs, retries, fetched int64) {
	return r.rpcs.Load(), r.retries.Load(), r.fetched.Load()
}

// retry runs one idempotent worker call with the connection's retry policy —
// the same linear-backoff discipline as the exact-path coordinator, with the
// failing stripe named in the error so operators know which worker to look
// at. Transient errors keep their classification in the chain.
func retry[T any](ctx context.Context, r *RemoteCSR, stripe int, f func(ctx context.Context) (T, error)) (T, error) {
	var lastErr error
	for attempt := 0; attempt <= r.opts.Retries; attempt++ {
		if attempt > 0 {
			r.retries.Add(1)
			select {
			case <-ctx.Done():
				var zero T
				return zero, ctx.Err()
			case <-time.After(time.Duration(attempt) * r.opts.RetryBackoff):
			}
		}
		r.rpcs.Add(1)
		out, err := f(ctx)
		if err == nil {
			return out, nil
		}
		lastErr = err
		if !distributed.IsTransient(err) || ctx.Err() != nil {
			break
		}
	}
	var zero T
	return zero, fmt.Errorf("rowserve: stripe %d: %w", stripe, lastErr)
}

// QueryStats is one Session's row-serving footprint, surfaced to clients via
// the engine Response's debug field: together the numbers prove the
// O(touched) property per query (Fetched never exceeds the rows the searcher
// touched, and a fully cached re-run shows RPCs == 0).
type QueryStats struct {
	// Fetched is the number of rows this query pulled over the network.
	Fetched int64
	// RPCs is the number of row-fetch calls issued (including retries).
	RPCs int64
	// CacheHits and CacheMisses count this query's row-cache probes.
	CacheHits   int64
	CacheMisses int64
}

// Session is one query's window onto a RemoteCSR: it implements graph.Rows
// (the flat searcher's access pattern) and graph.RowPrefetcher (wave
// coalescing), carries the query's context — graph.Rows has none — and
// accumulates per-query stats. A Session is owned by the single goroutine
// running the query and must not be shared; create one per query.
//
// Row reads have no error result, so the first fetch that still fails after
// the retry budget (or the query's cancellation while waiting on a row) is
// recorded and returned by Err from then on. A failed session issues no
// further RPCs and serves every row as empty; the searcher checks Err before
// it trusts anything computed from those rows.
type Session struct {
	r     *RemoteCSR
	ctx   context.Context
	stats QueryStats
	err   error // first failure, sticky

	// Reusable per-wave buffers: the wave's missing nodes and their claimed
	// cache entries, grouped by owning stripe.
	waveNodes   [][]graph.NodeID
	waveEntries [][]*cacheEntry
}

// Session returns a new per-query Session reading through ctx.
func (r *RemoteCSR) Session(ctx context.Context) *Session {
	return &Session{
		r:           r,
		ctx:         ctx,
		waveNodes:   make([][]graph.NodeID, r.count),
		waveEntries: make([][]*cacheEntry, r.count),
	}
}

// Stats returns the session's row-serving counters so far.
func (s *Session) Stats() QueryStats { return s.stats }

// Err implements graph.Rows: the first row-fetch failure of the session, with
// its transport classification intact (errors.As, distributed.IsTransient),
// or the context's error when the query was cancelled while reading.
func (s *Session) Err() error { return s.err }

// fail records err as the session's failure and returns the empty row.
func (s *Session) fail(err error) distributed.RowData {
	s.err = err
	return distributed.RowData{}
}

// NumNodes implements graph.Rows.
func (s *Session) NumNodes() int { return s.r.n }

// OutDegree implements graph.Rows from the dense connect-time array.
func (s *Session) OutDegree(v graph.NodeID) int { return int(s.r.outDeg[v]) }

// OutSum implements graph.Rows from the dense connect-time array.
func (s *Session) OutSum(v graph.NodeID) float64 { return s.r.outSum[v] }

// OutRow implements graph.Rows. The slices alias the cached row; they are
// valid while the row stays cached and must not be mutated.
func (s *Session) OutRow(v graph.NodeID) ([]graph.NodeID, []float64) {
	row := s.row(v)
	return row.OutTo, row.OutW
}

// InRow implements graph.Rows, same contract as OutRow.
func (s *Session) InRow(v graph.NodeID) ([]graph.NodeID, []float64) {
	row := s.row(v)
	return row.InFrom, row.InW
}

// row returns v's cached row, fetching it from the owning stripe on a miss
// and waiting on a concurrent fetch when one is already in flight.
func (s *Session) row(v graph.NodeID) distributed.RowData {
	if s.err != nil {
		return distributed.RowData{}
	}
	stripe := int(v) % s.r.count
	for {
		row, e, state := s.r.cache.probe(cacheKey{content: s.r.content[stripe], node: v})
		switch state {
		case probeHit:
			s.stats.CacheHits++
			return row
		case probeWait:
			// Another query is fetching this row; its completion is this
			// session's hit (no RPC of our own).
			select {
			case <-e.done:
			case <-s.ctx.Done():
				return s.fail(s.ctx.Err())
			}
			if e.err == nil {
				s.stats.CacheHits++
				return e.row
			}
			// The owning query's fetch failed — possibly its own
			// cancellation, which says nothing about this query. The failed
			// slot was removed from the cache, so loop and retry with this
			// session's own retry budget (unless we were cancelled too).
			if err := s.ctx.Err(); err != nil {
				return s.fail(err)
			}
		default: // probeOwned
			s.stats.CacheMisses++
			if err := s.fetch(stripe, []graph.NodeID{v}, []*cacheEntry{e}); err != nil {
				return s.fail(err)
			}
			return e.row
		}
	}
}

// Prefetch implements graph.RowPrefetcher: it claims every missing row of the
// wave and fetches each stripe's share in one batched RPC, stripes in
// parallel. Rows already cached or already in flight are skipped — in-flight
// fetches complete before the searcher reads the row, because the wave's
// subsequent OutRow/InRow calls wait on them. Duplicate nodes in the wave are
// fine. A fetch that fails after the retry budget fails the session, like the
// read path; a failed session prefetches nothing.
func (s *Session) Prefetch(nodes []graph.NodeID) {
	if len(nodes) == 0 || s.err != nil {
		return
	}
	for i := range s.waveNodes {
		s.waveNodes[i] = s.waveNodes[i][:0]
		s.waveEntries[i] = s.waveEntries[i][:0]
	}
	stripes := 0
	for _, v := range nodes {
		stripe := int(v) % s.r.count
		_, e, state := s.r.cache.probe(cacheKey{content: s.r.content[stripe], node: v})
		switch state {
		case probeHit:
			s.stats.CacheHits++
		case probeOwned:
			s.stats.CacheMisses++
			if len(s.waveNodes[stripe]) == 0 {
				stripes++
			}
			s.waveNodes[stripe] = append(s.waveNodes[stripe], v)
			s.waveEntries[stripe] = append(s.waveEntries[stripe], e)
		}
		// probeWait: another query's in-flight fetch covers it; skip.
	}
	if stripes == 0 {
		return
	}
	if stripes == 1 {
		for stripe := range s.waveNodes {
			if len(s.waveNodes[stripe]) > 0 {
				s.err = s.fetch(stripe, s.waveNodes[stripe], s.waveEntries[stripe])
			}
		}
		return
	}
	var wg sync.WaitGroup
	errs := make([]error, s.r.count)
	for stripe := range s.waveNodes {
		if len(s.waveNodes[stripe]) == 0 {
			continue
		}
		wg.Add(1)
		go func(stripe int) {
			defer wg.Done()
			errs[stripe] = s.fetch(stripe, s.waveNodes[stripe], s.waveEntries[stripe])
		}(stripe)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.err = err
			return
		}
	}
}

// fetch pulls the given rows from one stripe in a single RPC (with retries),
// validates that the fleet still serves the pinned snapshot, and resolves
// every claimed entry — completed on success, failed on error, so no future
// request ever hangs on a leaked in-flight slot. Stats updates are atomic
// because Prefetch runs one fetch per stripe concurrently.
func (s *Session) fetch(stripe int, nodes []graph.NodeID, entries []*cacheEntry) error {
	batch, err := retry(s.ctx, s.r, stripe, func(ctx context.Context) (distributed.RowBatch, error) {
		atomic.AddInt64(&s.stats.RPCs, 1)
		return s.r.fetchers[stripe].FetchRows(ctx, s.r.graphSum, nodes)
	})
	if err == nil {
		err = s.validate(stripe, nodes, batch)
	}
	if err != nil {
		for _, e := range entries {
			s.r.cache.fail(e, err)
		}
		return err
	}
	for i, e := range entries {
		s.r.cache.complete(e, batch.Rows[i])
	}
	atomic.AddInt64(&s.stats.Fetched, int64(len(nodes)))
	s.r.fetched.Add(int64(len(nodes)))
	return nil
}

// validate cross-checks a batch against the pinned snapshot and the request;
// any mismatch is a protocol violation (non-transient) because retrying a
// worker that answered from the wrong snapshot cannot help.
func (s *Session) validate(stripe int, nodes []graph.NodeID, batch distributed.RowBatch) error {
	if batch.Epoch != s.r.epoch || batch.Content != s.r.content[stripe] {
		return fmt.Errorf("rowserve: stripe %d answered from epoch %d content %08x, pinned to epoch %d content %08x",
			stripe, batch.Epoch, batch.Content, s.r.epoch, s.r.content[stripe])
	}
	if len(batch.Rows) != len(nodes) {
		return fmt.Errorf("rowserve: stripe %d returned %d rows for %d requested", stripe, len(batch.Rows), len(nodes))
	}
	for i, row := range batch.Rows {
		if row.Node != nodes[i] {
			return fmt.Errorf("rowserve: stripe %d returned row %d at position %d, requested %d", stripe, row.Node, i, nodes[i])
		}
	}
	return nil
}
