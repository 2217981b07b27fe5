// Package rowserve is the online-distributed serving layer: it lets the
// pooled flat 2SBound searcher (internal/topk) run against a striped worker
// fleet by streaming CSR rows on demand instead of holding the whole graph.
// This is the paper's AP/GP architecture in its final form — the coordinator
// is the active processor, the workers are the graph processors, and the
// coordinator's working set is O(rows touched), never O(edges).
//
// The pieces: RemoteCSR is one epoch-pinned connection to the fleet — the
// distributed.Fleet of the handshake (distributed.Connect), which is also the
// gather of the distributed exact solve, so an engine connects once per epoch
// for both — holding only dense per-node metadata (out-sums and out-degrees,
// the two arrays the searcher reads for arbitrary neighbors). Cache is the
// shared row store, an internal/lru single-flight LRU.
// Session is one query's window onto a RemoteCSR: it implements graph.Rows
// (and graph.RowPrefetcher, which coalesces each expansion wave's missing
// rows into one batched /v1/rows RPC per stripe) and carries the query
// context and per-query counters.
//
// Because every row arrives bit-exact from the stripe that owns it and the
// searcher's arithmetic never changes, 2SBound over a RemoteCSR returns
// results bit-identical to the local flat path for any worker count.
package rowserve

import (
	"context"
	"fmt"
	"sync/atomic"

	"roundtriprank/internal/distributed"
	"roundtriprank/internal/fan"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/lru"
)

// Options tune a RemoteCSR connection; the zero value gives defaults.
type Options struct {
	// Retry is the policy for failed transient worker calls.
	Retry distributed.RetryPolicy
	// Cache is the row cache to serve from. Sharing one Cache across the
	// RemoteCSRs an engine connects over successive epochs is what carries
	// unchanged stripes' rows across an Engine.Apply rollover; nil creates a
	// private cache with DefaultCacheRows capacity.
	Cache *Cache
}

// RemoteCSR is an epoch-pinned row-serving view of a striped worker fleet: a
// distributed.Fleet — the validated topology, per-stripe content
// fingerprints, dense out-sums, retry policy and RPC counters — plus the
// dense out-degree array; everything else is fetched row by row through
// Sessions. A RemoteCSR stays correct after the fleet rolls forward — its row
// fetches pin the connect-time graph fingerprint, so they either keep being
// served from cache or fail loudly — and it does not own its transports (the
// engine that dialed the workers closes them).
type RemoteCSR struct {
	*distributed.Fleet
	ts     []distributed.Transport
	outDeg []int32
	cache  *Cache

	fetched atomic.Int64
}

// Connect dials the fleet: transports[i] must serve stripe i of
// len(transports). opts may be nil for defaults.
func Connect(ctx context.Context, transports []distributed.Transport, opts *Options) (*RemoteCSR, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.Cache == nil {
		o.Cache = NewCache(0)
	}
	r := &RemoteCSR{cache: o.Cache, ts: transports}
	var err error
	if r.Fleet, err = distributed.Connect(ctx, transports, &o.Retry); err != nil {
		return nil, err
	}
	// With the handshake's out-sums, the second dense per-node array: O(n)
	// floats+ints of metadata, the same order as the searcher's own scratch
	// arrays — NOT the CSR adjacency, which stays on the workers.
	r.outDeg = make([]int32, r.NumNodes())
	err = distributed.Scatter(ctx, r.Fleet, "out-degrees", r.outDeg, func(ctx context.Context, i int) ([]int32, error) {
		return r.ts[i].OutDegrees(ctx)
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Stats reports the cumulative worker RPC count (handshake and row fetches),
// how many of those were retries after a transient failure, and the total
// rows fetched.
func (r *RemoteCSR) Stats() (rpcs, retries, fetched int64) {
	rpcs, retries = r.Fleet.Stats()
	return rpcs, retries, r.fetched.Load()
}

// QueryStats is one Session's row-serving footprint, surfaced to clients via
// the engine Response's debug field: together the numbers prove the
// O(touched) property per query (Fetched never exceeds the rows the searcher
// touched, and a fully cached re-run shows RPCs == 0).
type QueryStats struct {
	// Fetched is the number of rows this query pulled over the network.
	Fetched int64 `json:"fetched"`
	// RPCs is the number of row-fetch calls issued (including retries).
	RPCs int64 `json:"rpcs"`
	// CacheHits and CacheMisses count this query's row-cache probes.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
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
		waveNodes:   make([][]graph.NodeID, r.Workers()),
		waveEntries: make([][]*cacheEntry, r.Workers()),
	}
}

// Stats returns the session's row-serving counters so far.
func (s *Session) Stats() QueryStats { return s.stats }

// Err implements graph.Rows: the first row-fetch failure of the session, with
// its transport classification intact (errors.As, distributed.IsTransient),
// or the context's error when the query was cancelled while reading.
func (s *Session) Err() error { return s.err }

// NumNodes implements graph.Rows.
func (s *Session) NumNodes() int { return s.r.NumNodes() }

// OutDegree implements graph.Rows from the dense connect-time array.
func (s *Session) OutDegree(v graph.NodeID) int { return int(s.r.outDeg[v]) }

// OutSum implements graph.Rows from the dense connect-time array.
func (s *Session) OutSum(v graph.NodeID) float64 { return s.r.OutSums()[v] }

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
// and waiting on a concurrent fetch when one is in flight — whose completion is
// this session's hit (no RPC of our own), and whose failure, possibly the other
// query's own cancellation, this session retries on its own budget (Cache.Do).
func (s *Session) row(v graph.NodeID) distributed.RowData {
	if s.err != nil {
		return distributed.RowData{}
	}
	stripe := int(v) % s.r.Workers()
	owned := false
	row, err := s.r.cache.Do(s.ctx, cacheKey{content: s.r.Content(stripe), node: v}, func() (distributed.RowData, error) {
		owned = true
		s.stats.CacheMisses++
		rows, err := s.fetch(s.ctx, stripe, []graph.NodeID{v}, nil)
		if err != nil {
			return distributed.RowData{}, err
		}
		return rows[0], nil
	})
	if err != nil {
		s.err = err
	} else if !owned {
		s.stats.CacheHits++
	}
	return row // empty when the read failed
}

// Prefetch implements graph.RowPrefetcher: it claims every missing row of the
// wave and fetches each stripe's share in one batched RPC, stripes in
// parallel. Rows already cached or already in flight are skipped — in-flight
// fetches complete before the searcher reads the row, because the wave's
// subsequent OutRow/InRow calls wait on them. Duplicate nodes in the wave are
// fine. A fetch that fails after the retry budget fails the session, like the
// read path, and cancels the wave's other fetches; a failed session prefetches
// nothing.
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
		stripe := int(v) % s.r.Workers()
		_, e, state := s.r.cache.Probe(cacheKey{content: s.r.Content(stripe), node: v})
		switch state {
		case lru.Hit:
			s.stats.CacheHits++
		case lru.Owned:
			s.stats.CacheMisses++
			if len(s.waveNodes[stripe]) == 0 {
				stripes++
			}
			s.waveNodes[stripe] = append(s.waveNodes[stripe], v)
			s.waveEntries[stripe] = append(s.waveEntries[stripe], e)
		}
		// lru.Wait: another query's in-flight fetch covers it; skip.
	}
	if stripes == 0 {
		return
	}
	// One task per stripe on as many goroutines as the wave has stripes, so
	// every stripe's RPC is in flight at once. fetch resolves the claims of
	// the stripes it ran; those of stripes a failure kept from starting are
	// failed here.
	err := fan.Do(s.ctx, len(s.waveNodes), stripes, func(ctx context.Context, stripe int) error {
		if len(s.waveNodes[stripe]) == 0 {
			return nil
		}
		_, err := s.fetch(ctx, stripe, s.waveNodes[stripe], s.waveEntries[stripe])
		s.waveEntries[stripe] = s.waveEntries[stripe][:0]
		return err
	})
	if err != nil {
		s.err = err
		for _, entries := range s.waveEntries {
			for _, e := range entries {
				s.r.cache.Fail(e, err)
			}
		}
	}
}

// fetch pulls the given rows from one stripe in a single RPC (with retries),
// validates that the fleet still serves the pinned snapshot, and resolves the
// wave's claimed entries (row has none: Cache.Do resolves its own) — completed
// on success, failed on error, so no future request ever hangs on a leaked
// in-flight slot. Stats updates are atomic because Prefetch runs one fetch per
// stripe concurrently, each under its own fan.Do task's ctx.
func (s *Session) fetch(ctx context.Context, stripe int, nodes []graph.NodeID, entries []*cacheEntry) ([]distributed.RowData, error) {
	batch, err := distributed.Call(ctx, s.r.Fleet, stripe, func(ctx context.Context) (distributed.RowBatch, error) {
		atomic.AddInt64(&s.stats.RPCs, 1)
		return s.r.ts[stripe].FetchRows(ctx, s.r.GraphFingerprint(), nodes)
	})
	if err == nil {
		err = s.validate(stripe, nodes, batch)
	}
	for i, e := range entries {
		if err != nil {
			s.r.cache.Fail(e, err)
		} else {
			s.r.cache.Complete(e, batch.Rows[i])
		}
	}
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&s.stats.Fetched, int64(len(nodes)))
	s.r.fetched.Add(int64(len(nodes)))
	return batch.Rows, nil
}

// validate cross-checks a batch against the pinned snapshot and the request,
// and holds both halves of every fetched row to graph.CheckRow — once per
// fetched row, never on a cache hit; any mismatch is a protocol violation
// (non-transient) because retrying a worker that answered from the wrong
// snapshot, or with edges no graph of this size has, cannot help. The searcher
// indexes its per-node arrays by the columns it reads, so nothing the wire
// says reaches it unchecked.
func (s *Session) validate(stripe int, nodes []graph.NodeID, batch distributed.RowBatch) error {
	if batch.Epoch != s.r.Epoch() || batch.Content != s.r.Content(stripe) {
		return fmt.Errorf("rowserve: stripe %d answered from epoch %d content %08x, pinned to epoch %d content %08x",
			stripe, batch.Epoch, batch.Content, s.r.Epoch(), s.r.Content(stripe))
	}
	if len(batch.Rows) != len(nodes) {
		return fmt.Errorf("rowserve: stripe %d returned %d rows for %d requested", stripe, len(batch.Rows), len(nodes))
	}
	n := s.r.NumNodes()
	for i, row := range batch.Rows {
		if row.Node != nodes[i] {
			return fmt.Errorf("rowserve: stripe %d returned row %d at position %d, requested %d", stripe, row.Node, i, nodes[i])
		}
		_, err := graph.CheckRow(row.Node, row.OutTo, row.OutW, n)
		if err == nil {
			_, err = graph.CheckRow(row.Node, row.InFrom, row.InW, n)
		}
		if err != nil {
			return fmt.Errorf("rowserve: stripe %d row %d: %w", stripe, row.Node, err)
		}
	}
	return nil
}
