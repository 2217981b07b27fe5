package rowserve

import (
	"roundtriprank/internal/distributed"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/lru"
)

// DefaultCacheRows is the default row-cache capacity. A cached row costs
// roughly 12 bytes per stored edge (both directions) plus ~100 bytes of
// bookkeeping, so the default tops out around tens of megabytes on typical
// degree distributions; docs/TUNING.md discusses sizing.
const DefaultCacheRows = 1 << 16

// cacheKey identifies a cached row by the content fingerprint of the stripe
// snapshot that served it, not by epoch. Commits that leave a stripe's rows
// untouched keep its content fingerprint, so those cached rows survive an
// epoch rollover for free; rows of a stripe the commit did change key under
// the new fingerprint, which makes the stale generation unreachable (the
// required invalidation) while queries still pinned to the old snapshot keep
// reading it until LRU pressure reclaims it.
type cacheKey struct {
	content uint32
	node    graph.NodeID
}

// Cache is the row store behind RemoteCSR, the coordinator-side "active set" of
// the paper's AP, bounded instead of unbounded: an internal/lru instance, which
// defines its single-flight and accounting rules (hits and misses are the sums
// of the sessions' QueryStats.CacheHits and CacheMisses). One Cache is typically
// shared by every RemoteCSR an engine connects across epochs; cacheKey makes
// that safe.
type Cache = lru.Cache[cacheKey, distributed.RowData]

// cacheEntry is one claimed or awaited row slot of a Cache.
type cacheEntry = lru.Entry[cacheKey, distributed.RowData]

// NewCache returns a cache holding up to capacity rows (DefaultCacheRows when
// capacity <= 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheRows
	}
	return lru.New[cacheKey, distributed.RowData](capacity)
}
