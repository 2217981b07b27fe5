package rowserve

import (
	"sync"

	"roundtriprank/internal/distributed"
	"roundtriprank/internal/graph"
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

// cacheEntry is one row slot. Between claim and resolution it is "in flight":
// present in the map (so concurrent requests for the same row dedup onto it,
// the single-flight discipline) but absent from the LRU list (so it cannot be
// evicted under the fetching query). complete/fail publish row/err before
// closing done; waiters read them without a lock after the channel closes.
type cacheEntry struct {
	key        cacheKey
	prev, next *cacheEntry
	done       chan struct{}
	resolved   bool // guarded by Cache.mu; true after complete (not fail)
	row        distributed.RowData
	err        error
}

// probeState classifies one cache probe.
type probeState int

const (
	// probeHit: the row is cached; the probe returned it.
	probeHit probeState = iota
	// probeWait: another fetch of this row is in flight; wait on its entry.
	probeWait
	// probeOwned: the probe claimed the slot; the caller MUST resolve the
	// entry with complete or fail, or every later request for the row hangs.
	probeOwned
)

// Cache is the concurrency-safe LRU row cache behind RemoteCSR. One Cache is
// typically shared by every RemoteCSR an engine connects across epochs
// (content-fingerprint keys make sharing safe, see cacheKey); it is the
// coordinator-side "active set" of the paper's AP, bounded instead of
// unbounded.
type Cache struct {
	mu       sync.Mutex
	capacity int
	entries  map[cacheKey]*cacheEntry
	lru      cacheEntry // sentinel of the completed-entry LRU ring
	size     int        // completed entries in the ring

	hits, misses, evictions int64
}

// NewCache returns a cache holding up to capacity rows (DefaultCacheRows when
// capacity <= 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheRows
	}
	c := &Cache{capacity: capacity, entries: make(map[cacheKey]*cacheEntry)}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// Capacity returns the configured row capacity.
func (c *Cache) Capacity() int { return c.capacity }

// Len returns the number of completed rows currently cached.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// Stats returns the cumulative hit, miss and eviction counts. A miss is
// counted when a probe claims the slot (one per fetched row), a hit when a
// probe returns a cached row or a wait on another query's in-flight fetch
// delivers one (it cost no RPC; see waitHit). Hits and misses are therefore
// the sums of the sessions' QueryStats.CacheHits and CacheMisses.
func (c *Cache) Stats() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// waitHit counts a hit for a session that waited on an in-flight entry and got
// its row. probe cannot count it: the wait may yet fail, and then the session
// retries and is counted by that probe.
func (c *Cache) waitHit() {
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
}

// probe looks the key up and returns the row on a hit, or the entry to wait
// on (probeWait) or to resolve (probeOwned).
func (c *Cache) probe(k cacheKey) (distributed.RowData, *cacheEntry, probeState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok {
		if e.resolved {
			c.hits++
			c.moveToFront(e)
			return e.row, e, probeHit
		}
		return distributed.RowData{}, e, probeWait
	}
	c.misses++
	e := &cacheEntry{key: k, done: make(chan struct{})}
	c.entries[k] = e
	return distributed.RowData{}, e, probeOwned
}

// complete publishes the fetched row on a claimed entry, inserts it into the
// LRU and evicts past capacity.
func (c *Cache) complete(e *cacheEntry, row distributed.RowData) {
	c.mu.Lock()
	e.row = row
	e.resolved = true
	c.pushFront(e)
	for c.size > c.capacity {
		tail := c.lru.prev
		c.unlink(tail)
		if c.entries[tail.key] == tail {
			delete(c.entries, tail.key)
		}
		c.evictions++
	}
	c.mu.Unlock()
	close(e.done)
}

// fail resolves a claimed entry with an error and removes it from the map, so
// the next request for the row retries the fetch instead of caching failure.
func (c *Cache) fail(e *cacheEntry, err error) {
	c.mu.Lock()
	e.err = err
	if c.entries[e.key] == e {
		delete(c.entries, e.key)
	}
	c.mu.Unlock()
	close(e.done)
}

func (c *Cache) pushFront(e *cacheEntry) {
	e.prev = &c.lru
	e.next = c.lru.next
	e.prev.next = e
	e.next.prev = e
	c.size++
}

func (c *Cache) unlink(e *cacheEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
	c.size--
}

func (c *Cache) moveToFront(e *cacheEntry) {
	c.unlink(e)
	c.pushFront(e)
}
