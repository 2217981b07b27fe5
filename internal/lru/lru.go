// Package lru is the one single-flight LRU store of the tree: the engine's
// vector cache and internal/rowserve's row cache are two instances of Cache.
//
// An entry is claimed before it is filled. Until resolved it is "in flight":
// in the map, so concurrent requests for the key dedup onto it, but outside
// the recency ring, so it cannot be evicted under its owner and counts towards
// neither Len nor the capacity. Complete moves it into the ring and evicts
// past capacity (capacity 0 retains nothing yet still dedups in-flight fills);
// Fail removes it, so a failure is never cached and the next request retries.
// A hit is a Probe that returns a value or a Wait that delivers one; a miss is
// a claim.
package lru

import (
	"context"
	"sync"
)

// Entry is one slot, the handle of a Wait or Owned probe. Complete/Fail publish
// val/err before closing done; waiters then read them without the lock.
type Entry[K comparable, V any] struct {
	key        K
	prev, next *Entry[K, V] // ring links; nil while in flight
	done       chan struct{}
	val        V
	err        error
}

// State classifies one Probe.
type State int

const (
	Hit  State = iota // the value is cached; Probe returned it
	Wait              // another fill of the key is in flight; Wait on the entry
	// Owned: the probe claimed the slot; the caller MUST resolve the entry
	// with Complete or Fail, or every later request for the key hangs.
	Owned
)

// Cache is a concurrency-safe LRU of completed entries with single-flight fills.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[K]*Entry[K, V]
	ring     Entry[K, V] // sentinel; ring.next is the most recently used
	size     int         // completed entries, all in the ring

	hits, misses, evictions int64
}

// New returns a cache retaining up to capacity completed entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	c := &Cache[K, V]{capacity: max(capacity, 0), entries: make(map[K]*Entry[K, V])}
	c.ring.prev, c.ring.next = &c.ring, &c.ring
	return c
}

// Capacity returns the configured capacity.
func (c *Cache[K, V]) Capacity() int { return c.capacity }

// Len returns the number of completed entries currently cached.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// Stats returns the cumulative hit, miss and eviction (not DeleteFunc) counts.
func (c *Cache[K, V]) Stats() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// Probe returns k's value on a Hit, else the entry to Wait on or (Owned) to
// resolve. It is the batch-claim primitive: a caller may claim many keys, fill
// them in one operation and resolve every claimed entry.
func (c *Cache[K, V]) Probe(k K) (v V, e *Entry[K, V], state State) {
	c.mu.Lock()
	e, ok := c.entries[k]
	if ok && e.next != nil {
		c.hits++
		c.unlink(e)
		c.pushFront(e)
		c.mu.Unlock()
		return e.val, e, Hit // val is immutable once completed
	}
	state = Wait
	if !ok {
		c.misses++
		e, state = &Entry[K, V]{key: k, done: make(chan struct{})}, Owned
		c.entries[k] = e
	}
	c.mu.Unlock()
	return v, e, state
}

// Complete publishes v on a claimed entry as the most recently used and
// evicts the least recently used ones past capacity.
func (c *Cache[K, V]) Complete(e *Entry[K, V], v V) {
	c.mu.Lock()
	e.val = v
	c.pushFront(e)
	for c.size > c.capacity {
		delete(c.entries, c.ring.prev.key)
		c.unlink(c.ring.prev)
		c.evictions++
	}
	c.mu.Unlock()
	close(e.done)
}

// Fail resolves a claimed entry with err and forgets it, so the next request
// for the key retries the fill instead of inheriting the failure.
func (c *Cache[K, V]) Fail(e *Entry[K, V], err error) {
	c.mu.Lock()
	e.err = err
	delete(c.entries, e.key)
	c.mu.Unlock()
	close(e.done)
}

// Wait blocks until e is resolved or ctx ends. It returns the owner's value,
// counting the hit only now — the fill may yet fail, and then the caller
// retries and is counted by that probe — or the owner's error, or ctx's.
func (c *Cache[K, V]) Wait(ctx context.Context, e *Entry[K, V]) (v V, err error) {
	select {
	case <-e.done:
	case <-ctx.Done():
		return v, ctx.Err()
	}
	if e.err == nil {
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
	}
	return e.val, e.err
}

// Do returns k's value, filling it with compute when this call claims the
// slot: concurrent calls for one key share a single compute. A failed compute
// is returned to its caller and not cached; a waiter whose owner failed —
// possibly by its own cancellation, which says nothing about this caller —
// retries to own the key unless its own ctx has ended.
func (c *Cache[K, V]) Do(ctx context.Context, k K, compute func() (V, error)) (v V, err error) {
	for {
		var e *Entry[K, V]
		var state State
		switch v, e, state = c.Probe(k); state {
		case Hit:
			return v, nil
		case Owned:
			if v, err = compute(); err != nil {
				c.Fail(e, err)
			} else {
				c.Complete(e, v)
			}
			return v, err
		}
		if v, err = c.Wait(ctx, e); err == nil {
			return v, nil
		} else if ctx.Err() != nil {
			return v, ctx.Err()
		} // else the owner failed: retry to own the key
	}
}

// DeleteFunc removes every completed entry whose key satisfies del (called
// under the lock: it must not use the cache). In-flight entries are left
// alone: their waiters are blocked on the fill.
func (c *Cache[K, V]) DeleteFunc(del func(K) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.ring.next; e != &c.ring; {
		next := e.next
		if del(e.key) {
			delete(c.entries, e.key)
			c.unlink(e)
		}
		e = next
	}
}

func (c *Cache[K, V]) pushFront(e *Entry[K, V]) {
	e.prev, e.next = &c.ring, c.ring.next
	e.prev.next, e.next.prev = e, e
	c.size++
}

func (c *Cache[K, V]) unlink(e *Entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	c.size--
}
