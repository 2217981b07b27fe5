package lru

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// vkey mirrors the engine's vector-cache key: a node at an epoch.
type vkey struct {
	node  int
	epoch uint64
}

// valueOf returns a compute func yielding v, counting its calls.
func valueOf(v float64, calls *atomic.Int64) func() (float64, error) {
	return func() (float64, error) {
		if calls != nil {
			calls.Add(1)
		}
		return v, nil
	}
}

func TestEvictsLRUWhenFull(t *testing.T) {
	c := New[vkey, float64](2)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := c.Do(ctx, vkey{i, 0}, valueOf(float64(i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	if size := c.Len(); size != 2 {
		t.Fatalf("size %d after overflow, want 2", size)
	}
	if _, _, evictions := c.Stats(); evictions != 1 {
		t.Fatalf("%d evictions after overflowing by one, want 1", evictions)
	}
	// Key 0 was least recently used and must have been evicted: getting it
	// again recomputes.
	var calls atomic.Int64
	if _, err := c.Do(ctx, vkey{0, 0}, valueOf(0, &calls)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("evicted key served from cache (%d computes)", calls.Load())
	}
	// Key 2 is hot and must still be cached.
	calls.Store(0)
	if _, err := c.Do(ctx, vkey{2, 0}, valueOf(2, &calls)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Fatalf("hot key recomputed")
	}
}

// TestZeroCapacity pins the degenerate cache: every completed entry is
// evicted immediately, yet Do still returns correct values and in-flight
// deduplication still works (the entry lives in the map until its compute
// finishes).
func TestZeroCapacity(t *testing.T) {
	c := New[vkey, float64](0)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		v, err := c.Do(ctx, vkey{7, 0}, valueOf(42, nil))
		if err != nil {
			t.Fatal(err)
		}
		if v != 42 {
			t.Fatalf("got %v, want 42", v)
		}
		if size := c.Len(); size != 0 {
			t.Fatalf("zero-capacity cache retained %d entries", size)
		}
	}

	// In-flight dedup at capacity zero: a second request for a key whose
	// compute is running must share it. The owner is parked inside compute
	// when the test probes, so the probe is ordered after the claim and
	// before the zero-capacity eviction.
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	ownerDone := make(chan error, 1)
	go func() {
		_, err := c.Do(ctx, vkey{8, 0}, func() (float64, error) {
			calls.Add(1)
			close(started)
			<-release
			return 1, nil
		})
		ownerDone <- err
	}()
	<-started
	_, e, state := c.Probe(vkey{8, 0})
	if state != Wait {
		t.Fatalf("probe of an in-flight key: state %d, want Wait", state)
	}
	close(release)
	if v, err := c.Wait(ctx, e); err != nil || v != 1 {
		t.Fatalf("wait delivered %v, %v; want the owner's 1", v, err)
	}
	if err := <-ownerDone; err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("%d computes for one key, want 1 (dedup)", calls.Load())
	}
	if hits, misses, _ := c.Stats(); hits != 1 || misses != 4 || c.Len() != 0 {
		t.Fatalf("stats %d hits / %d misses / %d entries, want 1 / 4 / 0", hits, misses, c.Len())
	}
}

func TestKeysDoNotAliasAndDeleteFunc(t *testing.T) {
	c := New[vkey, float64](8)
	ctx := context.Background()
	v0, err := c.Do(ctx, vkey{1, 0}, valueOf(10, nil))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := c.Do(ctx, vkey{1, 1}, valueOf(11, nil))
	if err != nil {
		t.Fatal(err)
	}
	if v0 != 10 || v1 != 11 {
		t.Fatalf("epochs aliased: %v %v", v0, v1)
	}
	hits, misses, _ := c.Stats()
	if hits != 0 || misses != 2 || c.Len() != 2 {
		t.Fatalf("stats %d/%d/%d, want 0 hits, 2 misses, 2 entries", hits, misses, c.Len())
	}

	notEpoch1 := func(k vkey) bool { return k.epoch != 1 }
	c.DeleteFunc(notEpoch1)
	if size := c.Len(); size != 1 {
		t.Fatalf("DeleteFunc left %d entries, want 1", size)
	}
	if _, _, evictions := c.Stats(); evictions != 0 {
		t.Fatalf("DeleteFunc counted %d evictions", evictions)
	}
	var calls atomic.Int64
	if _, err := c.Do(ctx, vkey{1, 1}, valueOf(0, &calls)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Fatal("current epoch's entry was invalidated")
	}
	if _, err := c.Do(ctx, vkey{1, 0}, valueOf(12, &calls)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatal("stale epoch's entry survived invalidation")
	}
}

// TestDeleteFuncDuringFill races DeleteFunc against an in-flight compute: the
// in-flight entry must not be detached from its waiters (both getters see the
// computed value exactly once), and a subsequent DeleteFunc drops the
// completed stale entry.
func TestDeleteFuncDuringFill(t *testing.T) {
	c := New[vkey, float64](4)
	ctx := context.Background()
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	blocked := func() (float64, error) {
		calls.Add(1)
		close(started)
		<-release
		return 5, nil
	}

	var wg sync.WaitGroup
	results := make([]float64, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			compute := blocked
			if i == 1 {
				compute = valueOf(999, &calls) // must never run: dedup on the owner
			}
			v, err := c.Do(ctx, vkey{3, 0}, compute)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = v
		}()
		if i == 0 {
			<-started
		}
	}

	// The fill is in flight on epoch 0; an Apply-style invalidation for epoch
	// 1 must skip it.
	notEpoch1 := func(k vkey) bool { return k.epoch != 1 }
	c.DeleteFunc(notEpoch1)
	if size := c.Len(); size != 0 {
		t.Fatalf("size %d during the fill, want 0 (in-flight entries are not counted)", size)
	}
	close(release)
	wg.Wait()
	if results[0] != 5 || results[1] != 5 {
		t.Fatalf("waiters got %v, want the in-flight value 5", results)
	}
	if calls.Load() != 1 {
		t.Fatalf("%d computes, want 1", calls.Load())
	}

	// Now completed and stale: the next invalidation removes it.
	if size := c.Len(); size != 1 {
		t.Fatalf("size %d after fill, want 1", size)
	}
	c.DeleteFunc(notEpoch1)
	if size := c.Len(); size != 0 {
		t.Fatalf("completed stale entry survived invalidation (size %d)", size)
	}
}

// TestSingleFlight hammers one cold key from many goroutines: exactly one
// compute may run, everyone else waits on it or hits its result.
func TestSingleFlight(t *testing.T) {
	c := New[int, float64](4)
	ctx := context.Background()
	const goroutines = 16
	var calls atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if v, err := c.Do(ctx, 0, valueOf(6, &calls)); err != nil || v != 6 {
				t.Errorf("Do = %v, %v; want 6", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("%d goroutines computed the key %d times, want 1", goroutines, calls.Load())
	}
	if hits, misses, _ := c.Stats(); hits != goroutines-1 || misses != 1 {
		t.Fatalf("%d hits / %d misses, want %d / 1", hits, misses, goroutines-1)
	}
}

// TestFailureIsNotCached fails a claimed entry and checks the next probe
// claims the slot again instead of inheriting the failure.
func TestFailureIsNotCached(t *testing.T) {
	c := New[int, string](4)
	_, e, state := c.Probe(2)
	if state != Owned {
		t.Fatalf("first probe: state %v, want owned", state)
	}
	c.Fail(e, errors.New("boom"))
	_, e2, state := c.Probe(2)
	if state != Owned {
		t.Fatalf("probe after failure: state %v, want owned (failure must not be cached)", state)
	}
	c.Complete(e2, "row 2")
	if v, _, state := c.Probe(2); state != Hit || v != "row 2" {
		t.Fatalf("probe after completion: state %v value %q", state, v)
	}
}

// TestWaiterOfFailedOwnerCountsOnce pins the accounting rule: a waiter is not
// a hit until its wait delivers. One whose owner fails sees the owner's error,
// retries, and is counted once — as the miss of its own fill.
func TestWaiterOfFailedOwnerCountsOnce(t *testing.T) {
	c := New[int, float64](4)
	ctx := context.Background()
	_, owner, _ := c.Probe(1)
	_, e, state := c.Probe(1)
	if state != Wait {
		t.Fatalf("second probe: state %v, want Wait", state)
	}
	boom := errors.New("boom")
	c.Fail(owner, boom)
	if _, err := c.Wait(ctx, e); !errors.Is(err, boom) {
		t.Fatalf("wait returned %v, want the owner's error", err)
	}
	if v, err := c.Do(ctx, 1, valueOf(3, nil)); err != nil || v != 3 {
		t.Fatalf("retry = %v, %v; want 3", v, err)
	}
	if hits, misses, _ := c.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("%d hits / %d misses, want 0 / 2", hits, misses)
	}

	// A waiter whose own context ends gets that error and counts as nothing.
	_, owner, _ = c.Probe(2)
	_, e, _ = c.Probe(2)
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.Wait(dead, e); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait returned %v", err)
	}
	c.Complete(owner, 4)
	if hits, misses, _ := c.Stats(); hits != 0 || misses != 3 {
		t.Fatalf("%d hits / %d misses after a cancelled wait, want 0 / 3", hits, misses)
	}
}

// model is the reference the cache is checked against: completed entries as a
// recency slice (most recent first), claims as a plain map.
type model struct {
	capacity                int
	recent                  []int
	values                  map[int]int
	claimed                 map[int]bool
	hits, misses, evictions int64
}

// probe mirrors Cache.Probe.
func (m *model) probe(k int) State {
	if i := slices.Index(m.recent, k); i >= 0 {
		m.hits++
		m.recent = slices.Insert(slices.Delete(m.recent, i, i+1), 0, k)
		return Hit
	}
	if m.claimed[k] {
		return Wait
	}
	m.misses++
	m.claimed[k] = true
	return Owned
}

// resolve mirrors Complete (ok) and Fail (!ok).
func (m *model) resolve(k, v int, ok bool) {
	delete(m.claimed, k)
	if !ok {
		return
	}
	m.values[k] = v
	m.recent = slices.Insert(m.recent, 0, k)
	for len(m.recent) > m.capacity {
		delete(m.values, m.recent[len(m.recent)-1])
		m.recent = m.recent[:len(m.recent)-1]
		m.evictions++
	}
}

// TestModel drives random Probe/Complete/Fail/Do/DeleteFunc sequences against
// the reference: same state per probe, same values, and after every op the
// same retained key set in the same recency order, the same in-flight set and
// the same counters.
func TestModel(t *testing.T) {
	const keys, draws = 8, 1000
	ctx := context.Background()
	for _, capacity := range []int{0, 1, 3, keys} {
		rng := rand.New(rand.NewSource(int64(capacity) + 1))
		c := New[int, int](capacity)
		m := &model{capacity: capacity, values: map[int]int{}, claimed: map[int]bool{}}
		var owned [keys]*Entry[int, int] // this goroutine's unresolved claims
		for draw := 0; draw < draws; draw++ {
			k, v := rng.Intn(keys), rng.Int()
			ok := rng.Intn(3) > 0 // a fill succeeds two times in three
			switch op := rng.Intn(10); {
			case op < 4: // Probe; a claim stays in flight until resolved below
				got, e, state := c.Probe(k)
				if want := m.probe(k); state != want {
					t.Fatalf("cap %d draw %d: Probe(%d) state %d, model %d", capacity, draw, k, state, want)
				}
				if state == Hit && got != m.values[k] {
					t.Fatalf("cap %d draw %d: Probe(%d) = %d, model %d", capacity, draw, k, got, m.values[k])
				}
				if state == Owned {
					owned[k] = e
				}
			case op < 7: // resolve the first claim at or after k, if any
				for i := 0; i < keys && owned[k] == nil; i++ {
					k = (k + 1) % keys
				}
				if owned[k] == nil {
					continue
				}
				if ok {
					c.Complete(owned[k], v)
				} else {
					c.Fail(owned[k], errors.New("fill failed"))
				}
				m.resolve(k, v, ok)
				owned[k] = nil
			case op < 9: // Do on a key this goroutine holds no claim on (it would wait on itself)
				if owned[k] != nil {
					continue
				}
				want, wantOK := v, ok
				if m.probe(k) == Hit {
					want, wantOK = m.values[k], true
				} else {
					m.resolve(k, v, ok)
				}
				got, err := c.Do(ctx, k, func() (int, error) {
					if !ok {
						return 0, errors.New("compute failed")
					}
					return v, nil
				})
				if (err == nil) != wantOK || (wantOK && got != want) {
					t.Fatalf("cap %d draw %d: Do(%d) = %d, %v; model %d, ok %v", capacity, draw, k, got, err, want, wantOK)
				}
			default:
				odd := rng.Intn(2)
				del := func(k int) bool { return k%2 == odd }
				c.DeleteFunc(del)
				m.recent = slices.DeleteFunc(m.recent, del)
			}

			var ring []int
			for e := c.ring.next; e != &c.ring; e = e.next {
				ring = append(ring, e.key)
			}
			if !slices.Equal(ring, m.recent) || c.Len() != len(m.recent) {
				t.Fatalf("cap %d draw %d: retains %v (Len %d), model %v", capacity, draw, ring, c.Len(), m.recent)
			}
			if len(c.entries) != len(ring)+len(m.claimed) {
				t.Fatalf("cap %d draw %d: map holds %d entries, want %d retained + %d in flight", capacity, draw, len(c.entries), len(ring), len(m.claimed))
			}
			if h, mi, ev := c.Stats(); h != m.hits || mi != m.misses || ev != m.evictions {
				t.Fatalf("cap %d draw %d: stats %d/%d/%d, model %d/%d/%d", capacity, draw, h, mi, ev, m.hits, m.misses, m.evictions)
			}
		}
	}
}

// TestStress runs goroutines × Do over a small key space, the compute failing
// one time in three and one call in ten giving up on a cancelled context: a
// call that returns a value returns its key's, a call that returns an error
// returns its own compute's or its own context's (never another owner's — it
// retries instead), no claim is left in the map, Len never exceeds Capacity,
// and the counters are exact — one miss per compute, one hit per value served
// without one. Run under -race this is the check of the claim/wait/publish
// windows.
func TestStress(t *testing.T) {
	const goroutines, iters, keys, capacity = 8, 400, 6, 4
	c := New[int, int](capacity)
	var computes, served atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				k := rng.Intn(keys)
				ctx, cancel := context.WithCancel(context.Background())
				cancelled := rng.Intn(10) == 0
				if cancelled {
					cancel()
				}
				mine := errors.New("compute failed")
				fails, owned := rng.Intn(3) == 0, false
				v, err := c.Do(ctx, k, func() (int, error) {
					computes.Add(1)
					owned = true
					if fails {
						return 0, mine
					}
					return 100 + k, nil
				})
				switch {
				case err == nil && v != 100+k:
					t.Errorf("Do(%d) = %d, want %d", k, v, 100+k)
				case err == nil && !owned:
					served.Add(1)
				case err != nil && !errors.Is(err, mine) && !(cancelled && errors.Is(err, context.Canceled)):
					t.Errorf("Do(%d) returned another call's error: %v", k, err)
				}
				if n := c.Len(); n > capacity {
					t.Errorf("Len %d over capacity %d", n, capacity)
				}
				cancel()
			}
		}()
	}
	wg.Wait()
	if len(c.entries) != c.size || c.size > capacity {
		t.Fatalf("%d map entries for %d completed ones (capacity %d): a claim leaked", len(c.entries), c.size, capacity)
	}
	if hits, misses, _ := c.Stats(); hits != served.Load() || misses != computes.Load() {
		t.Fatalf("%d hits / %d misses for %d values served from the cache and %d computes", hits, misses, served.Load(), computes.Load())
	}
}
