// Package scratch provides the flat per-query state backing the online top-K
// hot path: generation-stamped dense arrays that behave like sparse maps over
// node IDs without hashing or per-query clearing, and an index-keyed d-ary
// max-heap with in-place decrease-key (heap.go).
//
// The trick is the standard epoch-stamping discipline of bookmark-coloring
// implementations: every structure keeps a dense value array sized to
// NumNodes plus a parallel stamp array, and a slot is "present" only when its
// stamp equals the structure's current generation. Reset bumps the generation
// in O(1) — no clearing — and a compact touched list records the present
// slots in insertion order for sparse iteration. A whole query's worth of
// scratch therefore resets in constant time and allocates nothing in steady
// state; the owning searcher recycles it across queries through a sync.Pool
// (see internal/topk).
//
// The memory cost is O(NumNodes) per structure regardless of how small the
// query's neighborhood is, which is exactly the trade the walk kernels
// already make, so only what must be looked up by node ID is dense: Bounds
// keeps a node → slot index and stores its values by slot, sized by the
// neighborhood. docs/TUNING.md discusses the resulting pool footprint.
package scratch

import "roundtriprank/internal/graph"

// Floats is a dense float64-valued map over node IDs with O(1) reset.
// The zero value is empty; Reset must be called before use.
type Floats struct {
	val     []float64
	stamp   []uint32
	gen     uint32
	touched []graph.NodeID
}

// Reset empties the map and (re)sizes it for node IDs in [0, n). Previously
// allocated capacity is reused; growing past it allocates once.
func (m *Floats) Reset(n int) {
	m.touched = m.touched[:0]
	m.val = growFloats(m.val, n)
	m.stamp = growStamps(m.stamp, n)
	m.gen++
	if m.gen == 0 { // generation wraparound: stale stamps could alias
		clear(m.stamp)
		m.gen = 1
	}
}

// Len returns the number of present slots.
func (m *Floats) Len() int { return len(m.touched) }

// Has reports whether v is present.
func (m *Floats) Has(v graph.NodeID) bool { return m.stamp[v] == m.gen }

// Get returns the value at v, zero when absent.
func (m *Floats) Get(v graph.NodeID) float64 {
	if m.stamp[v] != m.gen {
		return 0
	}
	return m.val[v]
}

// Set stores x at v, marking it present.
func (m *Floats) Set(v graph.NodeID, x float64) {
	m.touch(v)
	m.val[v] = x
}

// Add adds x to the value at v (absent counts as zero) and returns the new
// value.
func (m *Floats) Add(v graph.NodeID, x float64) float64 {
	m.touch(v)
	m.val[v] += x
	return m.val[v]
}

func (m *Floats) touch(v graph.NodeID) {
	if m.stamp[v] != m.gen {
		m.stamp[v] = m.gen
		m.val[v] = 0
		m.touched = append(m.touched, v)
	}
}

// Touched returns the present node IDs in insertion order. The slice aliases
// internal storage: it is valid until the next Reset and must not be mutated.
func (m *Floats) Touched() []graph.NodeID { return m.touched }

// Each calls fn for every present slot in insertion order.
func (m *Floats) Each(fn func(v graph.NodeID, x float64)) {
	for _, v := range m.touched {
		fn(v, m.val[v])
	}
}

// Ints is a dense int-valued map over node IDs with O(1) reset. Unlike
// Floats it keeps no touched list; it is for state keyed by nodes that belong
// to no neighborhood yet, and so have no slot (FFlat's parked chains). The
// zero value is empty; Reset must be called before use.
type Ints struct {
	val   []int32
	stamp []uint32
	gen   uint32
}

// Reset empties the map and (re)sizes it for node IDs in [0, n).
func (m *Ints) Reset(n int) {
	m.val = growInts(m.val, n)
	m.stamp = growStamps(m.stamp, n)
	m.gen++
	if m.gen == 0 {
		clear(m.stamp)
		m.gen = 1
	}
}

// Get returns the value at v, zero when absent.
func (m *Ints) Get(v graph.NodeID) int {
	if m.stamp[v] != m.gen {
		return 0
	}
	return int(m.val[v])
}

// Set stores x at v.
func (m *Ints) Set(v graph.NodeID, x int) {
	m.stamp[v] = m.gen
	m.val[v] = int32(x)
}

// Bounds is the per-node lower/upper bound pair of the two-stage framework:
// a stamped membership index over node IDs — node → slot, the node's position
// in Touched — with both bounds stored by slot, in insertion order. The dense
// part is the index alone (8 B/node); the bounds grow with the neighborhood,
// and a kernel that works in slot order (the Stage-II refinement) sweeps them
// in place through Slots instead of keeping a copy. The zero value is empty;
// Reset must be called before use.
type Bounds struct {
	lo, up  []float64 // by slot, parallel to touched
	pos     []int32   // node -> slot
	stamp   []uint32
	gen     uint32
	touched []graph.NodeID
}

// Reset empties the set and (re)sizes it for node IDs in [0, n).
func (b *Bounds) Reset(n int) {
	b.touched, b.lo, b.up = b.touched[:0], b.lo[:0], b.up[:0]
	b.pos = growInts(b.pos, n)
	b.stamp = growStamps(b.stamp, n)
	b.gen++
	if b.gen == 0 {
		clear(b.stamp)
		b.gen = 1
	}
}

// Len returns the neighborhood size.
func (b *Bounds) Len() int { return len(b.touched) }

// Seen reports whether v is in the neighborhood.
func (b *Bounds) Seen(v graph.NodeID) bool { return b.stamp[v] == b.gen }

// Lower returns the lower bound of v, zero when unseen.
func (b *Bounds) Lower(v graph.NodeID) float64 {
	if b.stamp[v] != b.gen {
		return 0
	}
	return b.lo[b.pos[v]]
}

// Upper returns the upper bound of v and whether v is seen.
func (b *Bounds) Upper(v graph.NodeID) (float64, bool) {
	if b.stamp[v] != b.gen {
		return 0, false
	}
	return b.up[b.pos[v]], true
}

// Get returns both bounds of v and whether v is seen.
func (b *Bounds) Get(v graph.NodeID) (lo, up float64, seen bool) {
	if b.stamp[v] != b.gen {
		return 0, 0, false
	}
	slot := b.pos[v]
	return b.lo[slot], b.up[slot], true
}

// Index returns the slot of v — its position in Touched — and whether v is
// seen.
func (b *Bounds) Index(v graph.NodeID) (int32, bool) {
	if b.stamp[v] != b.gen {
		return 0, false
	}
	return b.pos[v], true
}

// Set stores both bounds of v, adding it to the neighborhood (in the next
// slot) if new.
func (b *Bounds) Set(v graph.NodeID, lo, up float64) {
	if b.stamp[v] != b.gen {
		b.stamp[v] = b.gen
		b.pos[v] = int32(len(b.touched))
		b.touched = append(b.touched, v)
		b.lo, b.up = append(b.lo, lo), append(b.up, up)
		return
	}
	slot := b.pos[v]
	b.lo[slot], b.up[slot] = lo, up
}

// Touched returns the seen node IDs in insertion order. The slice aliases
// internal storage: it is valid until the next Reset and must not be mutated.
func (b *Bounds) Touched() []graph.NodeID { return b.touched }

// Slots returns the lower and upper bounds by slot, parallel to Touched. The
// slices are the storage itself: writing an entry sets that node's bound, and
// they are valid until the next Set of an unseen node or Reset.
func (b *Bounds) Slots() (lo, up []float64) { return b.lo, b.up }

// Each calls fn for every seen node in insertion order.
func (b *Bounds) Each(fn func(v graph.NodeID, lo, up float64)) {
	for slot, v := range b.touched {
		fn(v, b.lo[slot], b.up[slot])
	}
}

// growFloats reslices s to length n, allocating only when n exceeds its
// capacity. Newly exposed slots carry stale values; the stamp discipline
// makes them unreadable until written.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInts(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// growStamps reslices s to length n. Slots beyond the previous length must
// read as "absent", so a grow within capacity clears the newly exposed tail
// (those slots may hold stamps from a larger, older graph).
func growStamps(s []uint32, n int) []uint32 {
	if cap(s) < n {
		out := make([]uint32, n)
		copy(out, s)
		return out
	}
	old := len(s)
	s = s[:n]
	if n > old {
		clear(s[old:])
	}
	return s
}
