package scratch

import "roundtriprank/internal/graph"

// heapArity is the branching factor of the heap. A 4-ary layout halves the
// tree depth of a binary heap and keeps each node's children in one cache
// line, which wins on the sift-down-heavy pop/update mix of the BCA benefit
// selection.
const heapArity = 4

// Heap is an index-keyed d-ary max-heap over node IDs with float64
// priorities. It tracks each node's position, so a priority change moves the
// existing entry in place — there are no stale entries and no lazy
// reinsertion, and the heap size never exceeds the number of distinct live
// nodes. Position slots are generation-stamped like
// the other scratch structures, so Reset is O(1) with no clearing.
//
// The zero value is empty; Reset must be called before use.
type Heap struct {
	items []graph.NodeID // heap order
	pri   []float64      // parallel to items
	pos   []int32        // node -> index into items, -1 when removed
	stamp []uint32
	gen   uint32
}

// Reset empties the heap and (re)sizes its position index for node IDs in
// [0, n).
func (h *Heap) Reset(n int) {
	h.items = h.items[:0]
	h.pri = h.pri[:0]
	h.pos = growInts(h.pos, n)
	h.stamp = growStamps(h.stamp, n)
	h.gen++
	if h.gen == 0 {
		clear(h.stamp)
		h.gen = 1
	}
}

// Len returns the number of entries.
func (h *Heap) Len() int { return len(h.items) }

// Contains reports whether v currently has an entry.
func (h *Heap) Contains(v graph.NodeID) bool {
	return h.stamp[v] == h.gen && h.pos[v] >= 0
}

// Priority returns v's current priority and whether v has an entry.
func (h *Heap) Priority(v graph.NodeID) (float64, bool) {
	if !h.Contains(v) {
		return 0, false
	}
	return h.pri[h.pos[v]], true
}

// Update inserts v with the given priority, or changes v's priority in place
// (sifting up or down as needed) when it already has an entry.
func (h *Heap) Update(v graph.NodeID, pri float64) {
	if h.stamp[v] == h.gen && h.pos[v] >= 0 {
		i := int(h.pos[v])
		old := h.pri[i]
		h.pri[i] = pri
		if pri > old {
			h.up(i)
		} else if pri < old {
			h.down(i)
		}
		return
	}
	h.stamp[v] = h.gen
	h.pos[v] = int32(len(h.items))
	h.items = append(h.items, v)
	h.pri = append(h.pri, pri)
	h.up(len(h.items) - 1)
}

// Peek returns the highest-priority entry without removing it. ok is false
// when the heap is empty.
func (h *Heap) Peek() (v graph.NodeID, pri float64, ok bool) {
	if len(h.items) == 0 {
		return 0, 0, false
	}
	return h.items[0], h.pri[0], true
}

// Pop removes and returns the highest-priority entry. ok is false when the
// heap is empty.
func (h *Heap) Pop() (v graph.NodeID, pri float64, ok bool) {
	if len(h.items) == 0 {
		return 0, 0, false
	}
	v, pri = h.items[0], h.pri[0]
	h.removeAt(0)
	return v, pri, true
}

// Remove deletes v's entry if present and reports whether it did.
func (h *Heap) Remove(v graph.NodeID) bool {
	if h.stamp[v] != h.gen || h.pos[v] < 0 {
		return false
	}
	h.removeAt(int(h.pos[v]))
	return true
}

func (h *Heap) removeAt(i int) {
	last := len(h.items) - 1
	h.pos[h.items[i]] = -1
	if i != last {
		moved := h.items[last]
		h.items[i], h.pri[i] = moved, h.pri[last]
		h.pos[moved] = int32(i)
	}
	h.items = h.items[:last]
	h.pri = h.pri[:last]
	if i < last {
		h.down(i)
		h.up(i)
	}
}

func (h *Heap) up(i int) {
	for i > 0 {
		parent := (i - 1) / heapArity
		if h.pri[parent] >= h.pri[i] {
			return
		}
		h.swap(parent, i)
		i = parent
	}
}

func (h *Heap) down(i int) {
	n := len(h.items)
	for {
		first := heapArity*i + 1
		if first >= n {
			return
		}
		best := i
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first; c < end; c++ {
			if h.pri[c] > h.pri[best] {
				best = c
			}
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *Heap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pri[i], h.pri[j] = h.pri[j], h.pri[i]
	h.pos[h.items[i]] = int32(i)
	h.pos[h.items[j]] = int32(j)
}
