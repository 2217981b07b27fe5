package scratch

// heapArity is the branching factor of the heap. A 4-ary layout halves the
// tree depth of a binary heap and keeps each node's children in one cache
// line, which wins on the sift-down-heavy pop/update mix of the BCA benefit
// selection.
const heapArity = 4

// Heap is a d-ary max-heap over the slots of an Index with float64
// priorities. It tracks each slot's position, so a priority change moves the
// existing entry in place — there are no stale entries and no lazy
// reinsertion, and the heap size never exceeds the number of distinct live
// slots. The position array is keyed by slot and grows with the slots it is
// shown: nothing here is sized by the graph or stamped.
//
// The zero value is empty and ready for use.
type Heap struct {
	items []int32   // heap order
	pri   []float64 // parallel to items
	pos   []int32   // slot -> index into items, -1 when it has no entry
}

// Reset empties the heap.
func (h *Heap) Reset() { h.items, h.pri, h.pos = h.items[:0], h.pri[:0], h.pos[:0] }

// Len returns the number of entries.
func (h *Heap) Len() int { return len(h.items) }

// Contains reports whether slot currently has an entry.
func (h *Heap) Contains(slot int32) bool { return int(slot) < len(h.pos) && h.pos[slot] >= 0 }

// Update inserts slot with the given priority, or changes its priority in
// place (sifting up or down as needed) when it already has an entry.
func (h *Heap) Update(slot int32, pri float64) {
	if h.Contains(slot) {
		i := int(h.pos[slot])
		old := h.pri[i]
		h.pri[i] = pri
		if pri > old {
			h.up(i)
		} else if pri < old {
			h.down(i)
		}
		return
	}
	for int(slot) >= len(h.pos) {
		h.pos = append(h.pos, -1)
	}
	h.pos[slot] = int32(len(h.items))
	h.items = append(h.items, slot)
	h.pri = append(h.pri, pri)
	h.up(len(h.items) - 1)
}

// Peek returns the highest-priority entry without removing it. ok is false
// when the heap is empty.
func (h *Heap) Peek() (slot int32, pri float64, ok bool) {
	if len(h.items) == 0 {
		return 0, 0, false
	}
	return h.items[0], h.pri[0], true
}

// Remove deletes slot's entry if present and reports whether it did.
func (h *Heap) Remove(slot int32) bool {
	if !h.Contains(slot) {
		return false
	}
	i, last := int(h.pos[slot]), len(h.items)-1
	h.pos[slot] = -1
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
	return true
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
