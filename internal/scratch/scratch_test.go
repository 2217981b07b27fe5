package scratch

import (
	"math/rand"
	"testing"

	"roundtriprank/internal/graph"
)

func TestIndexBasics(t *testing.T) {
	var x Index
	x.Reset(8)
	if _, ok := x.Slot(3); x.Len() != 0 || x.Has(3) || ok {
		t.Fatalf("fresh index should be empty")
	}
	if slot, added := x.Add(3); slot != 0 || !added {
		t.Errorf("Add(3) = %d %v, want 0 true", slot, added)
	}
	if slot, added := x.Add(5); slot != 1 || !added {
		t.Errorf("Add(5) = %d %v, want 1 true", slot, added)
	}
	// Adding a member again changes nothing and returns its slot.
	if slot, added := x.Add(3); slot != 0 || added {
		t.Errorf("second Add(3) = %d %v, want 0 false", slot, added)
	}
	if x.Len() != 2 || !x.Has(3) || !x.Has(5) || x.Has(4) {
		t.Errorf("membership wrong: len=%d", x.Len())
	}
	if slot, ok := x.Slot(5); !ok || slot != 1 {
		t.Errorf("Slot(5) = %d %v, want 1 true", slot, ok)
	}
	want := []graph.NodeID{3, 5}
	got := x.Touched()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Touched = %v, want %v (insertion order)", got, want)
	}

	// Reset empties in O(1): old members must be unreadable, slots start over.
	x.Reset(8)
	if _, ok := x.Slot(5); x.Len() != 0 || x.Has(3) || ok {
		t.Errorf("Reset should empty the index")
	}
	if slot, added := x.Add(5); slot != 0 || !added {
		t.Errorf("Add(5) after Reset = %d %v, want 0 true", slot, added)
	}
}

func TestIndexResize(t *testing.T) {
	var x Index
	x.Reset(4)
	x.Add(3)
	// Grow: new nodes absent, old members invalidated by the generation bump.
	x.Reset(10)
	for v := graph.NodeID(0); v < 10; v++ {
		if x.Has(v) {
			t.Fatalf("node %d should be absent after growing Reset", v)
		}
	}
	x.Add(9)
	// Shrink below, then grow again within capacity: the re-exposed tail
	// must still be absent.
	x.Reset(2)
	x.Reset(10)
	if x.Has(9) {
		t.Errorf("node 9 leaked through shrink/grow")
	}
	// The same with the generation the stale stamp carries coming round again:
	// only clearing the re-exposed tail keeps node 9 out.
	x.Add(9)
	stale := x.gen
	x.Reset(2)
	x.gen = stale - 1
	x.Reset(10)
	if x.gen != stale || x.Has(9) {
		t.Errorf("node 9 leaked through shrink/grow at its own generation (gen %d, stale %d)", x.gen, stale)
	}
}

func TestIndexGenerationWraparound(t *testing.T) {
	var x Index
	x.Reset(4)
	x.Add(1)
	x.gen = ^uint32(0) // force the next Reset to wrap
	x.Reset(4)
	if x.gen != 1 {
		t.Fatalf("gen after wraparound = %d, want 1", x.gen)
	}
	if _, ok := x.Slot(1); x.Has(1) || ok {
		t.Errorf("wraparound must not resurrect old members")
	}
	if slot, added := x.Add(2); !added || slot != 0 || !x.Has(2) {
		t.Errorf("index unusable after wraparound")
	}
}

// pop removes and returns the heap's best entry.
func pop(h *Heap) (slot int32, pri float64, ok bool) {
	if slot, pri, ok = h.Peek(); ok {
		h.Remove(slot)
	}
	return slot, pri, ok
}

func TestHeapBasics(t *testing.T) {
	var h Heap
	if _, _, ok := h.Peek(); ok {
		t.Fatalf("empty heap should not peek")
	}
	h.Update(3, 1.0)
	h.Update(7, 5.0)
	h.Update(1, 3.0)
	if v, p, _ := h.Peek(); v != 7 || p != 5 {
		t.Fatalf("Peek = %d/%g, want 7/5", v, p)
	}
	// Decrease-key in place: no duplicate entries, new max surfaces.
	h.Update(7, 0.5)
	if h.Len() != 3 {
		t.Fatalf("Len = %d after decrease-key, want 3", h.Len())
	}
	if v, _, _ := h.Peek(); v != 1 {
		t.Fatalf("Peek after decrease = %d, want 1", v)
	}
	// Increase-key.
	h.Update(3, 9)
	if v, _, _ := h.Peek(); v != 3 {
		t.Fatalf("Peek after increase = %d, want 3", v)
	}
	if !h.Remove(7) || h.Remove(7) || h.Contains(7) {
		t.Errorf("Remove should delete exactly once")
	}
	// Slots the heap was never shown have no entry.
	if h.Contains(2) || h.Contains(64) || h.Remove(64) {
		t.Errorf("slots never updated should have no entry")
	}
	var got []int32
	for {
		v, _, ok := pop(&h)
		if !ok {
			break
		}
		got = append(got, v)
	}
	if len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Errorf("drain order = %v, want [3 1]", got)
	}
	// Reset then reuse.
	h.Update(3, 1)
	h.Reset()
	if h.Len() != 0 || h.Contains(3) {
		t.Errorf("Reset should empty the heap")
	}
}

// TestHeapAgainstReference drives the slot-keyed heap with random updates,
// removals and pops and checks every pop against a naive reference model.
func TestHeapAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 64
	var h Heap
	for trial := 0; trial < 20; trial++ {
		h.Reset()
		ref := map[int32]float64{}
		for op := 0; op < 500; op++ {
			switch rng.Intn(4) {
			case 0, 1: // update
				v := int32(rng.Intn(n))
				p := rng.Float64()
				h.Update(v, p)
				ref[v] = p
			case 2: // remove
				v := int32(rng.Intn(n))
				_, inRef := ref[v]
				if h.Contains(v) != inRef || h.Remove(v) != inRef {
					t.Fatalf("Contains/Remove(%d) disagreed with reference", v)
				}
				delete(ref, v)
			case 3: // pop
				v, p, ok := pop(&h)
				if ok != (len(ref) > 0) {
					t.Fatalf("pop ok=%v with %d reference entries", ok, len(ref))
				}
				if !ok {
					continue
				}
				maxP := -1.0
				for _, rp := range ref {
					if rp > maxP {
						maxP = rp
					}
				}
				if p != maxP || ref[v] != p {
					t.Fatalf("pop = %d/%g, reference max %g", v, p, maxP)
				}
				delete(ref, v)
			}
			if h.Len() != len(ref) {
				t.Fatalf("Len = %d, reference %d", h.Len(), len(ref))
			}
		}
	}
}

// TestHeapResize reuses one heap across queries whose slot ranges differ: the
// position array follows the slots each query shows it, and no entry or
// position survives a Reset.
func TestHeapResize(t *testing.T) {
	var h Heap
	h.Update(3, 1)
	h.Reset()
	if h.Contains(3) {
		t.Fatalf("entries must not survive Reset")
	}
	h.Update(99, 2)
	h.Update(0, 1)
	if v, _, _ := h.Peek(); v != 99 {
		t.Errorf("heap broken after growth")
	}
	h.Reset()
	h.Update(1, 5)
	if v, _, _ := h.Peek(); v != 1 || h.Contains(99) || h.Contains(0) {
		t.Errorf("heap broken after shrink")
	}
}
