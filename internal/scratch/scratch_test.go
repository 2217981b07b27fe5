package scratch

import (
	"math/rand"
	"testing"

	"roundtriprank/internal/graph"
)

func TestFloatsBasics(t *testing.T) {
	var m Floats
	m.Reset(8)
	if m.Len() != 0 || m.Has(3) || m.Get(3) != 0 {
		t.Fatalf("fresh map should be empty")
	}
	m.Set(3, 1.5)
	if got := m.Add(3, 0.5); got != 2 {
		t.Errorf("Add returned %g, want 2", got)
	}
	m.Add(5, 7)
	if m.Len() != 2 || !m.Has(3) || !m.Has(5) || m.Has(4) {
		t.Errorf("membership wrong: len=%d", m.Len())
	}
	if m.Get(3) != 2 || m.Get(5) != 7 || m.Get(0) != 0 {
		t.Errorf("values wrong: %g %g %g", m.Get(3), m.Get(5), m.Get(0))
	}
	want := []graph.NodeID{3, 5}
	got := m.Touched()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Touched = %v, want %v (insertion order)", got, want)
	}
	sum := 0.0
	m.Each(func(_ graph.NodeID, x float64) { sum += x })
	if sum != 9 {
		t.Errorf("Each sum = %g, want 9", sum)
	}

	// Reset empties in O(1): old values must be unreadable.
	m.Reset(8)
	if m.Len() != 0 || m.Has(3) || m.Get(5) != 0 {
		t.Errorf("Reset should empty the map")
	}
	// Setting zero still marks presence (mirrors map semantics where a key
	// can hold value 0).
	m.Set(2, 0)
	if !m.Has(2) || m.Len() != 1 {
		t.Errorf("zero-valued slot should be present")
	}
}

func TestFloatsResize(t *testing.T) {
	var m Floats
	m.Reset(4)
	m.Set(3, 1)
	// Grow: new slots absent, old slots invalidated by the generation bump.
	m.Reset(10)
	for v := graph.NodeID(0); v < 10; v++ {
		if m.Has(v) {
			t.Fatalf("slot %d should be absent after growing Reset", v)
		}
	}
	m.Set(9, 2)
	// Shrink below, then grow again within capacity: the re-exposed tail
	// must still be absent.
	m.Reset(2)
	m.Reset(10)
	if m.Has(9) {
		t.Errorf("slot 9 leaked through shrink/grow")
	}
}

func TestFloatsGenerationWraparound(t *testing.T) {
	var m Floats
	m.Reset(4)
	m.Set(1, 42)
	m.gen = ^uint32(0) // force the next Reset to wrap
	m.Reset(4)
	if m.gen != 1 {
		t.Fatalf("gen after wraparound = %d, want 1", m.gen)
	}
	if m.Has(1) || m.Get(1) != 0 {
		t.Errorf("wraparound must not resurrect old entries")
	}
	m.Set(2, 7)
	if !m.Has(2) || m.Get(2) != 7 {
		t.Errorf("map unusable after wraparound")
	}
}

func TestIntsBasics(t *testing.T) {
	var m Ints
	m.Reset(6)
	if m.Get(2) != 0 {
		t.Fatalf("fresh Ints should read zero")
	}
	m.Set(2, 5)
	m.Set(4, 1)
	m.Set(2, 3)
	if m.Get(2) != 3 || m.Get(4) != 1 || m.Get(3) != 0 {
		t.Errorf("Get after Set: %d %d %d, want 3 1 0", m.Get(2), m.Get(4), m.Get(3))
	}
	m.Reset(6)
	if m.Get(2) != 0 || m.Get(4) != 0 {
		t.Errorf("Reset should empty Ints")
	}
}

func TestBoundsBasics(t *testing.T) {
	var b Bounds
	b.Reset(8)
	if b.Len() != 0 || b.Seen(1) {
		t.Fatalf("fresh Bounds should be empty")
	}
	if _, ok := b.Upper(1); ok {
		t.Fatalf("Upper on unseen should report absent")
	}
	b.Set(1, 0.2, 0.9)
	b.Set(4, 0, 1)
	b.Set(1, 0.3, 0.8) // update in place, no duplicate in touched
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	lo, up, seen := b.Get(1)
	if !seen || lo != 0.3 || up != 0.8 {
		t.Errorf("Get(1) = %g %g %v", lo, up, seen)
	}
	if b.Lower(7) != 0 {
		t.Errorf("Lower on unseen should be 0")
	}
	order := b.Touched()
	if len(order) != 2 || order[0] != 1 || order[1] != 4 {
		t.Errorf("Touched = %v, want [1 4]", order)
	}
	// Index is the node's position in Touched, unmoved by in-place updates.
	if i, ok := b.Index(1); !ok || i != 0 {
		t.Errorf("Index(1) = %d %v, want 0 true", i, ok)
	}
	if i, ok := b.Index(4); !ok || i != 1 {
		t.Errorf("Index(4) = %d %v, want 1 true", i, ok)
	}
	if _, ok := b.Index(7); ok {
		t.Errorf("Index on unseen should report absent")
	}
	n := 0
	b.Each(func(v graph.NodeID, lo, up float64) { n++ })
	if n != 2 {
		t.Errorf("Each visited %d, want 2", n)
	}
	// Slots is the storage itself, parallel to Touched: a write through it is
	// a Set.
	los, ups := b.Slots()
	if len(los) != 2 || len(ups) != 2 || los[0] != 0.3 || ups[0] != 0.8 || los[1] != 0 || ups[1] != 1 {
		t.Errorf("Slots = %v %v, want [0.3 0] [0.8 1]", los, ups)
	}
	los[1], ups[1] = 0.1, 0.7
	if lo, up, _ := b.Get(4); lo != 0.1 || up != 0.7 {
		t.Errorf("Get(4) after a write through Slots = %g %g, want 0.1 0.7", lo, up)
	}
	b.Reset(8)
	if b.Seen(1) || b.Len() != 0 {
		t.Errorf("Reset should empty Bounds")
	}
	b.Set(4, 0, 1)
	if i, ok := b.Index(4); !ok || i != 0 {
		t.Errorf("Index(4) after Reset = %d %v, want 0 true", i, ok)
	}
	if _, ok := b.Index(1); ok {
		t.Errorf("Index should not survive Reset")
	}
}

func TestHeapBasics(t *testing.T) {
	var h Heap
	h.Reset(10)
	if _, _, ok := h.Peek(); ok {
		t.Fatalf("empty heap should not peek")
	}
	if _, _, ok := h.Pop(); ok {
		t.Fatalf("empty heap should not pop")
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
	if p, ok := h.Priority(7); !ok || p != 0.5 {
		t.Errorf("Priority(7) = %g/%v", p, ok)
	}
	if !h.Remove(7) || h.Remove(7) || h.Contains(7) {
		t.Errorf("Remove should delete exactly once")
	}
	var got []graph.NodeID
	for {
		v, _, ok := h.Pop()
		if !ok {
			break
		}
		got = append(got, v)
	}
	if len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Errorf("drain order = %v, want [3 1]", got)
	}
	// Reset then reuse.
	h.Reset(10)
	if h.Len() != 0 || h.Contains(3) {
		t.Errorf("Reset should empty the heap")
	}
}

// TestHeapAgainstReference drives the indexed heap with random updates,
// removals and pops and checks every pop against a naive reference model.
func TestHeapAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 64
	var h Heap
	for trial := 0; trial < 20; trial++ {
		h.Reset(n)
		ref := map[graph.NodeID]float64{}
		for op := 0; op < 500; op++ {
			switch rng.Intn(4) {
			case 0, 1: // update
				v := graph.NodeID(rng.Intn(n))
				p := rng.Float64()
				h.Update(v, p)
				ref[v] = p
			case 2: // remove
				v := graph.NodeID(rng.Intn(n))
				_, inRef := ref[v]
				if h.Remove(v) != inRef {
					t.Fatalf("Remove(%d) disagreed with reference", v)
				}
				delete(ref, v)
			case 3: // pop
				v, p, ok := h.Pop()
				if ok != (len(ref) > 0) {
					t.Fatalf("Pop ok=%v with %d reference entries", ok, len(ref))
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
					t.Fatalf("Pop = %d/%g, reference max %g", v, p, maxP)
				}
				delete(ref, v)
			}
			if h.Len() != len(ref) {
				t.Fatalf("Len = %d, reference %d", h.Len(), len(ref))
			}
		}
	}
}

func TestHeapResize(t *testing.T) {
	var h Heap
	h.Reset(4)
	h.Update(3, 1)
	h.Reset(100)
	if h.Contains(3) {
		t.Fatalf("entries must not survive Reset")
	}
	h.Update(99, 2)
	h.Update(0, 1)
	if v, _, _ := h.Peek(); v != 99 {
		t.Errorf("heap broken after growth")
	}
	h.Reset(2)
	h.Update(1, 5)
	if v, _, _ := h.Peek(); v != 1 {
		t.Errorf("heap broken after shrink")
	}
}
