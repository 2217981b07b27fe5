package graph

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
)

// unitGraph builds a 40-node graph whose every edge weighs 1: a hub with an
// edge to every other live node, random distinct edges, a dangling node (39)
// and an isolated one (38).
func unitGraph(t testing.TB) *Graph {
	t.Helper()
	const n, dangling, isolated = 40, 39, 38
	rng := rand.New(rand.NewSource(35))
	b := NewBuilder()
	b.AddNodes(n, nil)
	seen := make(map[EdgeKey]bool)
	add := func(from, to NodeID) {
		k := EdgeKey{from, to}
		if from == to || seen[k] || from == dangling || from == isolated || to == isolated {
			return
		}
		seen[k] = true
		b.MustAddEdge(from, to, 1)
	}
	for v := NodeID(1); v < n; v++ {
		add(0, v)
	}
	for i := 0; i < 200; i++ {
		add(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
	}
	return b.MustBuild()
}

// explicitArrays is a graph's adjacency as caller-owned arrays with a 1.0
// stored per column: what Compact wraps without deciding any form.
type explicitArrays struct {
	n       int
	out, in CSR
}

func (a explicitArrays) NumNodes() int { return a.n }
func (a explicitArrays) OutCSR() CSR   { return a.out }
func (a explicitArrays) InCSR() CSR    { return a.in }

// withExplicitOnes returns c's rows with a stored 1.0 per column.
func withExplicitOnes(c CSR) CSR {
	w := make([]float64, len(c.Col))
	for i := range w {
		w[i] = 1
	}
	return CSR{RowPtr: c.RowPtr, Col: c.Col, Weight: w, Sum: c.Sum}
}

// isUnit reports whether both directions of a flat layout are in the unit form.
func isUnit(c *CompactedView) bool {
	return c.out.Weight == nil && c.out.ones != nil && c.in.Weight == nil && c.in.ones != nil
}

// TestUnitFormParity builds the same unit-weight edges two ways — elided by
// the Builder, and under Compact with a 1.0 stored per edge — and requires the
// two to agree bit for bit on everything a solver, a packer, the stripe codec
// or a fingerprint reads: rows, sums, both gathers however split, the packed
// bytes, every stripe's encoding and content fingerprint, and the graph
// fingerprint.
func TestUnitFormParity(t *testing.T) {
	g := unitGraph(t)
	if !isUnit(&g.CompactedView) {
		t.Fatalf("a graph of unit weights keeps weight arrays: out %d, in %d", len(g.out.Weight), len(g.in.Weight))
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	ex := Compact(explicitArrays{g.numNodes, withExplicitOnes(g.out), withExplicitOnes(g.in)})
	if ex.out.ones != nil || ex.in.ones != nil {
		t.Fatal("Compact put caller arrays in the unit form")
	}
	if g.Fingerprint() != ex.Fingerprint() {
		t.Fatalf("fingerprint %08x, explicit arrays %08x", g.Fingerprint(), ex.Fingerprint())
	}
	if !sameCSR(g.out, ex.out) || !sameCSR(g.in, ex.in) {
		t.Fatal("rows or sums differ from the explicit arrays")
	}
	n := g.NumNodes()
	x := make([]float64, n)
	rng := rand.New(rand.NewSource(1))
	for i := range x {
		x[i] = rng.Float64() / float64(i+1)
	}
	for _, split := range []int{0, 1, n / 3, n - 1, n} {
		for dir, gather := range map[string][2]func(x, dst []float64, rows []NodeID, lo, hi int){
			"out": {g.FlatRows(Out, nil).Gather, ex.FlatRows(Out, nil).Gather},
			"in":  {g.FlatRows(In, nil).Gather, ex.FlatRows(In, nil).Gather},
		} {
			got, want := make([]float64, n), make([]float64, n)
			gather[0](x, got, nil, 0, split)
			gather[0](x, got, nil, split, n)
			gather[1](x, want, nil, 0, n)
			if !sameRow(nil, got, nil, want) {
				t.Fatalf("Gather%s split at %d differs from the weighted loop", dir, split)
			}
		}
	}
	if pu, pe := Pack(g), Pack(ex); !bytes.Equal(pu.out.Data, pe.out.Data) || !bytes.Equal(pu.in.Data, pe.in.Data) {
		t.Fatal("packed rows differ from the explicit arrays'")
	}
	for _, count := range []int{1, 3} {
		for index := 0; index < count; index++ {
			du, err := BuildStripeData(g, index, count)
			if err != nil {
				t.Fatalf("BuildStripeData: %v", err)
			}
			de, err := BuildStripeData(ex, index, count)
			if err != nil {
				t.Fatalf("BuildStripeData: %v", err)
			}
			if len(du.Out.Weight) != len(du.Out.Col) || len(du.In.Weight) != len(du.In.Col) {
				t.Fatalf("stripe %d/%d carries %d+%d weights for %d+%d columns", index, count,
					len(du.Out.Weight), len(du.In.Weight), len(du.Out.Col), len(du.In.Col))
			}
			if du.ContentFingerprint() != de.ContentFingerprint() || !bytes.Equal(encodeStripe(t, du), encodeStripe(t, de)) {
				t.Fatalf("stripe %d/%d: bytes or content fingerprint differ from the explicit arrays'", index, count)
			}
		}
	}
}

// TestUnitRowsAreReadOnlyWindows pins what Row hands out in the unit form: a
// window of the shared ones that allocates nothing and has no room to append
// into.
func TestUnitRowsAreReadOnlyWindows(t *testing.T) {
	g := unitGraph(t)
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		for _, row := range []func(NodeID) ([]NodeID, []float64){g.OutRow, g.InRow} {
			cols, ws := row(v)
			if len(ws) != len(cols) || cap(ws) != len(ws) {
				t.Fatalf("node %d: %d weights (cap %d) for %d columns", v, len(ws), cap(ws), len(cols))
			}
			for _, w := range ws {
				if w != 1 {
					t.Fatalf("node %d: weight %g in the unit form", v, w)
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { g.OutRow(0); g.InRow(1) }); allocs != 0 {
		t.Fatalf("unit rows allocate %.0f objects per read", allocs)
	}
}

// TestUnitFormIsRederived pins who decides the form: every door that lays out
// out-rows decides it afresh from the weights it ends up with. One weight of 2
// keeps both arrays; a Commit or Without that leaves only 1s drops them again,
// bit-identical to the graph built that way from scratch.
func TestUnitFormIsRederived(t *testing.T) {
	g := unitGraph(t)
	cols, _ := g.OutRow(0)
	heavyEdge, otherEdge := EdgeKey{0, cols[0]}, EdgeKey{0, cols[1]}

	// A parallel edge merges to weight 2: the Builder keeps both arrays.
	b := NewBuilder()
	b.AddNodes(3, nil)
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(1, 2, 1)
	b.MustAddEdge(0, 1, 1)
	if merged := b.MustBuild(); merged.out.Weight == nil || merged.in.Weight == nil {
		t.Fatal("a merged weight of 2 was elided")
	}

	d := NewDelta(g)
	if err := d.SetEdge(heavyEdge.From, heavyEdge.To, 2); err != nil {
		t.Fatal(err)
	}
	heavy, err := Commit(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if heavy.out.Weight == nil || heavy.in.Weight == nil {
		t.Fatal("a commit setting a weight of 2 kept the unit form")
	}
	if w, _ := heavy.EdgeWeight(heavyEdge.From, heavyEdge.To); w != 2 {
		t.Fatalf("committed weight %g, want 2", w)
	}
	if err := heavy.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	d = NewDelta(heavy)
	if err := d.SetEdge(heavyEdge.From, heavyEdge.To, 1); err != nil {
		t.Fatal(err)
	}
	restored, err := Commit(heavy, d)
	if err != nil {
		t.Fatal(err)
	}
	if !isUnit(&restored.CompactedView) {
		t.Fatal("a commit restoring all 1s kept weight arrays")
	}
	requireSameCSR(t, restored, g)

	if !isUnit(heavy.Without([]EdgeKey{heavyEdge})) {
		t.Fatal("Without the only weight of 2 kept weight arrays")
	}
	if kept := heavy.Without([]EdgeKey{otherEdge}); kept.out.Weight == nil || kept.in.Weight == nil {
		t.Fatal("Without an edge of weight 1 elided a weight of 2")
	}
	if !isUnit(g.Without([]EdgeKey{otherEdge})) {
		t.Fatal("Without on a unit graph kept weight arrays")
	}
}

// TestDecodeStripeRefusesMissingWeights pins the doors that take arrays from
// outside to one weight per column: a stripe never decodes into the unit form,
// a stripe whose weight array is missing fails the flat check, and a packed
// row that carries fewer weights than columns — its const-weight flag cleared,
// the checksum recomputed — is refused by DecodeStripe.
func TestDecodeStripeRefusesMissingWeights(t *testing.T) {
	g := unitGraph(t)
	d, err := BuildStripeData(g, 0, 1)
	if err != nil {
		t.Fatalf("BuildStripeData: %v", err)
	}
	enc := encodeStripe(t, d)
	decoded, err := DecodeStripe(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("DecodeStripe: %v", err)
	}
	if decoded.Out.ones != nil || decoded.In.ones != nil || len(decoded.Out.Weight) != len(decoded.Out.Col) {
		t.Fatal("a decoded stripe is in the unit form")
	}

	bare := *d
	bare.Out.Weight = nil
	if err := bare.Validate(); err == nil || !strings.Contains(err.Error(), "weights for") {
		t.Fatalf("Validate of a stripe without out-weights: %v", err)
	}

	const hub = 0 // row 0 of the only stripe: many entries, all weighing 1
	p := packCSR(d.Out)
	const header = 4 + 2 + 2 + 4 + 4 + 4 + 8 + 8 + 8
	at := header + 8 + 8*len(p.RowOff) + 8 + 8*len(p.Sum) + 8 + int(p.RowOff[hub])
	if enc[at]&1 != 1 {
		t.Fatalf("row %d is not stored with one shared weight", hub)
	}
	forged := append([]byte(nil), enc...)
	forged[at] &^= 1
	binary.LittleEndian.PutUint32(forged[len(forged)-4:], crc32.Checksum(forged[:len(forged)-4], castagnoli))
	if _, err := DecodeStripe(bytes.NewReader(forged)); err == nil {
		t.Fatal("a stripe row with one weight for many columns decoded")
	}
}
