package graph

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// refRow decodes row v of c the way the format is specified: entry by entry
// with encoding/binary's varint readers. It shares no code with decodeRows and
// fails the test on trailing bytes.
func refRow(t *testing.T, c *PackedCSR, v int) ([]NodeID, []float64) {
	t.Helper()
	b := c.Data[c.RowOff[v]:c.RowOff[v+1]]
	hdr, n := binary.Uvarint(b)
	b = b[n:]
	deg, constW, cw := int(hdr>>1), hdr&1 == 1, 0.0
	if constW && deg > 0 {
		u, n := binary.Uvarint(b)
		b, cw = b[n:], unpackWeightBits(u)
	}
	cols, wts := []NodeID{}, []float64{}
	prev := int64(0)
	for range deg {
		d, n := binary.Varint(b)
		b, prev = b[n:], prev+d
		w := cw
		if !constW {
			u, n := binary.Uvarint(b)
			b, w = b[n:], unpackWeightBits(u)
		}
		cols, wts = append(cols, NodeID(prev)), append(wts, w)
	}
	if len(b) != 0 {
		t.Fatalf("row %d: %d trailing bytes", v, len(b))
	}
	return cols, wts
}

// checkDecoder holds decodeRows to refRow on every row of c, one row at a
// time and all rows in one call (a run of unit rows decodes no weights), and
// the unpacked arrays too.
func checkDecoder(t *testing.T, name string, c *PackedCSR) {
	t.Helper()
	var want CSR
	want.RowPtr = []int64{0}
	for v := range c.Rows() {
		cols, wts := refRow(t, c, v)
		want.Col, want.Weight = append(want.Col, cols...), append(want.Weight, wts...)
		want.RowPtr = append(want.RowPtr, int64(len(want.Col)))

		deg, unit := c.unitRow(NodeID(v))
		if deg != len(cols) || deg != c.Degree(NodeID(v)) || unit != !slices.ContainsFunc(wts, func(w float64) bool { return w != 1 }) {
			t.Fatalf("%s: row %d: unitRow says %d entries, unit %v; the row is %v %v", name, v, deg, unit, cols, wts)
		}
		blk, next, gotUnit := c.decodeRows(CSR{}, v, v+1)
		wantW := wts
		if unit {
			wantW = nil
		}
		if next != v+1 || gotUnit != unit || !slices.Equal(blk.RowPtr, []int64{int64(deg)}) || !sameRow(blk.Col, blk.Weight, cols, wantW) {
			t.Fatalf("%s: row %d: decoded %v %v (unit %v, next %d), want %v %v (unit %v)",
				name, v, blk.Col, blk.Weight, gotUnit, next, cols, wantW, unit)
		}
	}
	allUnit := !slices.ContainsFunc(want.Weight, func(w float64) bool { return w != 1 })
	blk, next, unit := c.decodeRows(CSR{RowPtr: []int64{0}, Col: make([]NodeID, 0, len(want.Col))}, 0, c.Rows())
	wantW := want.Weight
	if allUnit {
		wantW = nil
	}
	if next != c.Rows() || unit != allUnit || !slices.Equal(blk.RowPtr, want.RowPtr) || !sameRow(blk.Col, blk.Weight, want.Col, wantW) {
		t.Fatalf("%s: decoding every row in one call differs from the reference", name)
	}
	if u := c.unpackCSR(); !slices.Equal(u.RowPtr, want.RowPtr) || !sameRow(u.Col, u.Weight, want.Col, want.Weight) {
		t.Fatalf("%s: unpackCSR differs from the reference", name)
	}
}

// TestDecodeRowsVarintLengths encodes rows directly with encoding/binary —
// column deltas of every varint length from one to five bytes, both signs,
// a unit row, a constant 2.5 row, a mixed row with weights of up to ten-byte
// varints and an empty row — and holds the decoder to the reference on them.
// The last row is long-varint-heavy and ends exactly at len(Data), where a
// decoder that reads ahead would run off the array.
func TestDecodeRowsVarintLengths(t *testing.T) {
	big := []NodeID{0, 1, 100, 10_000, 2_000_000, 300_000_000, 5, 2_147_483_647, 0}
	rev := slices.Clone(big)
	slices.Reverse(rev)
	rows := []struct {
		cols []NodeID
		wts  []float64 // one weight: constant
	}{
		{big, []float64{1}},
		{nil, nil},
		{[]NodeID{7, 3, 9, 1 << 20}, []float64{2.5}},
		{[]NodeID{4, 70_000, 2}, []float64{1, 0.1, math.MaxFloat64}},
		{[]NodeID{42}, []float64{1}},
		{rev, []float64{3, 1, 0.5, 1, 2, 1e-300, 1, 7, 1}},
	}
	var c PackedCSR
	c.RowOff = []int64{0}
	lengths := map[int]bool{}
	for _, r := range rows {
		constW := len(r.wts) == 1
		hdr := uint64(len(r.cols)) << 1
		if constW {
			hdr |= 1
		}
		c.Data = binary.AppendUvarint(c.Data, hdr)
		if constW {
			c.Data = binary.AppendUvarint(c.Data, packWeightBits(r.wts[0]))
		}
		prev := int64(0)
		for i, col := range r.cols {
			at := len(c.Data)
			c.Data = binary.AppendVarint(c.Data, int64(col)-prev)
			lengths[len(c.Data)-at] = true
			prev = int64(col)
			if !constW {
				c.Data = binary.AppendUvarint(c.Data, packWeightBits(r.wts[i]))
			}
		}
		c.RowOff = append(c.RowOff, int64(len(c.Data)))
	}
	for n := 1; n <= 5; n++ {
		if !lengths[n] {
			t.Fatalf("no column delta took %d bytes", n)
		}
	}
	if err := validatePackedCSR("direct", &c, len(rows), 1<<31); err != nil {
		t.Fatalf("validate: %v", err)
	}
	checkDecoder(t, "direct", &c)
}

// TestDecodeRowsPackedGraphs holds the decoder to the reference on packed
// graphs: unsorted rows through Compact (negative deltas) with unit, constant
// 2.5, mixed and empty rows, and R-MAT 10^4, whose deltas take one to three
// bytes like the bench graph's. On each the packed gather is bit-identical to
// the flat one, and the session's rows to the flat rows.
func TestDecodeRowsPackedGraphs(t *testing.T) {
	out := CSR{
		RowPtr: []int64{0, 3, 3, 7, 10, 11},
		Col:    []NodeID{4, 1, 3, 3, 0, 4, 1, 2, 0, 1, 3},
		Weight: []float64{1, 1, 1, 2.5, 2.5, 2.5, 2.5, 1, 0.5, 3, 2},
	}
	for v := range 5 {
		_, wts := out.Row(NodeID(v))
		out.Sum = append(out.Sum, 0)
		for _, w := range wts {
			out.Sum[v] += w
		}
	}
	views := map[string]CSRView{
		// The same rows serve as in-rows: Pack reads the arrays as given.
		"unsorted": Compact(explicitArrays{5, out, out}),
		"rmat-1e4": rmatTestGraph(t, 10_000, 7),
	}
	for name, g := range views {
		p := Pack(g)
		checkDecoder(t, name+"/out", &p.out)
		checkDecoder(t, name+"/in", &p.in)
		n := g.NumNodes()
		x := make([]float64, n)
		for i := range x {
			x[i] = 1 / float64(3*i+1)
		}
		for dir, pair := range map[string]struct {
			flat   CSR
			packed *PackedCSR
		}{"out": {g.OutCSR(), &p.out}, "in": {g.InCSR(), &p.in}} {
			want, split, whole := make([]float64, n), make([]float64, n), make([]float64, n)
			pair.flat.Gather(x, want, nil, 0, n)
			pair.packed.Gather(x, split, nil, 0, n/3)
			pair.packed.Gather(x, split, nil, n/3, n)
			pair.packed.Gather(x, whole, nil, 0, n)
			if !sameRow(nil, split, nil, want) || !sameRow(nil, whole, nil, want) {
				t.Fatalf("%s/%s: packed gather differs from the flat one", name, dir)
			}
		}
		rows := p.NewRows()
		for v := NodeID(0); int(v) < n; v++ {
			cols, wts := rows.InRow(v)
			if wc, ww := g.InCSR().Row(v); !sameRow(cols, wts, wc, ww) {
				t.Fatalf("%s: session in-row %d differs", name, v)
			}
		}
	}
}
