package graph

import (
	"encoding/binary"
	"math"
	"math/rand"
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

// checkDecoder holds decodeRow to refRow on every row of c, into empty
// buffers and appended after an entry already there (a unit row decodes no
// weights), and flatRows of every row with weights (Unpack's) too. It returns the reference rows as flat arrays,
// one weight per entry.
func checkDecoder(t *testing.T, name string, c *PackedCSR) CSR {
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
		wantW := wts
		if unit {
			wantW = nil
		}
		gotC, gotW, gotUnit := c.decodeRow(NodeID(v), nil, nil)
		if gotUnit != unit || !sameRow(gotC, gotW, cols, wantW) {
			t.Fatalf("%s: row %d: decoded %v %v (unit %v), want %v %v (unit %v)", name, v, gotC, gotW, gotUnit, cols, wantW, unit)
		}
		gotC, gotW, _ = c.decodeRow(NodeID(v), []NodeID{-1}, []float64{-1})
		if !sameRow(gotC, gotW, append([]NodeID{-1}, cols...), append([]float64{-1}, wantW...)) {
			t.Fatalf("%s: row %d: decoded after an entry %v %v, want %v %v after it", name, v, gotC, gotW, cols, wantW)
		}
	}
	if u := c.flatRows(nil, nil); !slices.Equal(u.RowPtr, want.RowPtr) || !sameRow(u.Col, u.Weight, want.Col, want.Weight) {
		t.Fatalf("%s: flatRows(nil, nil) differs from the reference", name)
	}
	return want
}

// checkFlatRows holds the packed rows an exact solve sweeps — the listed
// rows decoded by flatRows, reduced by CSR.Gather — to the flat gather over
// the same rows, bit for bit: every row (a nil list) as a whole range and
// split in two at every row boundary (at a few when there are over a
// thousand rows), and listed — every row, the rows with entries, every other
// row and, where there are two empty rows, the run from the first to the
// last that lists only them and the rows with entries between — each list
// whole and split at every list boundary (at a few when long).
func checkFlatRows(t *testing.T, name string, flat CSR, packed *PackedCSR, ones []float64, x []float64) {
	t.Helper()
	n := packed.Rows()
	want := make([]float64, n)
	flat.Gather(x, want, nil, 0, n)
	cuts := func(m int) []int {
		if m <= 1000 {
			all := make([]int, m+1)
			for k := range all {
				all[k] = k
			}
			return all
		}
		return []int{0, 1, m / 3, m/2 + 7, m - 1, m}
	}
	checkDecoded(t, name+"/range", flat, packed, ones, x, want, nil, cuts(n))
	var all, full, empty, odd, emptyEnds []NodeID
	for r := range NodeID(n) {
		all = append(all, r)
		if flat.Degree(r) > 0 {
			full = append(full, r)
		} else {
			empty = append(empty, r)
		}
		if r%2 == 1 {
			odd = append(odd, r)
		}
	}
	if len(empty) >= 2 {
		first, last := empty[0], empty[len(empty)-1]
		emptyEnds = append(emptyEnds, first)
		for _, r := range full {
			if first < r && r < last {
				emptyEnds = append(emptyEnds, r)
			}
		}
		emptyEnds = append(emptyEnds, last)
	}
	for lname, list := range map[string][]NodeID{"every": all, "full": full, "odd": odd, "empty-ended": emptyEnds} {
		if len(list) > 0 {
			checkDecoded(t, name+"/"+lname, flat, packed, ones, x, want, list, cuts(len(list)))
		}
	}
}

// checkDecoded decodes list's rows of packed (every row when list is nil) and
// holds the result to the flat rows: each listed row equal to flat's, each
// other row empty, the unit form exactly when ones is given and every listed
// row weighs 1 — otherwise one weight per column, 1 on every unit row among
// weighted ones — and CSR.Gather over it with the list, split at each cut,
// equal to want on every listed row bit for bit. A listed gather writes no
// other row.
func checkDecoded(t *testing.T, name string, flat CSR, packed *PackedCSR, ones []float64, x, want []float64, list []NodeID, cuts []int) {
	t.Helper()
	n := packed.Rows()
	listed, rows := make([]bool, n), list
	if list == nil {
		rows = make([]NodeID, n)
		for r := range rows {
			rows[r] = NodeID(r)
		}
	}
	unit := ones != nil
	for _, r := range rows {
		listed[r] = true
		_, ws := flat.Row(r)
		unit = unit && !slices.ContainsFunc(ws, func(w float64) bool { return w != 1 })
	}
	got := packed.flatRows(list, ones)
	if len(got.RowPtr) != n+1 || got.RowPtr[0] != 0 || int(got.RowPtr[n]) != len(got.Col) {
		t.Fatalf("%s: %d offsets from %d to %d over %d columns", name, len(got.RowPtr), got.RowPtr[0], got.RowPtr[len(got.RowPtr)-1], len(got.Col))
	}
	if (got.ones != nil) != unit || (got.Weight == nil) != unit || !unit && len(got.Weight) != len(got.Col) {
		t.Fatalf("%s: decoded %d weights and ones %v for %d columns; want the unit form: %v", name, len(got.Weight), got.ones != nil, len(got.Col), unit)
	}
	for r := range NodeID(n) {
		gc, gw := got.Row(r)
		if wc, ww := flat.Row(r); listed[r] && !sameRow(gc, gw, wc, ww) || !listed[r] && len(gc) != 0 {
			t.Fatalf("%s: row %d (listed %v) decodes to %v %v, the flat row is %v %v", name, r, listed[r], gc, gw, wc, ww)
		}
	}
	dst := make([]float64, n)
	for _, k := range cuts {
		for r := range dst {
			dst[r] = math.NaN()
		}
		got.Gather(x, dst, list, 0, k)
		got.Gather(x, dst, list, k, len(rows))
		for _, r := range rows {
			if math.Float64bits(dst[r]) != math.Float64bits(want[r]) {
				t.Fatalf("%s: split at %d: row %d gathers %v decoded, %v flat", name, k, r, dst[r], want[r])
			}
		}
	}
}

// TestDecodeRowsVarintLengths encodes rows directly with encoding/binary —
// column deltas of every varint length from one to five bytes, both signs,
// a unit row, a constant 2.5 row, a mixed row with weights of up to ten-byte
// varints and two empty rows — and holds the decoder to the reference on
// them, and the rows flatRows decodes, under CSR.Gather, to the flat gather
// over the reference rows (checkFlatRows). The last row is
// long-varint-heavy and ends exactly at len(Data), where a decoder that
// reads ahead would run off the array.
func TestDecodeRowsVarintLengths(t *testing.T) {
	big := []NodeID{0, 1, 100, 10_000, 2_000_000, 300_000_000, 5, 2_147_483_647, 0}
	rev := slices.Clone(big)
	slices.Reverse(rev)
	rows := []struct {
		cols []NodeID
		wts  []float64 // one weight: constant
	}{
		{nil, nil},
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
	flat := checkDecoder(t, "direct", &c)
	x := sparseFloats(t, 1<<31)
	if x == nil {
		t.Log("no sparse mapping on this platform: the gather check over columns near 2^31 is skipped")
		return
	}
	for _, r := range rows {
		for _, col := range r.cols {
			x[col] = 1 / float64(3*int(col)+1)
		}
	}
	checkFlatRows(t, "direct", flat, &c, slices.Repeat([]float64{1}, len(big)), x)
}

// TestDecodeRowsPackedGraphs holds the decoder to the reference on packed
// graphs, and the rows flatRows decodes to the flat gather over the flat rows
// (checkFlatRows): unsorted rows through Compact (negative deltas) with unit,
// constant 2.5, mixed and empty rows; rows of over 512 entries, unit and
// mixed, between empty rows; and R-MAT 10^4, whose deltas take one to three
// bytes like the bench graph's and whose flat rows are in the unit form. On
// each the session's rows equal the flat rows under the Rows contract
// (checkSessionRows).
func TestDecodeRowsPackedGraphs(t *testing.T) {
	views := map[string]CSRView{
		// The same rows serve as in-rows: Pack reads the arrays as given.
		"unsorted": Compact(explicitArrays{5, unsortedRows(), unsortedRows()}),
		"long":     Compact(explicitArrays{700, longRows(), longRows().transpose()}),
		"rmat-1e4": rmatTestGraph(t, 10_000, 7),
	}
	for name, g := range views {
		p := Pack(g)
		n := g.NumNodes()
		x := make([]float64, n)
		for i := range x {
			x[i] = 1 / float64(3*i+1)
		}
		checkDecoder(t, name+"/out", &p.out)
		checkDecoder(t, name+"/in", &p.in)
		checkFlatRows(t, name+"/out", g.OutCSR(), &p.out, p.ones, x)
		checkFlatRows(t, name+"/in", g.InCSR(), &p.in, p.ones, x)
		checkSessionRows(t, name, p.NewRows(), g.OutCSR(), g.InCSR(), p.ones)
	}
}

// unsortedRows are five rows of five nodes with unsorted columns: unit,
// empty, constant 2.5, mixed and a single entry.
func unsortedRows() CSR {
	return withSums(CSR{
		RowPtr: []int64{0, 3, 3, 7, 10, 11},
		Col:    []NodeID{4, 1, 3, 3, 0, 4, 1, 2, 0, 1, 3},
		Weight: []float64{1, 1, 1, 2.5, 2.5, 2.5, 2.5, 1, 0.5, 3, 2},
	})
}

// longRows are 700 rows of 700 nodes: a mixed row of 600 entries and a unit
// row of 650, each longer than 512 entries, in shuffled column order, between
// short unit, constant 2.5 and mixed rows, with empty rows first, between
// and last.
func longRows() CSR {
	rng := rand.New(rand.NewSource(3))
	rows := [][]float64{nil, {1, 1}, nil, make([]float64, 600), {2.5, 2.5, 2.5}, nil, slices.Repeat([]float64{1}, 650), {0.5, 1, 3}}
	for i := range rows[3] {
		rows[3][i] = []float64{1, 2.5, rng.ExpFloat64()}[i%3]
	}
	c := CSR{RowPtr: []int64{0}}
	for v := range 700 {
		if v < len(rows) {
			for _, col := range rng.Perm(700)[:len(rows[v])] {
				c.Col = append(c.Col, NodeID(col))
			}
			c.Weight = append(c.Weight, rows[v]...)
		}
		c.RowPtr = append(c.RowPtr, int64(len(c.Col)))
	}
	return withSums(c)
}

// withSums returns c with each row's weight total cached in Sum.
func withSums(c CSR) CSR {
	c.Sum = make([]float64, len(c.RowPtr)-1)
	for v := range c.Sum {
		for _, w := range c.Weight[c.RowPtr[v]:c.RowPtr[v+1]] {
			c.Sum[v] += w
		}
	}
	return c
}

// FuzzPackedGather turns fuzz bytes into rows — unsorted columns whose
// deltas take one to three bytes, rows weighing 1, 2.5 or one arbitrary
// finite value throughout, rows of per-entry weights from those three, empty
// rows — puts them through Compact and Pack, and holds the rows an exact
// solve sweeps on the packed view — flatRows, reduced by CSR.Gather — to the
// flat gather bit for bit (checkDecoded): every row split at a fuzzed row, a
// fuzzed list of rows split at a fuzzed entry, the unit rows alone, which
// must decode to the unit form, and the unit rows with the first weighted
// one, which must keep one weight per column for every row. The session's
// rows equal the flat rows under the Rows contract (checkSessionRows).
func FuzzPackedGather(f *testing.F) {
	f.Add([]byte{0, 9, 4, 0x11, 0, 3, 0, 7, 0, 1, 0x00, 0x32, 0, 2, 1, 0, 5, 0, 8, 2})
	f.Add([]byte{0x27, 0x10, 200, 0x3f, 0x40, 0x09, 0x21, 0xfb, 0x54, 0x44, 0x2d, 0x18, 0x12, 0x34, 0x00, 0x01, 0x26, 0xff, 0xfe, 0x80, 0x00})
	f.Add([]byte{0xff, 0xff, 7, 0x2f, 0, 0, 0xff, 0xee, 0x7f, 0x00, 0x10, 0x00, 0x00, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		arbitrary := func() float64 {
			var u uint64
			for range 8 {
				u = u<<8 | uint64(next())
			}
			if w := math.Float64frombits(u); !math.IsNaN(w) && !math.IsInf(w, 0) {
				return w
			}
			return float64(u >> 11)
		}
		n := 1 + (next()<<8|next())%20_000
		cut, listSeed := next(), next()
		out := CSR{RowPtr: []int64{0}}
		for v := 0; v < n; v++ {
			if len(data) > 0 {
				h := next()
				kind, w := h>>4%4, 1.0
				switch kind {
				case 1:
					w = 2.5
				case 3:
					w = arbitrary()
				}
				for range h % 16 {
					out.Col = append(out.Col, NodeID((next()<<8|next())%n))
					if kind == 2 {
						w = []float64{1, 2.5, 0}[next()%3]
						if w == 0 {
							w = arbitrary()
						}
					}
					out.Weight = append(out.Weight, w)
				}
			}
			out.RowPtr = append(out.RowPtr, int64(len(out.Col)))
		}
		out = withSums(out)
		g := Compact(explicitArrays{n, out, out.transpose()})
		p := Pack(g)
		x := make([]float64, n)
		for i := range x {
			x[i] = 1 / float64(3*i+1)
		}
		var list, units, mixed []NodeID
		for v := range NodeID(n) {
			if (int(v)*(listSeed|1))>>2%3 != 0 {
				list = append(list, v)
			}
		}
		for dir, pair := range map[string]struct {
			flat   CSR
			packed *PackedCSR
		}{"out": {g.OutCSR(), &p.out}, "in": {g.InCSR(), &p.in}} {
			want := make([]float64, n)
			pair.flat.Gather(x, want, nil, 0, n)
			units, mixed = units[:0], mixed[:0]
			for v := range NodeID(n) {
				_, ws := pair.flat.Row(v)
				if !slices.ContainsFunc(ws, func(w float64) bool { return w != 1 }) {
					units = append(units, v)
					mixed = append(mixed, v)
				} else if len(mixed) == len(units) {
					mixed = append(mixed, v)
				}
			}
			for lname, rows := range map[string][]NodeID{"every": nil, "fuzzed": list, "unit": units, "unit+1": mixed} {
				if rows != nil && len(rows) == 0 {
					continue
				}
				m := n
				if rows != nil {
					m = len(rows)
				}
				checkDecoded(t, dir+"/"+lname, pair.flat, pair.packed, p.ones, x, want, rows, []int{cut % (m + 1)})
			}
		}
		checkSessionRows(t, "fuzz", p.NewRows(), g.OutCSR(), g.InCSR(), p.ones)
	})
}
