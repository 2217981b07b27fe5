package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// This file implements the memory-lean packed CSR representation used by the
// million-node scale experiments: the same adjacency as the flat CSR arrays,
// but with each row's columns delta-encoded as varints and each weight packed
// as a varint of its byte-reversed IEEE bits (weights like 1.0 or 2.5 have
// almost all of their information in the exponent byte, which byte reversal
// moves into the low bits). Rows whose weights are all bit-identical — the
// overwhelmingly common case in unweighted graphs — store the weight once.
//
// Packing is exactly lossless: Pack followed by Unpack reproduces the source
// CSR arrays bit for bit (same columns in the same order, same float64 weight
// bits, same row offsets), which is what lets every solver result on a Packed
// view be pinned bit-identical to the flat representation. The format has one
// reader besides the validator: decodeInto, which decodes one row into flat
// columns and weights. Sessions decode the rows a query touches with it, and
// flatRows the rows an exact solve sweeps — once per direction per solve,
// after which the solve runs the flat kernel, CSR.Gather, over them.

// PackedCSR is one adjacency direction in packed form. Row v occupies
// Data[RowOff[v]:RowOff[v+1]]:
//
//	uvarint  header = degree<<1 | constWeightFlag
//	uvarint  packed weight bits        (only when constWeightFlag == 1, once)
//	repeated degree times:
//	    varint  column delta (zigzag of col − previous col, previous starts 0)
//	    uvarint packed weight bits     (only when constWeightFlag == 0)
//
// Sum caches the total edge weight per row, exactly as CSR.Sum does; the
// bounds frameworks read it on every expansion, so it stays unpacked.
type PackedCSR struct {
	RowOff []int64
	Data   []byte
	Sum    []float64
}

// packWeightBits maps a float64 to the varint-friendly integer written to the
// stream: byte-reversing the IEEE-754 bits moves the sign/exponent byte (the
// only populated byte of round weights) into the low bits.
func packWeightBits(w float64) uint64 {
	return bits.ReverseBytes64(math.Float64bits(w))
}

func unpackWeightBits(u uint64) float64 {
	return math.Float64frombits(bits.ReverseBytes64(u))
}

// Rows returns the number of rows.
func (c *PackedCSR) Rows() int { return len(c.RowOff) - 1 }

// Degree returns the number of entries in row v.
func (c *PackedCSR) Degree(v NodeID) int {
	hdr, _ := uvarintAt(c.Data, int(c.RowOff[v]))
	return int(hdr >> 1)
}

// SizeBytes returns the resident footprint of the packed arrays.
func (c *PackedCSR) SizeBytes() int64 {
	return int64(8*len(c.RowOff)) + int64(len(c.Data)) + int64(8*len(c.Sum))
}

// decodeRow is how a session decodes a row: it appends row v's columns to
// cols and, unless every entry weighs exactly 1, its weights to wts (each
// grown only when short), and returns both with that unit verdict.
func (c *PackedCSR) decodeRow(v NodeID, cols []NodeID, wts []float64) ([]NodeID, []float64, bool) {
	deg, unit := c.unitRow(v)
	at, n := len(cols), len(wts)
	cols = slices.Grow(cols, deg)[:at+deg]
	if !unit {
		wts = slices.Grow(wts, deg)[:n+deg]
	}
	c.decodeInto(v, cols[at:], wts[n:])
	return cols, wts, unit
}

// decodeInto is the packed row decoder: it writes row v's columns to cols,
// exactly as long as the row, and its weights to ws, as long or, for a unit
// row, empty. A column delta of one or two bytes — 89 % of R-MAT 10^5's —
// decodes without a branch on its length (written out by hand: the compiler
// will not inline a helper that calls uvarintAt), a longer one in uvarintAt.
// The data must come from packRow or pass validatePackedCSR: the decoder
// checks no varint.
func (c *PackedCSR) decodeInto(v NodeID, cols []NodeID, ws []float64) {
	b := c.Data
	hdr, i := uvarintAt(b, int(c.RowOff[v]))
	w, constW := 1.0, hdr&1 == 1
	if constW {
		var u uint64
		u, i = uvarintAt(b, i)
		w = unpackWeightBits(u)
	}
	prev := int64(0)
	for k := range cols {
		var u uint64
		if i+1 < len(b) && b[i]&b[i+1] < 0x80 {
			more := uint64(b[i] >> 7) // 1 for a two-byte delta
			u = uint64(b[i]&0x7f) | uint64(b[i+1]&0x7f)<<7&-more
			i += 1 + int(more)
		} else {
			u, i = uvarintAt(b, i)
		}
		prev += int64(u>>1) ^ -int64(u&1)
		cols[k] = NodeID(prev)
		if !constW {
			u, i = uvarintAt(b, i)
			ws[k] = unpackWeightBits(u)
		}
	}
	if constW {
		for k := range ws {
			ws[k] = w
		}
	}
}

// unitRow returns row v's degree and whether every entry of it weighs exactly
// 1, from its header alone.
func (c *PackedCSR) unitRow(v NodeID) (int, bool) {
	hdr, i := uvarintAt(c.Data, int(c.RowOff[v]))
	deg := int(hdr >> 1)
	if hdr&1 == 0 || deg == 0 {
		return deg, deg == 0
	}
	u, _ := uvarintAt(c.Data, i)
	return deg, unpackWeightBits(u) == 1
}

// uvarintAt decodes the uvarint at b[i] and returns it with the index after
// it: a one-byte varint takes the fast path, a longer one continues inline.
// Column deltas are zigzag varints, which it decodes as their uvarint bits.
func uvarintAt(b []byte, i int) (uint64, int) {
	u := uint64(b[i])
	i++
	if u < 0x80 {
		return u, i
	}
	u &= 0x7f
	for s := 7; ; s += 7 {
		c := uint64(b[i])
		i++
		u |= (c & 0x7f) << (s & 63)
		if c < 0x80 {
			return u, i
		}
	}
}

// packCSR packs one CSR direction. The CSR must be compact: RowPtr[0] == 0 and
// cumulative (true for every CSR the Builder, Commit, Compact or the stripe
// cutter produce). Sum is aliased, not copied — both representations cache the
// identical row sums.
func packCSR(c CSR) PackedCSR {
	rows := len(c.RowPtr) - 1
	p := PackedCSR{RowOff: make([]int64, rows+1), Sum: c.Sum}
	// Varint columns are never larger than 5 bytes for int32 deltas; start at
	// roughly 2 bytes per edge plus row headers and grow as needed.
	p.Data = make([]byte, 0, 2*len(c.Col)+2*rows)
	for v := 0; v < rows; v++ {
		cols, ws := c.Row(NodeID(v))
		p.Data = packRow(p.Data, cols, ws)
		p.RowOff[v+1] = int64(len(p.Data))
	}
	// Shrink a grossly over-sized buffer so SizeBytes reports honest numbers.
	if cap(p.Data)-len(p.Data) > len(p.Data)/4+64 {
		p.Data = append(make([]byte, 0, len(p.Data)), p.Data...)
	}
	return p
}

// packRow appends one row's encoding to buf.
func packRow(buf []byte, cols []NodeID, weights []float64) []byte {
	deg := len(cols)
	constW := deg > 0
	if constW {
		w0 := math.Float64bits(weights[0])
		for _, w := range weights[1:] {
			if math.Float64bits(w) != w0 {
				constW = false
				break
			}
		}
	}
	hdr := uint64(deg) << 1
	if constW {
		hdr |= 1
	}
	buf = binary.AppendUvarint(buf, hdr)
	if constW {
		buf = binary.AppendUvarint(buf, packWeightBits(weights[0]))
	}
	prev := int64(0)
	for i, col := range cols {
		buf = binary.AppendVarint(buf, int64(col)-prev)
		prev = int64(col)
		if !constW {
			buf = binary.AppendUvarint(buf, packWeightBits(weights[i]))
		}
	}
	return buf
}

// flatRows decodes the listed rows (every row when rows is nil) into flat
// arrays over all rows, the unlisted ones empty: degrees from the headers
// first, summed into offsets so each array is allocated once, then each row
// in place. When ones is given and every listed row weighs 1 the result is in
// the unit form, sharing ones (as long as the longest such row); otherwise it
// carries one weight per column.
func (c *PackedCSR) flatRows(rows []NodeID, ones []float64) CSR {
	n, listed := c.Rows(), len(rows)
	if rows == nil {
		listed = n
	}
	at := func(i int) NodeID { // the i-th listed row
		if rows == nil {
			return NodeID(i)
		}
		return rows[i]
	}
	out := CSR{RowPtr: make([]int64, n+1), Sum: c.Sum}
	unit := ones != nil
	for i := range listed {
		deg, u := c.unitRow(at(i))
		out.RowPtr[at(i)+1], unit = int64(deg), unit && u
	}
	for r := range n {
		out.RowPtr[r+1] += out.RowPtr[r]
	}
	total := out.RowPtr[n]
	out.Col = make([]NodeID, total)
	if unit {
		out.ones = ones
	} else {
		out.Weight = make([]float64, total)
	}
	for i := range listed {
		r := at(i)
		lo, hi := out.RowPtr[r], out.RowPtr[r+1]
		var ws []float64
		if !unit {
			ws = out.Weight[lo:hi]
		}
		c.decodeInto(r, out.Col[lo:hi], ws)
	}
	return out
}

// validatePackedCSR walks every row of a decoded PackedCSR with a paranoid
// decoder and checks its structure: malformed varints, truncated rows,
// trailing bytes and out-of-range columns are errors. Packed data that passes
// is safe for the unchecked decoder (decodeInto); weights and cached sums are
// the flat check's to judge once the block is unpacked.
func validatePackedCSR(name string, c *PackedCSR, rows, numNodes int) error {
	if len(c.RowOff) != rows+1 {
		return fmt.Errorf("graph: packed %s: %d offsets for %d rows", name, len(c.RowOff), rows)
	}
	if rows >= 0 && (len(c.RowOff) == 0 || c.RowOff[0] != 0) {
		return fmt.Errorf("graph: packed %s: offsets must start at zero", name)
	}
	if c.RowOff[rows] != int64(len(c.Data)) {
		return fmt.Errorf("graph: packed %s: offsets cover %d of %d data bytes", name, c.RowOff[rows], len(c.Data))
	}
	for v := 0; v < rows; v++ {
		lo, hi := c.RowOff[v], c.RowOff[v+1]
		if lo > hi || hi > int64(len(c.Data)) {
			return fmt.Errorf("graph: packed %s: row %d offsets [%d,%d) invalid", name, v, lo, hi)
		}
		if err := scanPackedRow(c.Data[lo:hi], numNodes); err != nil {
			return fmt.Errorf("graph: packed %s: row %d: %w", name, v, err)
		}
	}
	return nil
}

// scanPackedRow decodes one row defensively and checks its structure. The
// column range is tested on the int64 running sum, before the decoder's cast
// to NodeID could wrap it into range.
func scanPackedRow(b []byte, numNodes int) error {
	hdr, n := binary.Uvarint(b)
	if n <= 0 {
		return fmt.Errorf("bad header varint")
	}
	b = b[n:]
	deg := hdr >> 1
	constW := hdr&1 == 1
	if deg > uint64(numNodes) {
		return fmt.Errorf("degree %d exceeds node count %d", deg, numNodes)
	}
	if constW {
		if deg == 0 {
			return fmt.Errorf("const-weight flag on empty row")
		}
		_, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad const weight varint")
		}
		b = b[n:]
	}
	prev := int64(0)
	for i := uint64(0); i < deg; i++ {
		d, n := binary.Varint(b)
		if n <= 0 {
			return fmt.Errorf("bad column varint at entry %d", i)
		}
		b = b[n:]
		prev += d
		if prev < 0 || prev >= int64(numNodes) {
			return fmt.Errorf("column %d out of range [0,%d)", prev, numNodes)
		}
		if !constW {
			_, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad weight varint at entry %d", i)
			}
			b = b[n:]
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("%d trailing bytes after %d entries", len(b), deg)
	}
	return nil
}

// Packed is a whole graph in packed CSR form: the memory-lean counterpart of
// *Graph's flat arrays, built with Pack. It implements View — an exact solve
// decodes the rows it sweeps once per direction (FlatRows), its rows are
// per-query sessions — so every solver accepts it directly, with results
// bit-identical to the flat layout's. It carries no labels or types, only adjacency, and
// the identity (epoch, fingerprint) of the flat source it was packed from.
type Packed struct {
	numNodes int
	numEdges int
	epoch    uint64
	fp       uint32
	out, in  PackedCSR

	// ones is as long as the longest unit-weight row of either direction:
	// sessions hand out windows of it as those rows' weights, as CSR.Row
	// does in the unit form, and FlatRows' unit-form arrays share it. Never
	// written once made.
	ones []float64
}

// Pack converts flat CSR arrays into their packed representation. The source
// arrays are only read; Sum arrays are shared between the two representations.
// The source's epoch and fingerprint are recorded (hashing the arrays unless
// the source has its fingerprint cached, as a *Graph does), so an engine over
// the packed view validates a worker fleet exactly as one over the source.
// Like Compact it checks nothing: it is the other unchecked door, through
// which tests put hand-made rows — self-loops among them — into the packed
// layout; the arrays are the caller's to keep valid.
func Pack(v CSRView) *Packed {
	out := v.OutCSR()
	p := &Packed{numNodes: v.NumNodes(), numEdges: len(out.Col), out: packCSR(out), in: packCSR(v.InCSR())}
	p.epoch, p.fp = identity(v)
	longest := 0
	for _, c := range []*PackedCSR{&p.out, &p.in} {
		for r := range c.Rows() {
			if deg, unit := c.unitRow(NodeID(r)); unit {
				longest = max(longest, deg)
			}
		}
	}
	p.ones = make([]float64, longest)
	for i := range p.ones {
		p.ones[i] = 1
	}
	return p
}

// Unpack reconstructs the flat CSR arrays, bit-identical to the view Pack
// consumed: same RowPtr, Col and Sum contents in both directions, and the same
// weights as Row reads them — one per column, also where the source was in the
// unit form.
func (p *Packed) Unpack() *CompactedView {
	return &CompactedView{numNodes: p.numNodes, out: p.out.flatRows(nil, nil), in: p.in.flatRows(nil, nil)}
}

// NumNodes implements View.
func (p *Packed) NumNodes() int { return p.numNodes }

// NumEdges returns the number of directed edges.
func (p *Packed) NumEdges() int { return p.numEdges }

// Epoch implements View: the snapshot version of the packed source.
func (p *Packed) Epoch() uint64 { return p.epoch }

// Fingerprint implements View: the fingerprint of the packed source.
func (p *Packed) Fingerprint() uint32 { return p.fp }

// OutSums implements View.
func (p *Packed) OutSums() []float64 { return p.out.Sum }

// InSums implements View.
func (p *Packed) InSums() []float64 { return p.in.Sum }

// FlatRows implements View: the listed rows decoded (flatRows) into arrays
// the caller holds and nothing here keeps, or the view would be the flat
// layout by another name.
func (p *Packed) FlatRows(dir Dir, rows []NodeID) CSR {
	if dir == In {
		return p.in.flatRows(rows, p.ones)
	}
	return p.out.flatRows(rows, p.ones)
}

// SizeBytes returns the resident footprint of the packed adjacency (both
// directions: row offsets, packed data, row sums; and the ones unit rows
// share). Compare against the flat arrays' CSR.SizeBytes for the compression
// ratio.
func (p *Packed) SizeBytes() int64 {
	return p.out.SizeBytes() + p.in.SizeBytes() + int64(8*len(p.ones))
}

// Close is a no-op: a Packed holds nothing but memory. It survives only
// because bench/rmat.go calls it; the next [benchmark] PR drops that call and
// deletes this.
func (p *Packed) Close() error { return nil }

// NewRows implements View: a session that decodes each row it is asked for
// into one reused buffer per direction.
func (p *Packed) NewRows() Rows { return &packedRows{p: p} }

// packedRows is the Rows session of a Packed view. It keeps one column buffer
// and one weight buffer per direction and nothing else: a row decodes into its
// direction's buffers, grown to the longest row met, and stays valid until the
// next call for the same direction, which is all the Rows contract promises.
// The online searcher reads each row of its active set about once, so a cache
// of decoded rows would hold them for nothing. A unit-weight row decodes only
// its columns: its weights are a capacity-capped window of the view's shared
// ones, as CSR.Row's are, and the weight buffer is left alone.
type packedRows struct {
	p       *Packed
	out, in rowBuf
}

// rowBuf is one direction's decode buffers.
type rowBuf struct {
	cols []NodeID
	wts  []float64
}

// NumNodes implements Rows.
func (r *packedRows) NumNodes() int { return r.p.numNodes }

// OutDegree implements Rows.
func (r *packedRows) OutDegree(v NodeID) int { return r.p.out.Degree(v) }

// OutSum implements Rows.
func (r *packedRows) OutSum(v NodeID) float64 { return r.p.out.Sum[v] }

// OutRow implements Rows.
func (r *packedRows) OutRow(v NodeID) ([]NodeID, []float64) {
	return r.out.decode(&r.p.out, r.p.ones, v)
}

// InRow implements Rows.
func (r *packedRows) InRow(v NodeID) ([]NodeID, []float64) {
	return r.in.decode(&r.p.in, r.p.ones, v)
}

// Err implements Rows: the packed blocks were validated when the view was
// built or opened, so decoding a row cannot fail.
func (r *packedRows) Err() error { return nil }

// decode decodes row v of c over the buffers and returns it capacity-capped,
// its weights a window of ones when the row is unit.
func (b *rowBuf) decode(c *PackedCSR, ones []float64, v NodeID) ([]NodeID, []float64) {
	cols, wts, unit := c.decodeRow(v, b.cols[:0], b.wts[:0])
	n := len(cols)
	b.cols = cols
	if unit {
		return cols[:n:n], ones[:n:n]
	}
	b.wts = wts
	return cols[:n:n], wts[:n:n]
}

// SizeBytes returns the resident footprint of one flat CSR direction
// (offsets, columns, weights or the unit form's ones, row sums). It exists so
// callers can compare flat and packed representations without re-deriving
// array layouts.
func (c CSR) SizeBytes() int64 {
	return int64(8*len(c.RowPtr)) + int64(4*len(c.Col)) + int64(8*(len(c.Weight)+len(c.ones))) + int64(8*len(c.Sum))
}
