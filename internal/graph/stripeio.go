package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
)

// This file implements the binary stripe codec: the wire format for one
// stripe of a round-robin-partitioned graph. A stripe is two compact CSR
// blocks (the owned rows' out- and in-adjacency) plus the striping header
// (index, count, total node count), so a worker process can receive exactly
// its share of the graph without ever materializing the whole thing.
//
// Layout (all integers little-endian):
//
//	magic    [4]byte  "RTS1"
//	version  uint16   must be 3
//	reserved uint16   must be zero
//	index    uint32   stripe index in [0, count)
//	count    uint32   total number of stripes
//	graph    uint32   fingerprint of the source graph (GraphFingerprint)
//	epoch    uint64   snapshot version of the source graph
//	numNodes uint64   node count of the full graph
//	rows     uint64   rows owned by this stripe
//	out CSR block, then in CSR block, each in the packed form (see packed.go):
//	    uint64 len(RowOff) followed by int64 entries
//	    uint64 len(Sum)    followed by float64 entries
//	    uint64 len(Data)   followed by raw delta-varint row bytes
//	crc      uint32   CRC-32C (Castagnoli) of every preceding byte
//
// The trailing checksum makes truncation and bit corruption detectable before
// any structural validation runs. DecodeStripe then checks the packed
// structure (what the unchecked row iterator relies on) and, after unpacking,
// makes one flat pass (StripeData.Validate: monotone offsets, in-range
// columns, finite positive weights, cached row sums), so a decoded stripe is
// safe to serve without re-checking.

// stripeMagic identifies a stripe stream; the trailing digit is bumped only on
// incompatible layout changes (compatible ones bump stripeVersion instead).
var stripeMagic = [4]byte{'R', 'T', 'S', '1'}

// stripeVersion is the one stripe codec version written and read: epoch in
// the header, CSR blocks in the packed delta-varint form. Streams of the two
// earlier versions (flat blocks, version 1 without the epoch) are rejected; a
// stripe is cheap to re-cut from its graph.
const stripeVersion = 3

// StripeData is the codec-level content of one graph stripe. Row r of each CSR
// block holds the adjacency of global node Index + r*Count; Out lists the
// edges leaving the node, In the edges entering it (the transposed rows).
type StripeData struct {
	// Index is this stripe's position in the round-robin partition.
	Index int
	// Count is the total number of stripes the graph was split into.
	Count int
	// NumNodes is the node count of the full (unstriped) graph; column
	// entries are global node IDs in [0, NumNodes).
	NumNodes int
	// Graph is the fingerprint of the graph the stripe was cut from
	// (GraphFingerprint). Coordinators refuse to mix workers whose stripes
	// report different fingerprints — same-sized graphs with different
	// adjacency would otherwise produce silently wrong rankings.
	Graph uint32
	// Epoch is the snapshot version of the source graph (Graph.Epoch). It
	// rides along for operators; identity checks go through Graph, which
	// already folds the epoch in.
	Epoch uint64
	// Out and In are the owned rows' forward and transposed adjacency.
	Out CSR
	In  CSR
}

// ContentFingerprint hashes the stripe's own payload — the striping header
// (index, count, node count) and both CSR blocks — but not the source graph's
// fingerprint or epoch. It is therefore stable across commits that leave the
// stripe's rows (and the edges into them) untouched, which is what lets a
// redeploy after a Commit skip shipping unchanged stripes and merely retag
// them with the new graph fingerprint.
func (d *StripeData) ContentFingerprint() uint32 {
	crc := crc32.New(castagnoli)
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(d.Index))
	binary.LittleEndian.PutUint64(b[8:], uint64(d.Count))
	binary.LittleEndian.PutUint64(b[16:], uint64(d.NumNodes))
	crc.Write(b[:])
	for _, c := range []CSR{d.Out, d.In} {
		_ = writeStripeCSR(crc, c)
	}
	return crc.Sum32()
}

// Rows returns the number of nodes owned by the stripe, derived from the
// header: the size of {v : v mod Count == Index, v < NumNodes}.
func (d *StripeData) Rows() int {
	if d.Count <= 0 || d.NumNodes <= d.Index {
		return 0
	}
	return (d.NumNodes - d.Index + d.Count - 1) / d.Count
}

// Validate checks the stripe's header and holds both CSR blocks to the one
// flat-CSR check. DecodeStripe calls it on every decoded stripe; EncodeStripe
// calls it before writing.
func (d *StripeData) Validate() error {
	if d.Count <= 0 || d.Index < 0 || d.Index >= d.Count {
		return fmt.Errorf("graph: stripe header: invalid stripe %d of %d", d.Index, d.Count)
	}
	if d.NumNodes < 0 {
		return fmt.Errorf("graph: stripe header: negative node count %d", d.NumNodes)
	}
	if err := checkPair(d.Out, d.In, d.Rows(), d.NumNodes, d.Index, d.Count); err != nil {
		return fmt.Errorf("graph: stripe %w", err)
	}
	return nil
}

// EncodeStripe writes d to w in the versioned, checksummed binary stripe
// format. It validates d first, so only well-formed stripes reach the wire.
func EncodeStripe(w io.Writer, d *StripeData) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("graph: encode stripe: %w", err)
	}
	return writeStripe(w, d)
}

// writeStripe is EncodeStripe without the check: it frames whatever d holds,
// which is also how a test forges a well-formed stream around an invalid
// payload.
func writeStripe(w io.Writer, d *StripeData) error {
	bw := bufio.NewWriter(w)
	crc := crc32.New(castagnoli)
	out := io.MultiWriter(bw, crc)

	if _, err := out.Write(stripeMagic[:]); err != nil {
		return err
	}
	hdr := []any{
		uint16(stripeVersion), uint16(0),
		uint32(d.Index), uint32(d.Count), d.Graph, d.Epoch,
		uint64(d.NumNodes), uint64(d.Rows()),
	}
	for _, v := range hdr {
		if err := binary.Write(out, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, c := range []CSR{d.Out, d.In} {
		if err := writePackedStripeCSR(out, c); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// writePackedStripeCSR writes one CSR block in the packed form:
// the block is packed row by row on the way out and unpacked on decode, so
// StripeData stays flat in memory while the wire carries varints.
func writePackedStripeCSR(w io.Writer, c CSR) error {
	p := packCSR(c)
	if err := writeSlice(w, len(p.RowOff), func(i int) uint64 { return uint64(p.RowOff[i]) }, 8); err != nil {
		return err
	}
	if err := writeSlice(w, len(p.Sum), func(i int) uint64 { return math.Float64bits(p.Sum[i]) }, 8); err != nil {
		return err
	}
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(p.Data)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err := w.Write(p.Data)
	return err
}

// writeStripeCSR writes one CSR block as flat arrays. It is the serialization
// ContentFingerprint hashes, not a wire format.
func writeStripeCSR(w io.Writer, c CSR) error {
	if err := writeSlice(w, len(c.RowPtr), func(i int) uint64 { return uint64(c.RowPtr[i]) }, 8); err != nil {
		return err
	}
	if err := writeSlice(w, len(c.Col), func(i int) uint64 { return uint64(uint32(c.Col[i])) }, 4); err != nil {
		return err
	}
	if err := writeWeights(w, c); err != nil {
		return err
	}
	return writeSlice(w, len(c.Sum), func(i int) uint64 { return math.Float64bits(c.Sum[i]) }, 8)
}

// writeWeights writes c's weight array as writeSlice does. The unit form
// writes a 1.0 per column, so a hash over it equals the hash over the same
// rows with their 1s stored.
func writeWeights(w io.Writer, c CSR) error {
	if c.ones != nil {
		return writeSlice(w, len(c.Col), func(int) uint64 { return math.Float64bits(1) }, 8)
	}
	return writeSlice(w, len(c.Weight), func(i int) uint64 { return math.Float64bits(c.Weight[i]) }, 8)
}

// writeSlice writes a length-prefixed array of fixed-width little-endian
// values, buffering chunks so a stripe encode does a handful of Write calls
// per array rather than one per element.
func writeSlice(w io.Writer, n int, elem func(i int) uint64, width int) error {
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(n))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	buf := make([]byte, 0, stripeChunkBytes)
	for i := 0; i < n; i++ {
		v := elem(i)
		switch width {
		case 4:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		default:
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		if len(buf) >= stripeChunkBytes {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// stripeChunkBytes bounds the per-read/write buffer of the codec. Reading in
// chunks means a corrupt header claiming a huge array length fails with a
// truncation error after the actual bytes run out instead of attempting one
// enormous allocation.
const stripeChunkBytes = 1 << 16

// DecodeStripe reads a stripe previously written with EncodeStripe, verifying
// the magic, version, trailing checksum, the packed structure and, in one flat
// pass, every CSR invariant. Any truncation or corruption yields an error,
// never a malformed stripe.
func DecodeStripe(r io.Reader) (*StripeData, error) {
	cr := &crcReader{r: bufio.NewReader(r), crc: crc32.New(castagnoli)}

	var magic [4]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: decode stripe: magic: %w", err)
	}
	if magic != stripeMagic {
		return nil, fmt.Errorf("graph: decode stripe: bad magic %q", magic[:])
	}
	var version, reserved uint16
	var index, count, fingerprint uint32
	var epoch, numNodes, rows uint64
	// The version is checked before anything behind it is read: the rest of
	// the header already differs between versions.
	if err := binary.Read(cr, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("graph: decode stripe: header: %w", err)
	}
	if version != stripeVersion {
		return nil, fmt.Errorf("graph: decode stripe: unsupported version %d (this build reads version %d) — re-cut the stripe", version, stripeVersion)
	}
	for _, v := range []any{&reserved, &index, &count, &fingerprint, &epoch, &numNodes, &rows} {
		if err := binary.Read(cr, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("graph: decode stripe: header: %w", err)
		}
	}
	if reserved != 0 {
		return nil, fmt.Errorf("graph: decode stripe: non-zero reserved field")
	}
	const maxInt = int(^uint(0) >> 1)
	if numNodes > uint64(maxInt) || rows > uint64(maxInt) {
		return nil, fmt.Errorf("graph: decode stripe: header sizes overflow")
	}
	d := &StripeData{Index: int(index), Count: int(count), NumNodes: int(numNodes), Graph: fingerprint, Epoch: epoch}
	if int(rows) != d.Rows() {
		return nil, fmt.Errorf("graph: decode stripe: header claims %d rows, striping implies %d", rows, d.Rows())
	}
	var err error
	if d.Out, err = readPackedStripeCSR(cr, "out", int(rows), d.NumNodes); err != nil {
		return nil, fmt.Errorf("graph: decode stripe: out block: %w", err)
	}
	if d.In, err = readPackedStripeCSR(cr, "in", int(rows), d.NumNodes); err != nil {
		return nil, fmt.Errorf("graph: decode stripe: in block: %w", err)
	}

	sum := cr.crc.Sum32() // the stored checksum itself is not hashed
	var stored uint32
	if err := binary.Read(cr.r, binary.LittleEndian, &stored); err != nil {
		return nil, fmt.Errorf("graph: decode stripe: checksum: %w", err)
	}
	if stored != sum {
		return nil, fmt.Errorf("graph: decode stripe: checksum mismatch (stored %08x, computed %08x)", stored, sum)
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("graph: decode stripe: %w", err)
	}
	return d, nil
}

// crcReader hashes everything read through it.
type crcReader struct {
	r   io.Reader
	crc hash.Hash32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.crc.Write(p[:n])
	}
	return n, err
}

// readPackedStripeCSR reads one packed block and unpacks it to the flat CSR
// the rest of the system consumes. The packed structure is checked first
// (validatePackedCSR), since the unpack trusts it; weights and cached sums are
// left to the caller's one flat pass, StripeData.Validate.
func readPackedStripeCSR(r io.Reader, name string, rows, numNodes int) (CSR, error) {
	var c CSR
	rowOff, err := readUint64s(r)
	if err != nil {
		return c, fmt.Errorf("offsets: %w", err)
	}
	p := PackedCSR{RowOff: make([]int64, len(rowOff))}
	for i, v := range rowOff {
		if v > uint64(math.MaxInt64) {
			return c, fmt.Errorf("offset %d overflows", i)
		}
		p.RowOff[i] = int64(v)
	}
	if p.Sum, err = readFloat64s(r); err != nil {
		return c, fmt.Errorf("row sums: %w", err)
	}
	if p.Data, err = readBytes(r); err != nil {
		return c, fmt.Errorf("row data: %w", err)
	}
	if err := validatePackedCSR(name, &p, rows, numNodes); err != nil {
		return c, err
	}
	return p.flatRows(nil, nil), nil
}

// readBytes reads a length-prefixed byte array in bounded chunks, like
// readArray: a forged length fails on truncation instead of allocating.
func readBytes(r io.Reader) ([]byte, error) {
	var lenBuf [8]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint64(lenBuf[:])
	if n > uint64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("array length %d overflows", n)
	}
	out := []byte{}
	buf := make([]byte, stripeChunkBytes)
	remaining := int(n)
	for remaining > 0 {
		chunk := min(remaining, stripeChunkBytes)
		if _, err := io.ReadFull(r, buf[:chunk]); err != nil {
			return nil, err
		}
		out = append(out, buf[:chunk]...)
		remaining -= chunk
	}
	return out, nil
}

// readArray reads a length-prefixed array in bounded chunks: the slice grows
// only as bytes actually arrive, so a forged length prefix cannot force a
// large allocation.
func readArray[T any](r io.Reader, width int, decode func([]byte) T) ([]T, error) {
	var lenBuf [8]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint64(lenBuf[:])
	if n > uint64(int(^uint(0)>>1))/uint64(width) {
		return nil, fmt.Errorf("array length %d overflows", n)
	}
	out := []T{}
	buf := make([]byte, stripeChunkBytes)
	remaining := int(n)
	for remaining > 0 {
		chunk := remaining
		if chunk > stripeChunkBytes/width {
			chunk = stripeChunkBytes / width
		}
		b := buf[:chunk*width]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := 0; i < chunk; i++ {
			out = append(out, decode(b[i*width:]))
		}
		remaining -= chunk
	}
	return out, nil
}

func readUint64s(r io.Reader) ([]uint64, error) {
	return readArray(r, 8, func(b []byte) uint64 { return binary.LittleEndian.Uint64(b) })
}

func readFloat64s(r io.Reader) ([]float64, error) {
	return readArray(r, 8, func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) })
}

// BuildStripeData extracts stripe `index` of `count` from a CSR view by
// round-robin node assignment: the stripe owns every node v with
// v mod count == index, and row r of each block is the adjacency of global
// node index + r*count, copied into compact arrays.
func BuildStripeData(v CSRView, index, count int) (*StripeData, error) {
	if count <= 0 || index < 0 || index >= count {
		return nil, fmt.Errorf("graph: invalid stripe %d of %d", index, count)
	}
	d := &StripeData{Index: index, Count: count, NumNodes: v.NumNodes()}
	d.Epoch, d.Graph = identity(v)
	rows := d.Rows()
	d.Out = sliceStripeRows(v.OutCSR(), index, count, rows)
	d.In = sliceStripeRows(v.InCSR(), index, count, rows)
	return d, nil
}

// sliceStripeRows copies every count-th row of src starting at first into a
// compact CSR over the local row index. The copy carries one weight per
// column even when src is in the unit form: stripes never are.
func sliceStripeRows(src CSR, first, count, rows int) CSR {
	dst := CSR{RowPtr: make([]int64, rows+1), Sum: make([]float64, rows)}
	var total int64
	for r := 0; r < rows; r++ {
		total += int64(src.Degree(NodeID(first + r*count)))
	}
	dst.Col = make([]NodeID, 0, total)
	dst.Weight = make([]float64, 0, total)
	for r := 0; r < rows; r++ {
		v := NodeID(first + r*count)
		cols, wts := src.Row(v)
		dst.Col = append(dst.Col, cols...)
		dst.Weight = append(dst.Weight, wts...)
		dst.Sum[r] = src.Sum[v]
		dst.RowPtr[r+1] = int64(len(dst.Col))
	}
	return dst
}

// GraphFingerprint returns a checksum identifying a graph snapshot: CRC-32C
// over the node count, the snapshot epoch and the forward CSR arrays
// (offsets, columns, weights — a 1.0 per edge in the unit form, so the form
// does not change the fingerprint). Every stripe cut from a graph records its
// fingerprint, so a coordinator can refuse to assemble workers that were
// striped from different graphs — even ones with identical node counts.
// Stamping the epoch makes every Commit a new identity: a cluster can never
// silently keep serving yesterday's snapshot of a graph whose adjacency a
// commit happened to restore.
//
// Epoch zero is not hashed (node count + CSR only), so a freshly built
// graph's fingerprint depends on its content alone.
//
// The result is cached on *Graph (snapshots are immutable), so polling
// endpoints and per-commit redeploys do not re-hash the edge arrays.
func GraphFingerprint(v CSRView) uint32 {
	_, fp := identity(v)
	return fp
}

// identity returns the epoch and fingerprint of flat arrays: the layout's own
// when v is one (*Graph: epoch-stamped and cached), and for caller-owned
// arrays epoch zero and the hash of the content alone.
func identity(v CSRView) (epoch uint64, fp uint32) {
	if l, ok := v.(View); ok {
		return l.Epoch(), l.Fingerprint()
	}
	return 0, computeFingerprint(v.NumNodes(), 0, v.OutCSR())
}

func computeFingerprint(numNodes int, epoch uint64, out CSR) uint32 {
	crc := crc32.New(castagnoli)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(numNodes))
	crc.Write(b[:])
	if epoch != 0 {
		binary.LittleEndian.PutUint64(b[:], epoch)
		crc.Write(b[:])
	}
	_ = writeSlice(crc, len(out.RowPtr), func(i int) uint64 { return uint64(out.RowPtr[i]) }, 8)
	_ = writeSlice(crc, len(out.Col), func(i int) uint64 { return uint64(uint32(out.Col[i])) }, 4)
	_ = writeWeights(crc, out)
	return crc.Sum32()
}
