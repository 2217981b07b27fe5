// Row-fetch RPC: the worker-side half of the online-distributed serving path
// (internal/rowserve). Where /v1/multiply ships whole iteration vectors for
// the offline exact solver, /v1/rows ships individual CSR rows on demand —
// the paper's AP/GP interaction — so a coordinator can run the online top-K
// searcher while holding only the rows it touches.
package distributed

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"

	"roundtriprank/internal/graph"
)

// RowData is one node's served adjacency, the unit of the row-fetch RPC. Its
// out-weight sum is not part of it: a coordinator holds every node's in the
// dense out-sums array it fetched at connect time. A transport's rows are
// decoded off the wire, so the caller owns them.
type RowData struct {
	Node   graph.NodeID
	OutTo  []graph.NodeID
	OutW   []float64
	InFrom []graph.NodeID
	InW    []float64
}

// RowBatch is the row-fetch response: the requested rows in request order,
// stamped with the identity of the stripe snapshot that served them. Callers
// pin a graph fingerprint per call and additionally validate Epoch/Content
// against what they recorded at connect time, so a redeploy between RPCs
// fails loudly instead of mixing snapshots within one query.
type RowBatch struct {
	Epoch   uint64
	Content uint32
	Rows    []RowData
}

// RowFetcher is the row-granular half of Transport, named so decorators can
// hold it on its own. Like Multiply, FetchRows is a pure function of its
// inputs and safe to retry; OutDegrees is the row-granular analogue of OutSums
// (the out-degrees of the worker's owned rows, in local row order) and is
// fetched once at connect time to build the dense per-node metadata the
// searcher reads without row fetches.
type RowFetcher interface {
	FetchRows(ctx context.Context, graphSum uint32, nodes []graph.NodeID) (RowBatch, error)
	OutDegrees(ctx context.Context) ([]int32, error)
}

// MaxRowFetchNodes caps the node count of one row-fetch request; one
// expansion wave's misses for one stripe stay far below it.
const MaxRowFetchNodes = 1 << 20

func (s *Stripe) fetchRows(graphSum uint32, nodes []graph.NodeID) (RowBatch, error) {
	if err := s.pinned(graphSum); err != nil {
		return RowBatch{}, err
	}
	if len(nodes) > MaxRowFetchNodes {
		return RowBatch{}, fmt.Errorf("distributed: row fetch asks for %d rows, cap is %d", len(nodes), MaxRowFetchNodes)
	}
	batch := RowBatch{Epoch: s.Epoch, Content: s.content, Rows: make([]RowData, 0, len(nodes))}
	for _, v := range nodes {
		if v < 0 || int(v) >= s.NumNodes || int(v)%s.Count != s.Index {
			return RowBatch{}, fmt.Errorf("distributed: node %d is not owned by stripe %d of %d", v, s.Index, s.Count)
		}
		r := graph.NodeID(int(v) / s.Count) // local row of v = Index + r*Count
		row := RowData{Node: v}
		row.OutTo, row.OutW = s.Out.Row(r)
		row.InFrom, row.InW = s.In.Row(r)
		batch.Rows = append(batch.Rows, row)
	}
	return batch, nil
}

func (s *Stripe) outDegrees() []int32 {
	out := make([]int32, s.Rows())
	for r := range out {
		out[r] = int32(s.Out.Degree(graph.NodeID(r)))
	}
	return out
}

// Row-fetch wire format (all little-endian). Request body: the node IDs as a
// raw int32 array, count implied by length. Response body:
//
//	epoch   uint64
//	content uint32
//	count   uint32
//	count × {
//	    node   int32
//	    outDeg uint32
//	    inDeg  uint32
//	    outDeg × int32    out-edge targets
//	    outDeg × float64  out-edge weights
//	    inDeg  × int32    in-edge sources
//	    inDeg  × float64  in-edge weights
//	}
//
// The out-degrees response is a raw int32 array over owned rows, like the
// outsums vector but 4 bytes per entry.

func appendNodeIDs(buf []byte, nodes []graph.NodeID) []byte {
	for _, v := range nodes {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

func appendRowBatch(buf []byte, b RowBatch) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, b.Epoch)
	buf = binary.LittleEndian.AppendUint32(buf, b.Content)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.Rows)))
	for _, row := range b.Rows {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(row.Node))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(row.OutTo)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(row.InFrom)))
		buf = appendNodeIDs(buf, row.OutTo)
		buf = AppendVector(buf, row.OutW)
		buf = appendNodeIDs(buf, row.InFrom)
		buf = AppendVector(buf, row.InW)
	}
	return buf
}

// rowHeaderSize is the fixed part of one row on the wire: node, out-degree,
// in-degree.
const rowHeaderSize = 12

// rowBatchSize returns the exact wire size of a batch, for Content-Length and
// one-shot buffer sizing.
func rowBatchSize(b RowBatch) int {
	n := 16
	for _, row := range b.Rows {
		n += rowHeaderSize + 12*(len(row.OutTo)+len(row.InFrom))
	}
	return n
}

// rowDecoder is a bounds-checked cursor over a response buffer; the first
// failed read latches err and turns every later read into a no-op.
type rowDecoder struct {
	raw []byte
	off int
	err error
}

func (d *rowDecoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if len(d.raw)-d.off < n {
		d.err = fmt.Errorf("distributed: row batch truncated at byte %d of %d", d.off, len(d.raw))
		return false
	}
	return true
}

func (d *rowDecoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.raw[d.off:])
	d.off += 4
	return v
}

func (d *rowDecoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.raw[d.off:])
	d.off += 8
	return v
}

func (d *rowDecoder) nodeIDs(n int) []graph.NodeID {
	if !d.need(4 * n) {
		return nil
	}
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(binary.LittleEndian.Uint32(d.raw[d.off+4*i:]))
	}
	d.off += 4 * n
	return out
}

func (d *rowDecoder) f64s(n int) []float64 {
	if !d.need(8 * n) {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.raw[d.off+8*i:]))
	}
	d.off += 8 * n
	return out
}

func decodeRowBatch(raw []byte) (RowBatch, error) {
	d := rowDecoder{raw: raw}
	batch := RowBatch{Epoch: d.u64(), Content: d.u32()}
	count := int(d.u32())
	if d.err == nil && count*rowHeaderSize > len(raw)-d.off {
		d.err = fmt.Errorf("distributed: row batch declares %d rows, body too short", count)
	}
	if d.err == nil {
		batch.Rows = make([]RowData, 0, count)
	}
	for i := 0; i < count && d.err == nil; i++ {
		row := RowData{Node: graph.NodeID(d.u32())}
		outDeg, inDeg := int(d.u32()), int(d.u32())
		row.OutTo = d.nodeIDs(outDeg)
		row.OutW = d.f64s(outDeg)
		row.InFrom = d.nodeIDs(inDeg)
		row.InW = d.f64s(inDeg)
		batch.Rows = append(batch.Rows, row)
	}
	if d.err != nil {
		return RowBatch{}, d.err
	}
	if d.off != len(raw) {
		return RowBatch{}, fmt.Errorf("distributed: row batch has %d trailing bytes", len(raw)-d.off)
	}
	return batch, nil
}

// handleRows serves POST /v1/rows: a batched row fetch against the addressed
// stripe, pinned like /v1/multiply.
func handleRows(rw http.ResponseWriter, r *http.Request, s *Stripe, graphSum uint32) error {
	raw, err := io.ReadAll(http.MaxBytesReader(rw, r.Body, MaxRowFetchNodes*4+1))
	if err != nil {
		return fmt.Errorf("distributed: read rows request: %v", err)
	}
	if len(raw)%4 != 0 {
		return fmt.Errorf("distributed: rows request is %d bytes, not an int32 array", len(raw))
	}
	nodes := make([]graph.NodeID, len(raw)/4)
	for i := range nodes {
		nodes[i] = graph.NodeID(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	batch, err := s.fetchRows(graphSum, nodes)
	if err != nil {
		return err
	}
	workerBinary(rw, appendRowBatch(make([]byte, 0, rowBatchSize(batch)), batch))
	return nil
}

// handleOutDegs serves GET /v1/outdegs: the out-degrees of the owned rows as
// a raw little-endian int32 array.
func handleOutDegs(rw http.ResponseWriter, _ *http.Request, s *Stripe, _ uint32) error {
	degs := s.outDegrees()
	buf := make([]byte, 0, len(degs)*4)
	for _, d := range degs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
	}
	workerBinary(rw, buf)
	return nil
}

// FetchRows implements Transport.
func (t *HTTPTransport) FetchRows(ctx context.Context, graphSum uint32, nodes []graph.NodeID) (RowBatch, error) {
	req := appendNodeIDs(make([]byte, 0, len(nodes)*4), nodes)
	path := t.withStripe(fmt.Sprintf("/v1/rows?graph=%d", graphSum))
	resp, err := t.do(ctx, http.MethodPost, path, req, "application/octet-stream", nil)
	if err != nil {
		return RowBatch{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return RowBatch{}, &TransientError{Err: fmt.Errorf("distributed: %s: read rows response: %w", t.base, err)}
	}
	batch, err := decodeRowBatch(raw)
	if err != nil {
		return RowBatch{}, fmt.Errorf("distributed: %s: %w", t.base, err)
	}
	return batch, nil
}

// OutDegrees implements Transport.
func (t *HTTPTransport) OutDegrees(ctx context.Context) ([]int32, error) {
	resp, err := t.do(ctx, http.MethodGet, t.withStripe("/v1/outdegs"), nil, "", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, &TransientError{Err: fmt.Errorf("distributed: %s: read outdegs response: %w", t.base, err)}
	}
	if len(raw)%4 != 0 {
		return nil, fmt.Errorf("distributed: %s: outdegs response is %d bytes, not an int32 array", t.base, len(raw))
	}
	out := make([]int32, len(raw)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return out, nil
}
