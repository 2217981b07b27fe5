package distributed

import (
	"bytes"
	"context"
	"encoding/binary"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/testgraphs"
)

// TestFetchRowsMatchesStripe pins the row-fetch RPC end to end: every owned
// row served over both transports equals the source graph's CSR row, and the
// batch carries the stripe's snapshot identity.
func TestFetchRowsMatchesStripe(t *testing.T) {
	ctx := context.Background()
	for name, g := range coordGraphs() {
		for _, workers := range []int{1, 2, 3} {
			for _, mode := range []string{"loopback", "http"} {
				if mode == "http" && workers > 2 {
					continue // keep the HTTP matrix small, like the multiply tests
				}
				var ts []Transport
				if mode == "loopback" {
					ts = loopbackTransports(t, g, workers)
				} else {
					ts = httpWorkers(t, g, workers, nil)
				}
				fp := graph.GraphFingerprint(g)
				out, in := g.OutCSR(), g.InCSR()
				for i, tr := range ts {
					var owned []graph.NodeID
					for v := i; v < g.NumNodes(); v += workers {
						owned = append(owned, graph.NodeID(v))
					}
					batch, err := tr.FetchRows(ctx, fp, owned)
					if err != nil {
						t.Fatalf("%s/%s w%d stripe %d: FetchRows: %v", name, mode, workers, i, err)
					}
					if batch.Epoch != g.Epoch() {
						t.Fatalf("%s/%s stripe %d: batch epoch %d, graph epoch %d", name, mode, i, batch.Epoch, g.Epoch())
					}
					info, err := tr.Info(ctx)
					if err != nil {
						t.Fatalf("Info: %v", err)
					}
					if batch.Content != info.Content {
						t.Fatalf("%s/%s stripe %d: batch content %08x, info %08x", name, mode, i, batch.Content, info.Content)
					}
					if len(batch.Rows) != len(owned) {
						t.Fatalf("%s/%s stripe %d: %d rows for %d nodes", name, mode, i, len(batch.Rows), len(owned))
					}
					for j, row := range batch.Rows {
						v := owned[j]
						if row.Node != v {
							t.Fatalf("%s/%s stripe %d: row %d is node %d, want %d", name, mode, i, j, row.Node, v)
						}
						wantC, wantW := out.Row(v)
						checkRowHalf(t, name+"/"+mode+" out", v, row.OutTo, row.OutW, wantC, wantW)
						wantC, wantW = in.Row(v)
						checkRowHalf(t, name+"/"+mode+" in", v, row.InFrom, row.InW, wantC, wantW)
					}
				}
			}
		}
	}
}

func checkRowHalf(t *testing.T, label string, v graph.NodeID, gotC []graph.NodeID, gotW []float64, wantC []graph.NodeID, wantW []float64) {
	t.Helper()
	if len(gotC) != len(wantC) {
		t.Fatalf("%s row %d: %d entries, want %d", label, v, len(gotC), len(wantC))
	}
	for i := range wantC {
		if gotC[i] != wantC[i] || gotW[i] != wantW[i] {
			t.Fatalf("%s row %d entry %d: (%d,%g), want (%d,%g)", label, v, i, gotC[i], gotW[i], wantC[i], wantW[i])
		}
	}
}

// TestOutDegreesRoundTrip pins the connect-time metadata RPC on both
// transports.
func TestOutDegreesRoundTrip(t *testing.T) {
	ctx := context.Background()
	g := testgraphs.NewToy().Graph
	out := g.OutCSR()
	for _, mode := range []string{"loopback", "http"} {
		var ts []Transport
		if mode == "loopback" {
			ts = loopbackTransports(t, g, 2)
		} else {
			ts = httpWorkers(t, g, 2, nil)
		}
		for i, tr := range ts {
			degs, err := tr.OutDegrees(ctx)
			if err != nil {
				t.Fatalf("%s stripe %d: OutDegrees: %v", mode, i, err)
			}
			for r, d := range degs {
				v := i + r*2
				want := int32(out.RowPtr[v+1] - out.RowPtr[v])
				if d != want {
					t.Fatalf("%s stripe %d row %d (node %d): degree %d, want %d", mode, i, r, v, d, want)
				}
			}
		}
	}
}

// TestFetchRowsErrors pins the failure modes of the row RPCs over the
// in-process transport.
func TestFetchRowsErrors(t *testing.T) {
	g := testgraphs.NewToy().Graph
	s, err := BuildStripe(g, 0, 2)
	if err != nil {
		t.Fatalf("BuildStripe: %v", err)
	}
	tr := NewLoopback(NewWorker(s))
	empty := NewLoopback(NewWorker(nil))
	ctx := context.Background()
	fp := graph.GraphFingerprint(g)

	// Unowned node: stripe 0 of 2 owns even nodes only.
	if _, err := tr.FetchRows(ctx, fp, []graph.NodeID{1}); err == nil {
		t.Errorf("unowned node accepted")
	}
	// Stale graph pin: replaced-stripe classification, not transient.
	_, err = tr.FetchRows(ctx, fp+1, []graph.NodeID{0})
	if err == nil || !strings.Contains(err.Error(), "stripe has") || IsTransient(err) {
		t.Errorf("stale pin accepted (err=%v)", err)
	}
	// Empty worker.
	if _, err := empty.FetchRows(ctx, fp, []graph.NodeID{0}); err == nil {
		t.Errorf("empty worker served rows")
	}
	if _, err := empty.OutDegrees(ctx); err == nil {
		t.Errorf("empty worker served out-degrees")
	}
}

// TestRowsHTTPErrors pins the wire-level status codes of /v1/rows.
func TestRowsHTTPErrors(t *testing.T) {
	g := testgraphs.NewToy().Graph
	s, err := BuildStripe(g, 0, 2)
	if err != nil {
		t.Fatalf("BuildStripe: %v", err)
	}
	ts := httpWorkers(t, g, 2, nil)
	srvURL := ts[0].(*HTTPTransport).base

	post := func(path string, body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(srvURL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	// Body not an int32 array.
	if resp := post("/v1/rows", []byte{1, 2, 3}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("misaligned body: got %s, want 400", resp.Status)
	}
	// Stale graph pin answers 409 (the redeploy-in-progress signal).
	stale := appendNodeIDs(nil, []graph.NodeID{0})
	if resp := post("/v1/rows?graph=1", stale); resp.StatusCode != http.StatusConflict {
		t.Errorf("stale pin: got %s, want 409", resp.Status)
	}
	// Unowned node is a caller bug: 400.
	bad := appendNodeIDs(nil, []graph.NodeID{1})
	if resp := post("/v1/rows", bad); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unowned node: got %s, want 400", resp.Status)
	}
	// The transport surfaces the stale pin as a replaced-stripe error, which
	// must not be classified transient (retry cannot help).
	if _, err := ts[0].FetchRows(context.Background(), s.GraphFingerprint()+1, []graph.NodeID{0}); err == nil || IsTransient(err) {
		t.Errorf("stale pin over HTTP: err=%v, want permanent replaced-stripe error", err)
	}
}

// TestRowBatchCodec round-trips a synthetic batch and pins the decoder's
// rejection of truncated, oversized and trailing-garbage bodies.
func TestRowBatchCodec(t *testing.T) {
	batch := RowBatch{
		Epoch:   7,
		Content: 0xdeadbeef,
		Rows: []RowData{
			{Node: 3, OutTo: []graph.NodeID{1, 4}, OutW: []float64{0.5, 2}, InFrom: []graph.NodeID{9}, InW: []float64{1.25}},
			{Node: 5}, // an isolated row: all slices empty
		},
	}
	raw := appendRowBatch(nil, batch)
	if len(raw) != rowBatchSize(batch) {
		t.Fatalf("encoded %d bytes, rowBatchSize says %d", len(raw), rowBatchSize(batch))
	}
	got, err := decodeRowBatch(raw)
	if err != nil {
		t.Fatalf("decodeRowBatch: %v", err)
	}
	if got.Epoch != batch.Epoch || got.Content != batch.Content || len(got.Rows) != len(batch.Rows) {
		t.Fatalf("decoded header %+v, want %+v", got, batch)
	}
	for i, row := range got.Rows {
		want := batch.Rows[i]
		if row.Node != want.Node {
			t.Fatalf("row %d decoded as %+v, want %+v", i, row, want)
		}
		checkRowHalf(t, "codec out", row.Node, row.OutTo, row.OutW, want.OutTo, want.OutW)
		checkRowHalf(t, "codec in", row.Node, row.InFrom, row.InW, want.InFrom, want.InW)
	}

	// Every proper prefix must fail cleanly, never panic or mis-decode.
	for cut := 0; cut < len(raw); cut++ {
		if _, err := decodeRowBatch(raw[:cut]); err == nil {
			t.Fatalf("truncation at byte %d accepted", cut)
		}
	}
	// Trailing garbage.
	if _, err := decodeRowBatch(append(append([]byte{}, raw...), 0)); err == nil {
		t.Errorf("trailing byte accepted")
	}
	// A row count promising more than the body holds must be rejected before
	// allocation.
	forged := append([]byte{}, raw...)
	forged[12] = 0xff
	forged[13] = 0xff
	forged[14] = 0xff
	forged[15] = 0x7f
	if _, err := decodeRowBatch(forged); err == nil {
		t.Errorf("forged row count accepted")
	}
}

// TestRowFetchTransientClassification pins the retry contract of the row path:
// 5xx answers are transient (the rowserve layer retries them), 4xx are not.
func TestRowFetchTransientClassification(t *testing.T) {
	g := testgraphs.NewToy().Graph
	var failures atomic.Int32
	ts := httpWorkers(t, g, 2, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/rows") && failures.Add(1) <= 2 {
				http.Error(rw, `{"error":"restarting"}`, http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(rw, r)
		})
	})
	f := ts[0]
	ctx := context.Background()
	fp := graph.GraphFingerprint(g)

	_, err := f.FetchRows(ctx, fp, []graph.NodeID{0})
	if err == nil || !IsTransient(err) {
		t.Fatalf("503 on /v1/rows: err=%v, want transient", err)
	}
	_, err = f.FetchRows(ctx, fp, []graph.NodeID{0})
	if err == nil || !IsTransient(err) {
		t.Fatalf("second 503 on /v1/rows: err=%v, want transient", err)
	}
	// The worker has "restarted": the same call now succeeds.
	batch, err := f.FetchRows(ctx, fp, []graph.NodeID{0})
	if err != nil {
		t.Fatalf("FetchRows after recovery: %v", err)
	}
	if len(batch.Rows) != 1 || batch.Rows[0].Node != 0 {
		t.Fatalf("recovered fetch returned %+v", batch.Rows)
	}
	// A dead port is transient too (connection refused is retryable).
	dead := NewHTTPTransport("http://127.0.0.1:1")
	if _, err := dead.FetchRows(ctx, fp, []graph.NodeID{0}); err == nil || !IsTransient(err) {
		t.Fatalf("connection refused on rows: err=%v, want transient", err)
	}
	if _, err := dead.OutDegrees(ctx); err == nil || !IsTransient(err) {
		t.Fatalf("connection refused on outdegs: err=%v, want transient", err)
	}
}

// FuzzDecodeRowBatch throws arbitrary bytes at the row-batch decoder, the one
// coordinator-side decoder a worker's reply reaches: it must never panic, a
// forged row count must fail before anything is sized by it, and whatever it
// accepts is accounted for byte by byte — it re-encodes to the very input,
// which is also what rowBatchSize predicts, so no slice outgrew the bytes that
// declared it.
func FuzzDecodeRowBatch(f *testing.F) {
	seed := func(b RowBatch) {
		enc := appendRowBatch(nil, b)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		f.Add(enc[:len(enc)-1])
	}
	seed(RowBatch{Epoch: 3, Content: 0xfeed}) // empty batch
	for _, g := range []*graph.Graph{testgraphs.Line(9), testgraphs.Star(7)} {
		// Line's last node is dangling; Star's node 0 is the hub.
		s, err := BuildStripe(g, 0, 1)
		if err != nil {
			f.Fatalf("BuildStripe: %v", err)
		}
		batch, err := NewLoopback(NewWorker(s)).FetchRows(context.Background(), s.GraphFingerprint(), []graph.NodeID{0, graph.NodeID(g.NumNodes() - 1)})
		if err != nil {
			f.Fatalf("FetchRows: %v", err)
		}
		seed(batch)
	}
	forged := appendRowBatch(nil, RowBatch{Rows: []RowData{{Node: 1}}})
	binary.LittleEndian.PutUint32(forged[12:], 0xffffffff) // row count
	f.Add(append([]byte(nil), forged...))
	binary.LittleEndian.PutUint32(forged[12:], 1)
	binary.LittleEndian.PutUint32(forged[20:], 0xffffffff) // out-degree
	f.Add(append([]byte(nil), forged...))
	binary.LittleEndian.PutUint32(forged[20:], 0)
	binary.LittleEndian.PutUint32(forged[24:], 0xffffffff) // in-degree
	f.Add(forged)

	f.Fuzz(func(t *testing.T, data []byte) {
		batch, err := decodeRowBatch(data)
		if len(data) >= 16 {
			if count := int(binary.LittleEndian.Uint32(data[12:])); count*rowHeaderSize > len(data)-16 && err == nil {
				t.Fatalf("%d-byte body accepted with a declared row count of %d", len(data), count)
			}
		}
		if err != nil {
			return
		}
		if size := rowBatchSize(batch); size != len(data) {
			t.Fatalf("rowBatchSize %d for an accepted %d-byte body", size, len(data))
		}
		if enc := appendRowBatch(nil, batch); !bytes.Equal(enc, data) {
			t.Fatalf("accepted body does not re-encode byte for byte")
		}
	})
}
