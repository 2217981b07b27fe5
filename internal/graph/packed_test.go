package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// packedTestGraph builds a denser random graph than stripeTestGraph: mixed
// unit and non-unit weights so some rows take the const-weight encoding and
// some do not, plus isolated nodes.
func packedTestGraph(t testing.TB, n, edges int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = b.AddNode(Untyped, "p:"+string(rune('0'+i%10))+string(rune('a'+i/10%26))+string(rune('A'+i/260)))
	}
	for e := 0; e < edges; e++ {
		from := rng.Intn(n)
		to := rng.Intn(n)
		if from == to {
			continue
		}
		w := 1.0
		if rng.Intn(3) == 0 {
			w = rng.Float64()*4 + 0.25
		}
		if err := b.AddEdge(ids[from], ids[to], w); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func packedTestViews(t testing.TB) map[string]CSRView {
	return map[string]CSRView{
		"stripe": stripeTestGraph(t),
		"random": packedTestGraph(t, 200, 1600, 7),
		"sparse": packedTestGraph(t, 64, 40, 11),
	}
}

func TestPackUnpackBitIdentical(t *testing.T) {
	for name, g := range packedTestViews(t) {
		p := Pack(g)
		u := p.Unpack()
		for side, pair := range map[string][2]CSR{
			"out": {g.OutCSR(), u.OutCSR()},
			"in":  {g.InCSR(), u.InCSR()},
		} {
			if !sameCSR(pair[0], pair[1]) {
				t.Fatalf("%s/%s: arrays changed across Pack/Unpack", name, side)
			}
		}
	}
}

// TestPackedViewMatchesFlat is the table test of the closed View contract:
// every layout of the same content — the graph, its arrays under Compact, the
// graph with nothing taken out, its packed form and that unpacked again —
// reports the same node count, epoch and fingerprint, and serves bit-equal
// out-sums, rows (through NewRows) and gathers (CSR.Gather over FlatRows).
func TestPackedViewMatchesFlat(t *testing.T) {
	for name, src := range packedTestViews(t) {
		g := src.(*Graph)
		out, in := g.OutCSR(), g.InCSR()
		x := make([]float64, g.NumNodes())
		for i := range x {
			x[i] = 1 / float64(i+1)
		}
		wantOut, wantIn := make([]float64, len(x)), make([]float64, len(x))
		out.Gather(x, wantOut, nil, 0, len(x))
		in.Gather(x, wantIn, nil, 0, len(x))
		for layout, view := range map[string]View{
			"graph": g, "compact": Compact(g), "without": g.Without(nil), "packed": Pack(g), "unpacked": Pack(g).Unpack(),
		} {
			what := name + "/" + layout
			if view.NumNodes() != g.NumNodes() || view.Epoch() != g.Epoch() || view.Fingerprint() != g.Fingerprint() {
				t.Fatalf("%s: %d nodes, epoch %d, fingerprint %08x; the graph has %d, %d, %08x", what,
					view.NumNodes(), view.Epoch(), view.Fingerprint(), g.NumNodes(), g.Epoch(), g.Fingerprint())
			}
			if !sameRow(nil, view.OutSums(), nil, out.Sum) {
				t.Fatalf("%s: OutSums differ", what)
			}
			rows := view.NewRows()
			for v := NodeID(0); int(v) < g.NumNodes(); v++ {
				if rows.OutDegree(v) != out.Degree(v) || rows.OutSum(v) != out.Sum[v] {
					t.Fatalf("%s: node %d out-degree or out-sum mismatch", what, v)
				}
				cols, wts := rows.OutRow(v)
				wantC, wantW := out.Row(v)
				if !sameRow(cols, wts, wantC, wantW) {
					t.Fatalf("%s: node %d OutRow differs", what, v)
				}
				cols, wts = rows.InRow(v)
				wantC, wantW = in.Row(v)
				if !sameRow(cols, wts, wantC, wantW) {
					t.Fatalf("%s: node %d InRow differs", what, v)
				}
			}
			// Split the range unevenly: the reduction is per row, so any
			// partition gives the same bits.
			gotOut, gotIn := make([]float64, len(x)), make([]float64, len(x))
			mid := len(x) / 3
			view.FlatRows(Out, nil).Gather(x, gotOut, nil, 0, mid)
			view.FlatRows(Out, nil).Gather(x, gotOut, nil, mid, len(x))
			view.FlatRows(In, nil).Gather(x, gotIn, nil, 0, mid)
			view.FlatRows(In, nil).Gather(x, gotIn, nil, mid, len(x))
			if !sameRow(nil, gotOut, nil, wantOut) || !sameRow(nil, gotIn, nil, wantIn) {
				t.Fatalf("%s: gathers differ from the flat reduction", what)
			}
		}
	}
}

// TestPackedRowsSession checks the in-package Rows that are not the flat
// arrays themselves — a packed view's own session and the counting decorator —
// against the flat arrays under the Rows contract, on a graph with weights and
// on a unit-weight one whose hub in-row is far the longest: each row reads
// right when it is handed out, the other direction's last row still reads
// right after it, and a second read of a row, at once and in a second pass,
// returns equal content. A packed session hands a unit row the view's shared
// ones as its weights, capacity-capped like CSR.Row's.
func TestPackedRowsSession(t *testing.T) {
	hub := NewBuilder()
	hub.AddNodes(1000, nil)
	for v := 1; v < 1000; v++ {
		for _, to := range []int{0, (v * 7) % 1000, (v * 13) % 1000} {
			if to != v {
				if err := hub.AddEdge(NodeID(v), NodeID(to), 1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	unit, err := hub.Build()
	if err != nil {
		t.Fatal(err)
	}
	for gname, g := range map[string]*Graph{"weighted": packedTestGraph(t, 120, 900, 3), "unit": unit} {
		out, in := g.OutCSR(), g.InCSR()
		p := Pack(g)
		if gname == "unit" && (out.Weight != nil || in.Degree(0) < 900) {
			t.Fatalf("unit graph: want the unit form and a hub in-row of 900 entries or more, have %d", in.Degree(0))
		}
		for name, rows := range map[string]Rows{"packed": p.NewRows(), "counting": NewCountingRows(g)} {
			name = gname + "/" + name
			if rows.NumNodes() != g.NumNodes() {
				t.Fatalf("%s: NumNodes %d != %d", name, rows.NumNodes(), g.NumNodes())
			}
			var ones []float64
			if name == gname+"/packed" {
				ones = p.ones
			}
			checkSessionRows(t, name, rows, out, in, ones)
			for v := NodeID(0); int(v) < g.NumNodes(); v++ {
				if rows.OutDegree(v) != out.Degree(v) {
					t.Fatalf("%s: node %d OutDegree mismatch", name, v)
				}
				if rows.OutSum(v) != out.Sum[v] {
					t.Fatalf("%s: node %d OutSum mismatch", name, v)
				}
			}
		}
	}
}

// checkSessionRows reads every row of rows twice over, in two passes, each
// direction after the other, and holds each to the flat rows of out and in
// under the Rows contract: a row reads right when it is handed out, the other
// direction's last row still reads right after the call, and reading the same
// row again at once returns equal content. With ones, the shared ones of a
// packed view, rows must also come capacity-capped, and a row whose every
// weight is 1 must take its weights from ones.
func checkSessionRows(t *testing.T, name string, rows Rows, out, in CSR, ones []float64) {
	t.Helper()
	type last struct {
		v    NodeID
		cols []NodeID
		wts  []float64
	}
	var held [2]*last // the last row handed out, by direction (0 out, 1 in)
	want := []CSR{out, in}
	for pass := 0; pass < 2; pass++ {
		for v := NodeID(0); int(v) < rows.NumNodes(); v++ {
			for dir, get := range []func(NodeID) ([]NodeID, []float64){rows.OutRow, rows.InRow} {
				for again := 0; again < 2; again++ {
					cols, wts := get(v)
					if wantC, wantW := want[dir].Row(v); !sameRow(cols, wts, wantC, wantW) {
						t.Fatalf("%s: node %d row (in %v, read %d) is %v %v, the flat row %v %v", name, v, dir == 1, again+1, cols, wts, wantC, wantW)
					}
					if ones != nil && !packedRowForm(cols, wts, ones) {
						t.Fatalf("%s: node %d (in %v): the row is not capacity-capped, or its unit weights not a window of the shared ones", name, v, dir == 1)
					}
					held[dir] = &last{v, cols, wts}
					if o := held[1-dir]; o != nil {
						if wantC, wantW := want[1-dir].Row(o.v); !sameRow(o.cols, o.wts, wantC, wantW) {
							t.Fatalf("%s: node %d row (in %v) changed under a call for node %d's other direction", name, o.v, dir == 0, v)
						}
					}
				}
			}
		}
	}
}

// packedRowForm reports whether a packed session's row is capacity-capped
// and, when every weight is 1, a window of the view's shared ones.
func packedRowForm(cols []NodeID, wts, ones []float64) bool {
	if cap(cols) != len(cols) || cap(wts) != len(wts) {
		return false
	}
	return len(wts) == 0 || slices.ContainsFunc(wts, func(w float64) bool { return w != 1 }) || &wts[0] == &ones[0]
}

// sameRow reports whether two rows hold equal columns and bit-equal weights;
// with nil columns it compares two float vectors.
func sameRow(c []NodeID, w []float64, wc []NodeID, ww []float64) bool {
	if !slices.Equal(c, wc) || len(w) != len(ww) {
		return false
	}
	for i := range w {
		if math.Float64bits(w[i]) != math.Float64bits(ww[i]) {
			return false
		}
	}
	return true
}

// TestPackedSizeBytes pins the point of the representation: a bibnet-like
// graph whose weights are mostly, but not all, 1 — so its flat arrays store
// weights — must pack to well under the flat arrays' footprint.
func TestPackedSizeBytes(t *testing.T) {
	g := packedTestGraph(t, 500, 4000, 13)
	p := Pack(g)
	flat := g.OutCSR().SizeBytes() + g.InCSR().SizeBytes()
	packed := p.SizeBytes()
	if packed >= flat*7/10 {
		t.Fatalf("packed %d bytes is not ≥30%% below flat %d bytes", packed, flat)
	}
}

func TestPackedEpochCarried(t *testing.T) {
	g := stripeTestGraph(t)
	p := Pack(g)
	if p.Epoch() != g.Epoch() {
		t.Fatalf("packed epoch %d != graph epoch %d", p.Epoch(), g.Epoch())
	}
	ng, err := Commit(g, NewDelta(g))
	if err != nil {
		t.Fatal(err)
	}
	if np := Pack(ng); np.Epoch() != 1 || np.Fingerprint() != ng.Fingerprint() || np.Fingerprint() == p.Fingerprint() {
		t.Fatalf("packed commit: epoch %d fingerprint %08x, the graph has %d / %08x (epoch-0 pack: %08x)",
			np.Epoch(), np.Fingerprint(), ng.Epoch(), ng.Fingerprint(), p.Fingerprint())
	}
	if p.NumEdges() != len(g.OutCSR().Col) {
		t.Fatalf("packed edges %d != %d", p.NumEdges(), len(g.OutCSR().Col))
	}
}
