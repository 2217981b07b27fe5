package graph

import (
	"math"
	"math/rand"
	"reflect"
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
			want, got := pair[0], pair[1]
			if !reflect.DeepEqual(want.RowPtr, got.RowPtr) {
				t.Fatalf("%s/%s: RowPtr changed across Pack/Unpack", name, side)
			}
			if !reflect.DeepEqual(want.Col, got.Col) {
				t.Fatalf("%s/%s: Col changed across Pack/Unpack", name, side)
			}
			if !reflect.DeepEqual(want.Weight, got.Weight) {
				t.Fatalf("%s/%s: Weight changed across Pack/Unpack", name, side)
			}
			if !reflect.DeepEqual(want.Sum, got.Sum) {
				t.Fatalf("%s/%s: Sum changed across Pack/Unpack", name, side)
			}
		}
	}
}

func TestPackedViewMatchesFlat(t *testing.T) {
	for name, g := range packedTestViews(t) {
		p := Pack(g)
		if p.NumNodes() != g.NumNodes() {
			t.Fatalf("%s: NumNodes %d != %d", name, p.NumNodes(), g.NumNodes())
		}
		for v := NodeID(0); int(v) < g.NumNodes(); v++ {
			if p.OutDegree(v) != g.OutDegree(v) || p.InDegree(v) != g.InDegree(v) {
				t.Fatalf("%s: node %d degree mismatch", name, v)
			}
			if p.OutWeightSum(v) != g.OutWeightSum(v) || p.InWeightSum(v) != g.InWeightSum(v) {
				t.Fatalf("%s: node %d weight sum mismatch", name, v)
			}
			type edge struct {
				to NodeID
				w  float64
			}
			var want, got []edge
			g.EachOut(v, func(to NodeID, w float64) bool { want = append(want, edge{to, w}); return true })
			p.EachOut(v, func(to NodeID, w float64) bool { got = append(got, edge{to, w}); return true })
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: node %d out rows differ:\nwant %v\ngot  %v", name, v, want, got)
			}
			want, got = nil, nil
			g.EachIn(v, func(from NodeID, w float64) bool { want = append(want, edge{from, w}); return true })
			p.EachIn(v, func(from NodeID, w float64) bool { got = append(got, edge{from, w}); return true })
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: node %d in rows differ", name, v)
			}
		}
	}
}

// TestPackedRowsSession checks the in-package Rows that are not the flat
// arrays themselves — a packed view's own session and the counting decorator —
// against the flat arrays, asking for every row twice (the second answer of a
// session is the kept one).
func TestPackedRowsSession(t *testing.T) {
	g := packedTestGraph(t, 120, 900, 3)
	out := g.OutCSR()
	in := g.InCSR()
	for name, rows := range map[string]Rows{"packed": Pack(g).NewRows(), "counting": NewCountingRows(g)} {
		if rows.NumNodes() != g.NumNodes() {
			t.Fatalf("%s: NumNodes %d != %d", name, rows.NumNodes(), g.NumNodes())
		}
		for pass := 0; pass < 2; pass++ {
			for v := NodeID(0); int(v) < g.NumNodes(); v++ {
				if rows.OutDegree(v) != out.Degree(v) {
					t.Fatalf("%s: node %d OutDegree mismatch", name, v)
				}
				if rows.OutSum(v) != out.Sum[v] {
					t.Fatalf("%s: node %d OutSum mismatch", name, v)
				}
				cols, wts := rows.OutRow(v)
				wantC, wantW := out.Row(v)
				if !sameRow(cols, wts, wantC, wantW) {
					t.Fatalf("%s: node %d OutRow differs", name, v)
				}
				cols, wts = rows.InRow(v)
				wantC, wantW = in.Row(v)
				if !sameRow(cols, wts, wantC, wantW) {
					t.Fatalf("%s: node %d InRow differs", name, v)
				}
			}
		}
	}
}

func sameRow(c []NodeID, w []float64, wc []NodeID, ww []float64) bool {
	if len(c) != len(wc) || len(w) != len(ww) {
		return false
	}
	for i := range c {
		if c[i] != wc[i] || math.Float64bits(w[i]) != math.Float64bits(ww[i]) {
			return false
		}
	}
	return true
}

// TestPackedSizeBytes pins the point of the representation: a unit-weight
// bibnet-like graph must pack to well under the flat arrays' footprint.
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
	if p.NumEdges() != len(g.OutCSR().Col) {
		t.Fatalf("packed edges %d != %d", p.NumEdges(), len(g.OutCSR().Col))
	}
}
