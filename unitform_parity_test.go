package roundtriprank

import (
	"context"
	"math"
	"testing"

	"roundtriprank/internal/distributed"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/walk"
)

// Unit-form parity suite: a graph whose every weight is 1 stores no weight
// arrays (graph.CSR's unit form), and its gathers run a loop that reads none.
// The same edges under graph.Compact with a 1.0 stored per edge take the
// weighted loop. Every method must answer the two bit for bit alike: the
// F-Rank and T-Rank vectors at any GOMAXPROCS (CI runs this under -cpu 1,2,4),
// Exact, packed, Distributed and a budgeted 2SBound response.

// explicitOnes is a unit graph's adjacency as caller-owned arrays with a 1.0
// stored per column.
type explicitOnes struct {
	n       int
	out, in graph.CSR
}

func (a explicitOnes) NumNodes() int     { return a.n }
func (a explicitOnes) OutCSR() graph.CSR { return a.out }
func (a explicitOnes) InCSR() graph.CSR  { return a.in }

func storeOnes(c graph.CSR) graph.CSR {
	w := make([]float64, len(c.Col))
	for i := range w {
		w[i] = 1
	}
	return graph.CSR{RowPtr: c.RowPtr, Col: c.Col, Weight: w, Sum: c.Sum}
}

// loopbackStripes stripes flat arrays over n in-process workers.
func loopbackStripes(t *testing.T, v graph.CSRView, n int) []Transport {
	t.Helper()
	ts := make([]Transport, n)
	for i := range ts {
		d, err := graph.BuildStripeData(v, i, n)
		if err != nil {
			t.Fatalf("BuildStripeData: %v", err)
		}
		ts[i] = distributed.NewLoopback(distributed.NewWorker(distributed.StripeFromData(d)))
	}
	return ts
}

func TestUnitFormParity(t *testing.T) {
	ctx := context.Background()
	for _, pg := range packedParityGraphs(t) {
		g := pg.graph
		if g.OutCSR().Weight != nil || g.InCSR().Weight != nil {
			t.Fatalf("%s: a graph of unit weights keeps weight arrays", pg.name)
		}
		ex := graph.Compact(explicitOnes{g.NumNodes(), storeOnes(g.OutCSR()), storeOnes(g.InCSR())})
		if g.Fingerprint() != ex.Fingerprint() {
			t.Fatalf("%s: fingerprint %08x, explicit arrays %08x", pg.name, g.Fingerprint(), ex.Fingerprint())
		}

		wp := walk.DefaultParams()
		for _, q := range pg.queries {
			for name, solve := range map[string]func(context.Context, graph.View, walk.Query, walk.Params) ([]float64, error){
				"FRank": walk.FRank, "TRank": walk.TRank,
			} {
				want, err := solve(ctx, ex, walk.SingleNode(q), wp)
				if err != nil {
					t.Fatalf("%s q%d: %s explicit: %v", pg.name, q, name, err)
				}
				got, err := solve(ctx, g, walk.SingleNode(q), wp)
				if err != nil {
					t.Fatalf("%s q%d: %s unit: %v", pg.name, q, name, err)
				}
				for v := range want {
					if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
						t.Fatalf("%s q%d: %s node %d: %g, explicit weights give %g", pg.name, q, name, v, got[v], want[v])
					}
				}
			}
		}

		unitEng, err := NewEngine(g, WithWorkers(loopbackStripes(t, g, 2)...))
		if err != nil {
			t.Fatalf("%s: NewEngine(unit): %v", pg.name, err)
		}
		exEng, err := NewEngine(ex, WithWorkers(loopbackStripes(t, ex, 2)...))
		if err != nil {
			t.Fatalf("%s: NewEngine(explicit): %v", pg.name, err)
		}
		unitPacked, err := NewEngine(graph.Pack(g))
		if err != nil {
			t.Fatalf("%s: NewEngine(packed unit): %v", pg.name, err)
		}
		exPacked, err := NewEngine(graph.Pack(ex))
		if err != nil {
			t.Fatalf("%s: NewEngine(packed explicit): %v", pg.name, err)
		}
		for _, q := range pg.queries {
			for _, req := range []Request{
				{Query: SingleNode(q), K: 25, Method: Exact},
				{Query: SingleNode(q), K: 10, Method: Distributed},
				{Query: SingleNode(q), K: 10, Epsilon: 0.01, Method: TwoSBound, Budget: &Budget{MaxRounds: 3, MaxTouched: 500}},
			} {
				label := pg.name + "/" + req.Method.String()
				want, err := exEng.Rank(ctx, req)
				if err != nil {
					t.Fatalf("%s q%d: explicit: %v", label, q, err)
				}
				got, err := unitEng.Rank(ctx, req)
				if err != nil {
					t.Fatalf("%s q%d: unit: %v", label, q, err)
				}
				requireSameCertificate(t, label, got, want)
				if req.Method == Distributed {
					continue
				}
				if got, err = unitPacked.Rank(ctx, req); err != nil {
					t.Fatalf("%s q%d: packed unit: %v", label, q, err)
				}
				if want, err = exPacked.Rank(ctx, req); err != nil {
					t.Fatalf("%s q%d: packed explicit: %v", label, q, err)
				}
				requireSameCertificate(t, label+"/packed", got, want)
			}
		}
	}
}
