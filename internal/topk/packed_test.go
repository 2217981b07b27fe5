package topk

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/testgraphs"
	"roundtriprank/internal/walk"
)

// sessionSpy counts the row sessions a packed view mints.
type sessionSpy struct {
	*graph.Packed
	sessions int
}

func (s *sessionSpy) NewRows() graph.Rows {
	s.sessions++
	return s.Packed.NewRows()
}

// TestPackedDispatch pins the path selection for packed views: a view that
// mints its own row sessions is searched through exactly one of them (not
// through the generic adapter), with the CSR answer.
func TestPackedDispatch(t *testing.T) {
	toy := testgraphs.NewToy()
	spy := &sessionSpy{Packed: graph.Pack(toy.Graph)}
	q := walk.SingleNode(toy.T1)
	opt := Options{K: 3, Epsilon: 0.01, Alpha: 0.25, Beta: 0.5}
	res, err := TopK(context.Background(), spy, q, opt)
	if err != nil {
		t.Fatalf("packed TopK: %v", err)
	}
	if spy.sessions != 1 {
		t.Errorf("packed view minted %d row sessions, want 1", spy.sessions)
	}
	want, err := TopK(context.Background(), toy.Graph, q, opt)
	if err != nil {
		t.Fatalf("flat TopK: %v", err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("packed result diverged from CSR:\n%+v\n%+v", res, want)
	}
}

// TestPackedMatchesFlatBitForBit is the representation parity gate at the
// topk layer: on every test graph and scheme, TopK over graph.Pack(g) must
// return exactly the flat-CSR result — same nodes, same rounds, and
// bit-identical scores, since both paths run the same searcher over the same
// row contents in the same order.
func TestPackedMatchesFlatBitForBit(t *testing.T) {
	for _, tc := range goldenCases() {
		pg := graph.Pack(tc.g)
		q := walk.SingleNode(tc.q)
		k := strictGapK(t, tc.g, q)
		for _, scheme := range []Scheme{Scheme2SBound, SchemeGS, SchemeGupta, SchemeSarkar} {
			for _, eps := range []float64{1e-9, 0.01} {
				t.Run(fmt.Sprintf("%s/%s/eps=%g", tc.name, scheme, eps), func(t *testing.T) {
					opt := Options{K: k, Epsilon: eps, Alpha: 0.25, Beta: 0.5, Scheme: scheme}
					flat, err := TopK(context.Background(), tc.g, q, opt)
					if err != nil {
						t.Fatalf("flat: %v", err)
					}
					packed, err := TopK(context.Background(), pg, q, opt)
					if err != nil {
						t.Fatalf("packed: %v", err)
					}
					if flat.Converged != packed.Converged || flat.Rounds != packed.Rounds {
						t.Fatalf("search shape disagrees: flat rounds=%d conv=%v, packed rounds=%d conv=%v",
							flat.Rounds, flat.Converged, packed.Rounds, packed.Converged)
					}
					if len(flat.TopK) != len(packed.TopK) {
						t.Fatalf("sizes disagree: flat %d, packed %d", len(flat.TopK), len(packed.TopK))
					}
					for i := range flat.TopK {
						if flat.TopK[i].Node != packed.TopK[i].Node {
							t.Errorf("rank %d: flat node %d, packed node %d", i, flat.TopK[i].Node, packed.TopK[i].Node)
						}
						if math.Float64bits(flat.TopK[i].Score) != math.Float64bits(packed.TopK[i].Score) {
							t.Errorf("rank %d: scores differ bit-for-bit: %v != %v",
								i, flat.TopK[i].Score, packed.TopK[i].Score)
						}
					}
				})
			}
		}
	}
}

// TestPackedNaiveBitForBit pins the exact solver over a packed view: Naive
// (full FRank/TRank solves through the packed kernels) must reproduce the
// flat ranking and scores bit for bit.
func TestPackedNaiveBitForBit(t *testing.T) {
	toy := testgraphs.NewToy()
	pg := graph.Pack(toy.Graph)
	q := walk.SingleNode(toy.T1)
	opt := Options{K: toy.Graph.NumNodes(), Alpha: 0.25, Beta: 0.5}
	want, _, err := Naive(context.Background(), toy.Graph, q, opt)
	if err != nil {
		t.Fatalf("flat Naive: %v", err)
	}
	got, _, err := Naive(context.Background(), pg, q, opt)
	if err != nil {
		t.Fatalf("packed Naive: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("sizes disagree: %d != %d", len(want), len(got))
	}
	for i := range want {
		if want[i].Node != got[i].Node || math.Float64bits(want[i].Score) != math.Float64bits(got[i].Score) {
			t.Fatalf("rank %d differs: flat (%d, %v), packed (%d, %v)",
				i, want[i].Node, want[i].Score, got[i].Node, got[i].Score)
		}
	}
}
