package walk

import (
	"context"
	"testing"

	"roundtriprank/internal/graph"
)

// TestPackedKernelsBitIdenticalToFlat pins the packed gather to the flat one
// exactly: the three rules over Local(graph.Pack(g)) must reproduce the
// flat-CSR results bit for bit, for every worker count. The packed gather
// sums each row as it decodes it, with the flat kernel's expressions in the
// entry order the flat one indexes them, so any divergence is an encoding or
// decoding bug, not floating-point noise.
func TestPackedKernelsBitIdenticalToFlat(t *testing.T) {
	p := Params{Alpha: 0.25, Tol: 1e-11, MaxIter: 300}
	ctx := context.Background()
	for name, g := range kernelTestGraphs() {
		pg := graph.Pack(g)
		q := SingleNode(0)
		restart := make([]float64, g.NumNodes())
		if err := q.restart(restart); err != nil {
			t.Fatalf("%s: restart: %v", name, err)
		}
		for _, workers := range []int{1, 3, 8} {
			flat, packed := Local(g, workers), Local(pg, workers)
			wantF, _, err := fRank(ctx, flat, restart, p)
			if err != nil {
				t.Fatalf("%s: fRank flat: %v", name, err)
			}
			gotF, _, err := fRank(ctx, packed, restart, p)
			if err != nil {
				t.Fatalf("%s: fRank packed: %v", name, err)
			}
			assertBitIdentical(t, name+"/frank", wantF, gotF)

			wantT, _, err := tRank(ctx, flat, restart, p)
			if err != nil {
				t.Fatalf("%s: tRank flat: %v", name, err)
			}
			gotT, _, err := tRank(ctx, packed, restart, p)
			if err != nil {
				t.Fatalf("%s: tRank packed: %v", name, err)
			}
			assertBitIdentical(t, name+"/trank", wantT, gotT)

			wantPR, err := pageRank(ctx, flat, 0.15, 1e-11, 300)
			if err != nil {
				t.Fatalf("%s: pageRank flat: %v", name, err)
			}
			gotPR, err := pageRank(ctx, packed, 0.15, 1e-11, 300)
			if err != nil {
				t.Fatalf("%s: pageRank packed: %v", name, err)
			}
			assertBitIdentical(t, name+"/pagerank", wantPR, gotPR)
		}
	}
}

// TestPackedSolverDispatch pins the public entry points: a *graph.Packed view
// must route to the packed kernels and return the flat results bit for bit.
func TestPackedSolverDispatch(t *testing.T) {
	p := Params{Alpha: 0.25, Tol: 1e-11, MaxIter: 300}
	for name, g := range kernelTestGraphs() {
		pg := graph.Pack(g)
		q := SingleNode(1)
		want, err := FRank(context.Background(), g, q, p)
		if err != nil {
			t.Fatalf("%s: FRank flat: %v", name, err)
		}
		got, err := FRank(context.Background(), pg, q, p)
		if err != nil {
			t.Fatalf("%s: FRank packed: %v", name, err)
		}
		assertBitIdentical(t, name+"/FRank", want, got)

		want, err = TRank(context.Background(), g, q, p)
		if err != nil {
			t.Fatalf("%s: TRank flat: %v", name, err)
		}
		got, err = TRank(context.Background(), pg, q, p)
		if err != nil {
			t.Fatalf("%s: TRank packed: %v", name, err)
		}
		assertBitIdentical(t, name+"/TRank", want, got)

		want, err = GlobalPageRank(context.Background(), g, 0.15, 1e-11, 300)
		if err != nil {
			t.Fatalf("%s: GlobalPageRank flat: %v", name, err)
		}
		got, err = GlobalPageRank(context.Background(), pg, 0.15, 1e-11, 300)
		if err != nil {
			t.Fatalf("%s: GlobalPageRank packed: %v", name, err)
		}
		assertBitIdentical(t, name+"/GlobalPageRank", want, got)
	}
}
