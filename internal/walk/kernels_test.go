package walk

import (
	"context"
	"errors"
	"math"
	"testing"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/testgraphs"
)

// This file pins the exact solvers to a serial reference implementation: the
// pull-style recurrences written as plain loops with no pool, no chunking, no
// gather seam and no shared loop. The rules over the shared loop must
// reproduce the reference bit-for-bit with one worker, and — because each
// output row is reduced sequentially by exactly one worker — with every other
// worker count, over packed rows, and over a striped worker fleet too
// (gatherers_test.go, which reaches these references through export_test.go).

// serialFRankReference is the pull-style F-Rank recurrence of fRank as
// straight-line serial code.
func serialFRankReference(cv graph.CSRView, restart []float64, p Params) []float64 {
	n := len(restart)
	out, in := cv.OutCSR(), cv.InCSR()
	cur := make([]float64, n)
	next := make([]float64, n)
	scaled := make([]float64, n)
	copy(cur, restart)
	oneMinus := 1 - p.Alpha
	for iter := 0; iter < p.MaxIter; iter++ {
		dangling := 0.0
		for u := 0; u < n; u++ {
			if out.Sum[u] > 0 {
				scaled[u] = cur[u] / out.Sum[u]
			} else {
				scaled[u] = 0
				dangling += cur[u]
			}
		}
		dadd := oneMinus * dangling
		for v := 0; v < n; v++ {
			sum := 0.0
			for i := in.RowPtr[v]; i < in.RowPtr[v+1]; i++ {
				sum += in.Weight[i] * scaled[in.Col[i]]
			}
			r := restart[v]
			nv := p.Alpha*r + oneMinus*sum
			if dadd > 0 && r > 0 {
				nv += dadd * r
			}
			next[v] = nv
		}
		diff := 0.0
		for i := range cur {
			diff += math.Abs(cur[i] - next[i])
		}
		cur, next = next, cur
		if diff < p.Tol {
			break
		}
	}
	return cur
}

// serialTRankReference is the T-Rank recurrence of tRank as straight-line
// serial code.
func serialTRankReference(cv graph.CSRView, restart []float64, p Params) []float64 {
	n := len(restart)
	out := cv.OutCSR()
	cur := make([]float64, n)
	next := make([]float64, n)
	for i := range cur {
		cur[i] = p.Alpha * restart[i]
	}
	oneMinus := 1 - p.Alpha
	for iter := 0; iter < p.MaxIter; iter++ {
		for v := 0; v < n; v++ {
			acc := p.Alpha * restart[v]
			if sum := out.Sum[v]; sum > 0 {
				s := 0.0
				for i := out.RowPtr[v]; i < out.RowPtr[v+1]; i++ {
					s += out.Weight[i] * cur[out.Col[i]]
				}
				acc += oneMinus * s / sum
			}
			next[v] = acc
		}
		diff := 0.0
		for i := range cur {
			diff += math.Abs(cur[i] - next[i])
		}
		cur, next = next, cur
		if diff < p.Tol {
			break
		}
	}
	return cur
}

// serialPageRankReference is the global PageRank recurrence of pageRank as
// straight-line serial code.
func serialPageRankReference(cv graph.CSRView, d, tol float64, maxIter int) []float64 {
	n := cv.NumNodes()
	out, in := cv.OutCSR(), cv.InCSR()
	uniform := 1.0 / float64(n)
	cur := make([]float64, n)
	next := make([]float64, n)
	scaled := make([]float64, n)
	for i := range cur {
		cur[i] = uniform
	}
	oneMinus := 1 - d
	for iter := 0; iter < maxIter; iter++ {
		dangling := 0.0
		for u := 0; u < n; u++ {
			if out.Sum[u] > 0 {
				scaled[u] = cur[u] / out.Sum[u]
			} else {
				scaled[u] = 0
				dangling += cur[u]
			}
		}
		base := d*uniform + oneMinus*dangling*uniform
		for v := 0; v < n; v++ {
			sum := 0.0
			for i := in.RowPtr[v]; i < in.RowPtr[v+1]; i++ {
				sum += in.Weight[i] * scaled[in.Col[i]]
			}
			next[v] = base + oneMinus*sum
		}
		diff := 0.0
		for i := range cur {
			diff += math.Abs(cur[i] - next[i])
		}
		cur, next = next, cur
		if diff < tol {
			break
		}
	}
	return cur
}

func kernelTestGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"toy":   testgraphs.NewToy().Graph,
		"line":  testgraphs.Line(17), // has a dangling tail node
		"cycle": testgraphs.Cycle(23),
		"star":  testgraphs.Star(9),
	}
}

func assertBitIdentical(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: node %d differs bit-for-bit: %v != %v (delta %g)",
				label, i, got[i], want[i], got[i]-want[i])
		}
	}
}

// TestKernelsMatchSerialReferenceBitForBit is the acceptance test of the
// shared loop: the three rules over the flat and the packed gather, at
// Workers = 1 and at every other worker count, must reproduce the serial
// reference exactly, not just within tolerance.
func TestKernelsMatchSerialReferenceBitForBit(t *testing.T) {
	p := Params{Alpha: 0.25, Tol: 1e-11, MaxIter: 300}
	for name, g := range kernelTestGraphs() {
		q := SingleNode(0)
		restart := make([]float64, g.NumNodes())
		if err := q.restart(restart); err != nil {
			t.Fatalf("%s: restart: %v", name, err)
		}
		wantF := serialFRankReference(g, restart, p)
		wantT := serialTRankReference(g, restart, p)
		wantPR := serialPageRankReference(g, 0.15, 1e-11, 300)
		for layout, view := range map[string]graph.View{"flat": g, "packed": graph.Pack(g)} {
			for _, workers := range []int{1, 2, 3, 8} {
				gth, release := Local(view, workers)
				gotF, err := fRank(context.Background(), gth, restart, p)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: fRank: %v", name, layout, workers, err)
				}
				assertBitIdentical(t, name+"/"+layout+"/frank", wantF, gotF)
				gotT, err := tRank(context.Background(), gth, restart, p)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: tRank: %v", name, layout, workers, err)
				}
				assertBitIdentical(t, name+"/"+layout+"/trank", wantT, gotT)
				gotPR, err := pageRank(context.Background(), gth, 0.15, 1e-11, 300)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: pageRank: %v", name, layout, workers, err)
				}
				assertBitIdentical(t, name+"/"+layout+"/pagerank", wantPR, gotPR)
				release()
			}
		}
	}
}

// TestPublicSolversUseKernelResults pins the exported entry points to the
// same values: FRank/TRank with a Workers override must equal the serial
// reference bit-for-bit on a CSR view.
func TestPublicSolversUseKernelResults(t *testing.T) {
	g := testgraphs.NewToy().Graph
	p := Params{Alpha: 0.25, Tol: 1e-11, MaxIter: 300, Workers: 1}
	restart := make([]float64, g.NumNodes())
	q := SingleNode(0)
	if err := q.restart(restart); err != nil {
		t.Fatalf("restart: %v", err)
	}
	// The references run with normalized params, mirroring the entry points.
	np, err := p.normalized()
	if err != nil {
		t.Fatalf("normalized: %v", err)
	}
	f, err := FRank(context.Background(), g, q, p)
	if err != nil {
		t.Fatalf("FRank: %v", err)
	}
	assertBitIdentical(t, "FRank", serialFRankReference(g, restart, np), f)
	tr, err := TRank(context.Background(), g, q, p)
	if err != nil {
		t.Fatalf("TRank: %v", err)
	}
	assertBitIdentical(t, "TRank", serialTRankReference(g, restart, np), tr)
}

// ownedArrays is adjacency storage of the caller's own: the three methods
// graph.Compact asks for and nothing else.
type ownedArrays struct {
	n       int
	out, in graph.CSR
}

func (a ownedArrays) NumNodes() int     { return a.n }
func (a ownedArrays) OutCSR() graph.CSR { return a.out }
func (a ownedArrays) InCSR() graph.CSR  { return a.in }

// TestWrappedViewsSolveThroughCompact pins the door for caller-owned arrays:
// wrapped with graph.Compact — the arrays of the graph, and of the graph with
// an edge masked out — every solver is bit-identical to the same call on the
// layout the arrays came from, and a cancelled context still returns
// ctx.Err().
func TestWrappedViewsSolveThroughCompact(t *testing.T) {
	p := Params{Alpha: 0.25, Tol: 1e-12, MaxIter: 500}
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	q := SingleNode(0)
	for name, g := range kernelTestGraphs() {
		to, _ := g.OutNeighbors(0)
		masked := g.Without([]graph.EdgeKey{{From: 0, To: to[0]}})
		for kind, src := range map[string]interface {
			graph.View
			graph.CSRView
		}{"graph": g, "masked": masked} {
			view := graph.Compact(ownedArrays{n: src.NumNodes(), out: src.OutCSR(), in: src.InCSR()})
			solvers := map[string]func(context.Context, graph.View) ([]float64, error){
				"FRank": func(ctx context.Context, v graph.View) ([]float64, error) { return FRank(ctx, v, q, p) },
				"TRank": func(ctx context.Context, v graph.View) ([]float64, error) { return TRank(ctx, v, q, p) },
				"PageRank": func(ctx context.Context, v graph.View) ([]float64, error) {
					return GlobalPageRank(ctx, v, 0.15, 1e-12, 500)
				},
			}
			for solver, solve := range solvers {
				label := name + "/" + kind + "/" + solver
				want, err := solve(ctx, src)
				if err != nil {
					t.Fatalf("%s on the source layout: %v", label, err)
				}
				got, err := solve(ctx, view)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertBitIdentical(t, label, want, got)
				if _, err := solve(cancelled, view); !errors.Is(err, context.Canceled) {
					t.Fatalf("%s cancelled: got %v, want context.Canceled", label, err)
				}
			}
		}
	}
}

// TestPoolRunCoversRange checks the pool partitioning: every index in [0, n)
// is visited exactly once for a spread of sizes and worker counts.
func TestPoolRunCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		pool := NewPool(workers)
		for _, n := range []int{0, 1, 2, 5, 64, 1000} {
			visited := make([]int32, n) // no lock needed: ranges are disjoint
			pool.Run(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					visited[i]++
				}
			})
			for i, c := range visited {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
		pool.Close()
	}
}
