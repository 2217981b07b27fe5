package walk_test

import (
	"context"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"roundtriprank/internal/core"
	"roundtriprank/internal/datasets"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/walk"
)

// fetchCountingView is a packed view that counts the fetches of each
// direction's flat rows.
type fetchCountingView struct {
	*graph.Packed
	fetches [2]atomic.Int32 // indexed by graph.Dir
}

func (v *fetchCountingView) FlatRows(dir graph.Dir, rows []graph.NodeID) graph.CSR {
	v.fetches[dir].Add(1)
	return v.Packed.FlatRows(dir, rows)
}

// TestPackedSolveDecodesEachDirectionOnce runs core.Solve — both legs at once
// over one Local — on a packed R-MAT graph and requires that each direction
// was decoded exactly once, however many gathers the legs took, that the
// vectors equal the flat solve's bit for bit, and that no goroutine the solve
// started outlives it. Under -race it also holds the per-direction fetch
// race-free.
func TestPackedSolveDecodesEachDirectionOnce(t *testing.T) {
	cfg := datasets.DefaultRMATConfig(2_000)
	cfg.Seed = 7
	r, err := datasets.GenerateRMAT(cfg)
	if err != nil {
		t.Fatalf("GenerateRMAT: %v", err)
	}
	g := r.Graph
	p := walk.Params{Alpha: 0.25, Tol: 1e-10, MaxIter: 300}
	ctx := context.Background()
	for _, q := range []walk.Query{walk.SingleNode(0), walk.MultiNode(3, 17, 1_999)} {
		wantF, wantT, _, _, err := core.Solve(ctx, walk.Local(g, 0), q, p)
		if err != nil {
			t.Fatalf("flat solve: %v", err)
		}
		before := runtime.NumGoroutine()
		view := &fetchCountingView{Packed: graph.Pack(g)}
		gotF, gotT, _, _, err := core.Solve(ctx, walk.Local(view, 0), q, p)
		if err != nil {
			t.Fatalf("packed solve: %v", err)
		}
		if out, in := view.fetches[graph.Out].Load(), view.fetches[graph.In].Load(); out != 1 || in != 1 {
			t.Fatalf("query %v: out-rows decoded %d times, in-rows %d; want once each", q.Nodes, out, in)
		}
		walk.AssertBitIdentical(t, "F", wantF, gotF)
		walk.AssertBitIdentical(t, "T", wantT, gotT)
		// A goroutine fan.Do joined may still be on its way out.
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("query %v: %d goroutines after the solve, %d before", q.Nodes, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestPackedLocalRefetchesForAnotherList holds a Local to its fetch rule: the
// rows it decoded for one list serve gathers over that list only, so a
// gather over another list — here one holding rows the first left out, and
// then every row — decodes afresh and still equals the flat gather on every
// row it lists.
func TestPackedLocalRefetchesForAnotherList(t *testing.T) {
	g := walk.KernelTestGraphs()["rmat"]
	n := g.NumNodes()
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	var even, odd []graph.NodeID
	for v := range graph.NodeID(n) {
		if v%2 == 0 {
			even = append(even, v)
		} else {
			odd = append(odd, v)
		}
	}
	want := make([]float64, n)
	g.OutCSR().Gather(x, want, nil, 0, n)
	view := &fetchCountingView{Packed: graph.Pack(g)}
	gth := walk.Local(view, 2)
	for i, rows := range [][]graph.NodeID{even, even, odd, nil} {
		got := make([]float64, n)
		if err := gth.GatherOut(context.Background(), x, got, rows); err != nil {
			t.Fatalf("gather %d: %v", i, err)
		}
		listed := rows
		if rows == nil {
			listed = slices.Concat(even, odd)
		}
		for _, v := range listed {
			if got[v] != want[v] {
				t.Fatalf("gather %d: row %d gathers %v, the flat row %v", i, v, got[v], want[v])
			}
		}
	}
	if fetches := view.fetches[graph.Out].Load(); fetches != 3 {
		t.Fatalf("%d fetches for three lists, one of them gathered twice", fetches)
	}
}
