package roundtriprank

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"roundtriprank/internal/distributed"
	"roundtriprank/internal/testgraphs"
)

// These tests pin the snapshot as the one door from a graph to a seam: a view
// without arrays is flattened once per snapshot, the fleet is dialed once per
// epoch whichever families query it, and the one executor feeds the stats hook
// for Rank and RankBatch alike.

// TestRankBatchFeedsStatsHook pins that a batch's plans reach the stats hook
// like single requests do — one call per executed plan, with the resolved
// method.
func TestRankBatchFeedsStatsHook(t *testing.T) {
	toy := testgraphs.NewToy()
	var (
		mu    sync.Mutex
		stats []QueryStat
	)
	engine, err := NewEngine(toy.Graph, WithQueryStatsHook(func(s QueryStat) {
		mu.Lock()
		stats = append(stats, s)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	reqs := []Request{
		{Query: SingleNode(toy.T1), K: 3, Method: Exact},
		{Query: SingleNode(toy.T2), K: 3}, // Auto: a small local graph plans Exact
		{Query: SingleNode(toy.T1), K: 3, Method: TwoSBound, Epsilon: 0.01},
		{Query: MultiNode(toy.T1, toy.T2), K: 3, Method: BoundScheme(SchemeGS), Epsilon: 0.01},
	}
	if _, err := engine.RankBatch(context.Background(), reqs); err != nil {
		t.Fatalf("RankBatch: %v", err)
	}
	if len(stats) != len(reqs) {
		t.Fatalf("the hook saw %d plans of a %d-request batch", len(stats), len(reqs))
	}
	got := make(map[string]int)
	for _, s := range stats {
		if s.Err != nil || s.Elapsed <= 0 {
			t.Errorf("stat %+v: want a timed success", s)
		}
		got[s.Method.String()]++
	}
	if want := map[string]int{"exact": 2, "2SBound": 1, "G+S": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("hook saw methods %v, want %v", got, want)
	}
}

// handshakes counts the three connect-time RPCs one loopback worker answers;
// everything else (multiplies, row fetches, stripe installs and retags) is the
// embedded transport's own.
type handshakes struct {
	*distributed.Loopback
	info, outSums, outDegrees atomic.Int64
}

func (h *handshakes) Info(ctx context.Context) (distributed.WorkerInfo, error) {
	h.info.Add(1)
	return h.Loopback.Info(ctx)
}

func (h *handshakes) OutSums(ctx context.Context) ([]float64, error) {
	h.outSums.Add(1)
	return h.Loopback.OutSums(ctx)
}

func (h *handshakes) OutDegrees(ctx context.Context) ([]int32, error) {
	h.outDegrees.Add(1)
	return h.Loopback.OutDegrees(ctx)
}

func (h *handshakes) counts() [3]int64 {
	return [3]int64{h.info.Load(), h.outSums.Load(), h.outDegrees.Load()}
}

// TestOneHandshakePerEpoch pins the single fleet handle: the exact and the
// online family share one connect per epoch, in whichever order they first
// query it, and an Apply costs exactly one more.
func TestOneHandshakePerEpoch(t *testing.T) {
	ctx := context.Background()
	for _, order := range [][]Method{{Distributed, TwoSBoundRemote}, {TwoSBoundRemote, Distributed}} {
		t.Run(fmt.Sprint(order), func(t *testing.T) {
			base := epochBase(t)
			loop, err := LoopbackWorkers(base, 3)
			if err != nil {
				t.Fatalf("LoopbackWorkers: %v", err)
			}
			counted := make([]*handshakes, len(loop))
			workers := make([]Transport, len(loop))
			for i, tr := range loop {
				counted[i] = &handshakes{Loopback: tr.(*distributed.Loopback)}
				workers[i] = counted[i]
			}
			engine, err := NewEngine(base, WithWorkers(workers...))
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			q := base.NodeByLabel("paper:0")
			queryBoth := func() {
				t.Helper()
				for _, m := range []Method{order[0], order[1], order[0]} {
					if _, err := engine.Rank(ctx, Request{Query: SingleNode(q), K: 5, Method: m}); err != nil {
						t.Fatalf("%s: %v", m, err)
					}
				}
			}
			queryBoth()
			for i, h := range counted {
				if got := h.counts(); got != [3]int64{1, 1, 1} {
					t.Errorf("epoch 0, worker %d: %v Info/OutSums/OutDegrees calls, want one of each", i, got)
				}
			}

			d := NewDelta(base)
			if err := d.SetEdge(q, base.NodeByLabel("author:0"), 5); err != nil {
				t.Fatal(err)
			}
			if _, err := engine.Apply(ctx, d); err != nil {
				t.Fatalf("Apply: %v", err)
			}
			// The redeploy asks each worker what it serves; the handshake of
			// the new epoch is what comes on top.
			var after [][3]int64
			for _, h := range counted {
				after = append(after, h.counts())
			}
			queryBoth()
			for i, h := range counted {
				got := h.counts()
				for j := range got {
					got[j] -= after[i][j]
				}
				if got != [3]int64{1, 1, 1} {
					t.Errorf("epoch 1, worker %d: %v more Info/OutSums/OutDegrees calls, want one of each", i, got)
				}
			}
			if ep, ok := engine.FleetEpoch(); !ok || ep != 1 {
				t.Errorf("FleetEpoch = %d, %v; want 1, true", ep, ok)
			}
		})
	}
}

// passCounter hides everything but the View methods of a graph and counts the
// adjacency reads made through them.
type passCounter struct {
	View
	eachOut, eachIn atomic.Int64
}

func (p *passCounter) EachOut(v NodeID, fn func(to NodeID, w float64) bool) {
	p.eachOut.Add(1)
	p.View.EachOut(v, fn)
}

func (p *passCounter) EachIn(v NodeID, fn func(from NodeID, w float64) bool) {
	p.eachIn.Add(1)
	p.View.EachIn(v, fn)
}

// TestWrappedViewIsFlattenedOncePerSnapshot hands the engine a view with no
// arrays of its own: the snapshot reads it in one full pass, every query of
// either family then runs on the flattened copy, and every response is
// bit-identical to an engine over the *Graph itself.
func TestWrappedViewIsFlattenedOncePerSnapshot(t *testing.T) {
	ctx := context.Background()
	for _, pg := range parityGraphs() {
		wrapped := &passCounter{View: pg.graph}
		engine, err := NewEngine(wrapped)
		if err != nil {
			t.Fatalf("%s: NewEngine: %v", pg.name, err)
		}
		direct, err := NewEngine(pg.graph)
		if err != nil {
			t.Fatalf("%s: NewEngine: %v", pg.name, err)
		}
		if engine.View() != View(wrapped) {
			t.Errorf("%s: View() is not the view the engine was given", pg.name)
		}
		for _, q := range pg.queries {
			for _, m := range []Method{Exact, TwoSBound, BoundScheme(SchemeGS)} {
				// The symmetric graphs tie at rank 5; the round cap keeps the
				// online search from spinning on the tie.
				req := Request{Query: SingleNode(q), K: 5, Method: m, Epsilon: 0.01, Budget: &Budget{MaxRounds: 4}}
				want, err := direct.Rank(ctx, req)
				if err != nil {
					t.Fatalf("%s/q%d/%s direct: %v", pg.name, q, m, err)
				}
				for rep := 0; rep < 3; rep++ {
					got, err := engine.Rank(ctx, req)
					if err != nil {
						t.Fatalf("%s/q%d/%s: %v", pg.name, q, m, err)
					}
					got.Elapsed, want.Elapsed = 0, 0
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s/q%d/%s: wrapped view diverged:\n%+v\n%+v", pg.name, q, m, got, want)
					}
				}
			}
		}
		n := int64(pg.graph.NumNodes())
		if out, in := wrapped.eachOut.Load(), wrapped.eachIn.Load(); out != n || in != n {
			t.Errorf("%s: %d EachOut and %d EachIn calls for %d queries, want one pass of %d each",
				pg.name, out, in, 9*len(pg.queries), n)
		}
	}
}
