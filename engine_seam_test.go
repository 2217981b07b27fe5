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

// These tests pin the snapshot as the one door from a graph to a seam: the
// fleet is dialed once per epoch whichever families query it, and the one
// executor feeds the stats hook for Rank and RankBatch alike.

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
		{Query: MultiNode(toy.T1, toy.T2), K: 3, Method: TwoSBound, Epsilon: 0.01},
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
	if want := map[string]int{"exact": 2, "2SBound": 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("hook saw methods %v, want %v", got, want)
	}
}

// handshakes counts the three connect-time RPCs one in-process worker answers;
// everything else (multiplies, row fetches, stripe installs and retags) is the
// embedded transport's own.
type handshakes struct {
	*distributed.HTTPTransport
	info, outSums, outDegrees atomic.Int64
}

func (h *handshakes) Info(ctx context.Context) (distributed.WorkerInfo, error) {
	h.info.Add(1)
	return h.HTTPTransport.Info(ctx)
}

func (h *handshakes) OutSums(ctx context.Context) ([]float64, error) {
	h.outSums.Add(1)
	return h.HTTPTransport.OutSums(ctx)
}

func (h *handshakes) OutDegrees(ctx context.Context) ([]int32, error) {
	h.outDegrees.Add(1)
	return h.HTTPTransport.OutDegrees(ctx)
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
				counted[i] = &handshakes{HTTPTransport: tr.(*distributed.HTTPTransport)}
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
			if st := engine.FleetStats(); !st.Connected || st.Epoch != 1 {
				t.Errorf("FleetStats reports epoch %d, connected %v; want 1, true", st.Epoch, st.Connected)
			}
		})
	}
}
