package roundtriprank

import (
	"context"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"roundtriprank/internal/distributed"
)

// Cross-epoch parity suite: the acceptance gate of the live-graph subsystem.
// A graph mutated through Delta/Commit must be indistinguishable — node for
// node, bit for bit — from the same graph built from scratch, on every
// execution method; and an epoch rollover across a worker fleet must ship
// only the stripes whose content the commit actually changed.

// epochBase builds the 12-node typed base graph the cross-epoch tests mutate.
func epochBase(t testing.TB) *Graph {
	t.Helper()
	b := NewGraphBuilder()
	b.RegisterType(1, "paper")
	b.RegisterType(2, "author")
	b.RegisterType(3, "venue")
	var papers, authors [4]NodeID
	for i := 0; i < 4; i++ {
		papers[i] = b.AddNode(1, "paper:"+string(rune('0'+i)))
		authors[i] = b.AddNode(2, "author:"+string(rune('0'+i)))
	}
	v0 := b.AddNode(3, "venue:icde")
	v1 := b.AddNode(3, "venue:kdd")
	for i := 0; i < 4; i++ {
		b.MustAddUndirectedEdge(papers[i], authors[i], 1+0.25*float64(i))
		b.MustAddUndirectedEdge(papers[i], authors[(i+1)%4], 0.5)
	}
	b.MustAddUndirectedEdge(papers[0], v0, 2)
	b.MustAddUndirectedEdge(papers[1], v0, 1)
	b.MustAddUndirectedEdge(papers[2], v1, 1.5)
	b.MustAddUndirectedEdge(papers[3], v1, 1)
	b.MustAddEdge(papers[1], papers[0], 0.75)
	b.MustAddEdge(papers[2], papers[0], 0.25)
	b.MustAddEdge(papers[3], papers[2], 0.5)
	return b.MustBuild()
}

// stageEpochDelta stages the canonical mutation batch against base: a new
// paper and author wired in, a reweight, a directed and an undirected
// removal, and a node isolation.
func stageEpochDelta(t testing.TB, base *Graph) *Delta {
	t.Helper()
	d := NewDelta(base)
	p4 := d.AddNode(1, "paper:4")
	a4 := d.AddNode(2, "author:4")
	mustStage := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("stage: %v", err)
		}
	}
	mustStage(d.SetUndirectedEdge(p4, a4, 2))
	mustStage(d.SetUndirectedEdge(p4, d.NodeByLabel("venue:kdd"), 1))
	mustStage(d.SetEdge(p4, d.NodeByLabel("paper:0"), 0.5))
	mustStage(d.SetUndirectedEdge(d.NodeByLabel("paper:0"), d.NodeByLabel("author:0"), 3)) // reweight
	mustStage(d.RemoveEdge(d.NodeByLabel("paper:2"), d.NodeByLabel("paper:0")))
	mustStage(d.RemoveUndirectedEdge(d.NodeByLabel("paper:1"), d.NodeByLabel("author:2")))
	mustStage(d.RemoveNode(d.NodeByLabel("author:3")))
	return d
}

// epochScratch builds, from scratch, the graph that committing
// stageEpochDelta against epochBase must equal.
func epochScratch(t testing.TB) *Graph {
	t.Helper()
	b := NewGraphBuilder()
	b.RegisterType(1, "paper")
	b.RegisterType(2, "author")
	b.RegisterType(3, "venue")
	var papers, authors [4]NodeID
	for i := 0; i < 4; i++ {
		papers[i] = b.AddNode(1, "paper:"+string(rune('0'+i)))
		authors[i] = b.AddNode(2, "author:"+string(rune('0'+i)))
	}
	v0 := b.AddNode(3, "venue:icde")
	v1 := b.AddNode(3, "venue:kdd")
	p4 := b.AddNode(1, "paper:4")
	a4 := b.AddNode(2, "author:4")
	b.MustAddUndirectedEdge(papers[0], authors[0], 3) // reweighted
	b.MustAddUndirectedEdge(papers[0], authors[1], 0.5)
	b.MustAddUndirectedEdge(papers[1], authors[1], 1.25)
	// papers[1]<->authors[2] removed
	b.MustAddUndirectedEdge(papers[2], authors[2], 1.5)
	// authors[3] isolated: its papers[2]/papers[3] edges are gone
	b.MustAddUndirectedEdge(papers[3], authors[0], 0.5)
	b.MustAddUndirectedEdge(papers[0], v0, 2)
	b.MustAddUndirectedEdge(papers[1], v0, 1)
	b.MustAddUndirectedEdge(papers[2], v1, 1.5)
	b.MustAddUndirectedEdge(papers[3], v1, 1)
	b.MustAddEdge(papers[1], papers[0], 0.75)
	// papers[2]->papers[0] removed
	b.MustAddEdge(papers[3], papers[2], 0.5)
	b.MustAddUndirectedEdge(p4, a4, 2)
	b.MustAddUndirectedEdge(p4, v1, 1)
	b.MustAddEdge(p4, papers[0], 0.5)
	return b.MustBuild()
}

// requireBitIdentical asserts two responses rank the same nodes with
// bit-identical scores.
func requireBitIdentical(t *testing.T, label string, got, want *Response) {
	t.Helper()
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%s: %d results, want %d", label, len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if got.Results[i].Node != want.Results[i].Node {
			t.Fatalf("%s rank %d: node %d, want %d", label, i, got.Results[i].Node, want.Results[i].Node)
		}
		if math.Float64bits(got.Results[i].Score) != math.Float64bits(want.Results[i].Score) {
			t.Fatalf("%s rank %d: score %v, want %v (not bit-identical)",
				label, i, got.Results[i].Score, want.Results[i].Score)
		}
	}
}

// TestCrossEpochParityAllMethods commits a delta through Engine.Apply and
// pins, for every Method, that ranking on the committed snapshot is
// bit-identical to ranking on the equivalent graph built from scratch. The
// mutated engine's worker fleet is rolled forward by Apply itself; the
// scratch engine gets its own fleet.
func TestCrossEpochParityAllMethods(t *testing.T) {
	base := epochBase(t)
	scratch := epochScratch(t)

	const workers = 3
	mutWorkers, err := LoopbackWorkers(base, workers)
	if err != nil {
		t.Fatalf("LoopbackWorkers: %v", err)
	}
	mutEngine, err := NewEngine(base, WithWorkers(mutWorkers...))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	scratchWorkers, err := LoopbackWorkers(scratch, workers)
	if err != nil {
		t.Fatalf("LoopbackWorkers(scratch): %v", err)
	}
	scratchEngine, err := NewEngine(scratch, WithWorkers(scratchWorkers...))
	if err != nil {
		t.Fatalf("NewEngine(scratch): %v", err)
	}

	// Connect the mutated engine's coordinator on epoch 0 first, so the test
	// also covers reconnection across the rollover.
	if _, err := mutEngine.Rank(context.Background(), Request{
		Query: SingleNode(0), K: 3, Method: Distributed,
	}); err != nil {
		t.Fatalf("pre-rollover distributed query: %v", err)
	}

	res, err := mutEngine.Apply(context.Background(), stageEpochDelta(t, base))
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if res.Epoch != 1 || mutEngine.Epoch() != 1 {
		t.Fatalf("epoch after Apply: result %d, engine %d, want 1", res.Epoch, mutEngine.Epoch())
	}
	if res.StripesShipped+res.StripesRetagged != workers {
		t.Fatalf("redeploy covered %d of %d workers", res.StripesShipped+res.StripesRetagged, workers)
	}
	if g := res.Graph; g.NumNodes() != scratch.NumNodes() || g.NumEdges() != scratch.NumEdges() {
		t.Fatalf("committed graph %d nodes/%d edges, scratch %d/%d",
			g.NumNodes(), g.NumEdges(), scratch.NumNodes(), scratch.NumEdges())
	}

	queries := []Query{
		SingleNode(res.Graph.NodeByLabel("paper:0")),
		SingleNode(res.Graph.NodeByLabel("paper:4")), // a node born in the delta
		MultiNode(res.Graph.NodeByLabel("author:1"), res.Graph.NodeByLabel("venue:kdd")),
	}
	methods := []Method{Exact, TwoSBound, Distributed}
	for qi, q := range queries {
		for _, m := range methods {
			req := Request{Query: q, K: 6, Method: m, Beta: Float64(0.4)}
			got, err := mutEngine.Rank(context.Background(), req)
			if err != nil {
				t.Fatalf("q%d %s on committed: %v", qi, m, err)
			}
			want, err := scratchEngine.Rank(context.Background(), req)
			if err != nil {
				t.Fatalf("q%d %s on scratch: %v", qi, m, err)
			}
			requireBitIdentical(t, m.String(), got, want)
			if len(got.Results) == 0 {
				t.Fatalf("q%d %s: empty result set", qi, m)
			}
		}
	}

	// The isolated node must have dropped out of every ranking.
	removed := res.Graph.NodeByLabel("author:3")
	full, err := mutEngine.Rank(context.Background(), Request{
		Query: SingleNode(res.Graph.NodeByLabel("paper:0")), K: res.Graph.NumNodes(), Method: Exact,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range full.Results {
		if r.Node == removed {
			t.Fatalf("isolated node %d still ranked", removed)
		}
	}
}

// TestApplyRedeploysOnlyChangedStripes rolls a worker fleet through a commit
// that touches a single stripe's rows and asserts the redeploy ships exactly
// that stripe, retagging the rest — over HTTP workers, exercising the retag
// endpoint end to end.
func TestApplyRedeploysOnlyChangedStripes(t *testing.T) {
	base := epochBase(t)
	const workers = 3
	ts := httpWorkerCluster(t, base, workers)
	engine, err := NewEngine(base, WithWorkers(ts...))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}

	// paper:0 is node 0, author:0 is node 1: reweighting the directed edge
	// 0->1 touches stripe 0's out-rows (node 0) and stripe 1's in-rows
	// (node 1); stripe 2's content is untouched.
	d := NewDelta(base)
	if err := d.SetEdge(base.NodeByLabel("paper:0"), base.NodeByLabel("author:0"), 5); err != nil {
		t.Fatal(err)
	}
	res, err := engine.Apply(context.Background(), d)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if res.StripesShipped != 2 || res.StripesRetagged != 1 {
		t.Fatalf("shipped %d, retagged %d; want 2 shipped, 1 retagged",
			res.StripesShipped, res.StripesRetagged)
	}

	// The rolled-forward cluster must agree with the local exact solve.
	for _, m := range []Method{Exact, Distributed} {
		resp, err := engine.Rank(context.Background(), Request{
			Query: SingleNode(base.NodeByLabel("paper:0")), K: 5, Method: m,
		})
		if err != nil {
			t.Fatalf("%s after rollover: %v", m, err)
		}
		if len(resp.Results) == 0 {
			t.Fatalf("%s after rollover: no results", m)
		}
	}
	exact, _ := engine.Rank(context.Background(), Request{Query: SingleNode(0), K: 5, Method: Exact})
	dist, err := engine.Rank(context.Background(), Request{Query: SingleNode(0), K: 5, Method: Distributed})
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "distributed-vs-exact", dist, exact)

	// A worker still serving the old epoch must be rejected, not silently
	// mixed in: point a fresh engine's cluster at one stale worker.
	stale := httpWorkerCluster(t, base, workers) // epoch-0 stripes
	staleEngine, err := NewEngine(res.Graph, WithWorkers(stale...))
	if err != nil {
		t.Fatal(err)
	}
	_, err = staleEngine.Rank(context.Background(), Request{Query: SingleNode(0), K: 3, Method: Distributed})
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("stale-epoch cluster accepted (err=%v)", err)
	}
}

// TestApplyAddingNodesShipsAllStripes pins the conservative side of stale
// detection: adding a node changes every stripe's row assignment, so nothing
// may be retagged.
func TestApplyAddingNodesShipsAllStripes(t *testing.T) {
	base := epochBase(t)
	workers, err := LoopbackWorkers(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(base, WithWorkers(workers...))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDelta(base)
	n := d.AddNode(1, "paper:new")
	if err := d.SetUndirectedEdge(n, base.NodeByLabel("venue:icde"), 1); err != nil {
		t.Fatal(err)
	}
	res, err := engine.Apply(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if res.StripesShipped != 2 || res.StripesRetagged != 0 {
		t.Fatalf("shipped %d, retagged %d; want 2 shipped, 0 retagged", res.StripesShipped, res.StripesRetagged)
	}
}

// TestApplySwapsSnapshotsAtomically pins the copy-on-write serving contract:
// a ranking that planned before the Apply keeps its snapshot (results and
// labels of epoch 0), while requests planned after see epoch 1, and the
// vector cache never crosses the epochs.
func TestApplySwapsSnapshotsAtomically(t *testing.T) {
	base := epochBase(t)
	engine, err := NewEngine(base)
	if err != nil {
		t.Fatal(err)
	}
	q := Request{Query: SingleNode(base.NodeByLabel("paper:0")), K: 4, Method: Exact}

	// RankBatch populates the epoch-keyed vector cache; the Apply below must
	// purge those entries.
	batch, err := engine.RankBatch(context.Background(), []Request{q})
	if err != nil {
		t.Fatal(err)
	}
	before := batch[0]
	if _, _, size := engine.CacheStats(); size == 0 {
		t.Fatal("batch did not populate the vector cache")
	}
	oldView := engine.View()
	res, err := engine.Apply(context.Background(), stageEpochDelta(t, base))
	if err != nil {
		t.Fatal(err)
	}
	if engine.View() == oldView {
		t.Fatal("Apply did not swap the view")
	}
	if _, _, size := engine.CacheStats(); size != 0 {
		t.Fatalf("vector cache kept %d stale entries across the epoch swap", size)
	}
	after, err := engine.Rank(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// The reweight around paper:0 changes its neighborhood's scores: the two
	// epochs must answer differently, and a scratch engine over the committed
	// graph must agree with the post-swap answer exactly.
	scratchEngine, err := NewEngine(res.Graph)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scratchEngine.Rank(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "post-swap", after, want)
	same := len(before.Results) == len(after.Results)
	if same {
		for i := range before.Results {
			if before.Results[i] != after.Results[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("rankings identical across a mutating commit; the swap did nothing")
	}
	// Old epoch's view still answers (snapshots are immutable): an engine
	// over the old view is unaffected by the commit.
	oldEngine, err := NewEngine(oldView)
	if err != nil {
		t.Fatal(err)
	}
	againBefore, err := oldEngine.Rank(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "old-epoch", againBefore, before)
}

// TestWorkerRetagEndToEnd drives the retag RPC directly over HTTP: a matching
// content fingerprint rebinds the stripe, a mismatch answers 409 and leaves
// the worker serving its old identity.
func TestWorkerRetagEndToEnd(t *testing.T) {
	base := epochBase(t)
	s, err := distributed.BuildStripe(base, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(distributed.NewWorker(s).Handler())
	t.Cleanup(srv.Close)
	tr := DialWorker(srv.URL)
	rt := tr.(distributed.StripeInstaller)

	if err := rt.RetagStripe(context.Background(), 0xdeadbeef, 7, s.ContentFingerprint()); err != nil {
		t.Fatalf("matching retag failed: %v", err)
	}
	info, err := tr.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Graph != 0xdeadbeef || info.Epoch != 7 {
		t.Fatalf("retag did not rebind: %+v", info)
	}
	if err := rt.RetagStripe(context.Background(), 1, 8, s.ContentFingerprint()+1); err == nil {
		t.Fatal("mismatched retag accepted")
	}
	info, err = tr.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Graph != 0xdeadbeef || info.Epoch != 7 {
		t.Fatalf("failed retag had side effects: %+v", info)
	}
}
