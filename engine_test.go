package roundtriprank

import (
	"context"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"roundtriprank/internal/core"
	"roundtriprank/internal/datasets"
	"roundtriprank/internal/distributed"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/testgraphs"
	"roundtriprank/internal/walk"
)

func TestRequestValidation(t *testing.T) {
	toy := testgraphs.NewToy()
	engine, err := NewEngine(toy.Graph)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	// untyped serves the toy graph's bare arrays: adjacency without node types.
	untyped, err := NewEngine(graph.Compact(toy.Graph))
	if err != nil {
		t.Fatalf("NewEngine(untyped): %v", err)
	}
	valid := Request{Query: SingleNode(toy.T1), K: 3}

	cases := []struct {
		name    string
		engine  *Engine
		mutate  func(*Request)
		wantErr string
	}{
		{"valid", engine, func(r *Request) {}, ""},
		{"zero K", engine, func(r *Request) { r.K = 0 }, "K must be positive"},
		{"negative K", engine, func(r *Request) { r.K = -2 }, "K must be positive"},
		{"empty query", engine, func(r *Request) { r.Query = Query{} }, "invalid query"},
		{"negative weight", engine, func(r *Request) {
			r.Query = Query{Nodes: []NodeID{toy.T1}, Weights: []float64{-1}}
		}, "invalid query"},
		{"node out of range", engine, func(r *Request) { r.Query = SingleNode(9999) }, "out of range"},
		{"negative alpha", engine, func(r *Request) { r.Alpha = -0.1 }, "alpha"},
		{"alpha one", engine, func(r *Request) { r.Alpha = 1 }, "alpha"},
		{"beta below range", engine, func(r *Request) { r.Beta = Float64(-0.5) }, "beta"},
		{"beta above range", engine, func(r *Request) { r.Beta = Float64(1.5) }, "beta"},
		{"negative epsilon", engine, func(r *Request) { r.Epsilon = -0.01 }, "epsilon"},
		{"negative tolerance", engine, func(r *Request) { r.Tolerance = -1e-9 }, "tolerance"},
		{"type filter on untyped view", untyped, func(r *Request) {
			r.Filter = &Filter{Types: []NodeType{testgraphs.TypeVenue}}
		}, "typed graph view"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := valid
			tc.mutate(&req)
			_, err := tc.engine.Rank(context.Background(), req)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestOptionValidation pins the range checks of the engine options, which —
// like Engine.plan's — must fail on NaN and ±Inf: every ordered comparison lets
// NaN through, and a NaN β accepted here turned every Exact score of that
// engine into NaN with Converged set.
func TestOptionValidation(t *testing.T) {
	toy := testgraphs.NewToy()
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name    string
		opt     Option
		wantErr string
	}{
		{"alpha", WithAlpha(0.3), ""},
		{"alpha zero", WithAlpha(0), "alpha"},
		{"alpha one", WithAlpha(1), "alpha"},
		{"alpha NaN", WithAlpha(nan), "alpha"},
		{"alpha +Inf", WithAlpha(inf), "alpha"},
		{"alpha -Inf", WithAlpha(-inf), "alpha"},
		{"beta zero", WithBeta(0), ""},
		{"beta one", WithBeta(1), ""},
		{"beta negative", WithBeta(-0.1), "beta"},
		{"beta above one", WithBeta(1.1), "beta"},
		{"beta NaN", WithBeta(nan), "beta"},
		{"beta +Inf", WithBeta(inf), "beta"},
		{"beta -Inf", WithBeta(-inf), "beta"},
		{"tolerance", WithTolerance(1e-10), ""},
		{"tolerance zero", WithTolerance(0), "tolerance"},
		{"tolerance negative", WithTolerance(-1e-9), "tolerance"},
		{"tolerance NaN", WithTolerance(nan), "tolerance"},
		{"tolerance +Inf", WithTolerance(inf), "tolerance"},
		{"tolerance -Inf", WithTolerance(-inf), "tolerance"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewEngine(toy.Graph, tc.opt)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestAutoPlanning(t *testing.T) {
	toy := testgraphs.NewToy()
	req := Request{Query: SingleNode(toy.T1), K: 3}

	cases := []struct {
		name      string
		view      View
		opts      []Option
		wantExact bool
	}{
		{"small in-memory graph plans exact", toy.Graph, nil, true},
		{"zero exact limit plans online", toy.Graph, []Option{WithExactLimit(0)}, false},
		{"limit below graph size plans online", toy.Graph, []Option{WithExactLimit(toy.Graph.NumNodes() - 1)}, false},
		{"non-Graph view plans online", graph.Compact(toy.Graph), nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			engine, err := NewEngine(tc.view, tc.opts...)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			resp, err := engine.Rank(context.Background(), req)
			if err != nil {
				t.Fatalf("Rank: %v", err)
			}
			if resp.Method.IsExact() != tc.wantExact {
				t.Errorf("resolved method %s, want exact=%v", resp.Method, tc.wantExact)
			}
			if len(resp.Results) == 0 {
				t.Errorf("no results")
			}
		})
	}
}

// TestFilterParityToy checks the acceptance criterion on the toy bibliographic
// network: a type filter plus ε = 0 returns the same top-K from the exact and
// the online path, for several specificity biases.
func TestFilterParityToy(t *testing.T) {
	toy := testgraphs.NewToy()
	engine, err := NewEngine(toy.Graph)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	filter := &Filter{Types: []NodeType{testgraphs.TypeVenue}, ExcludeQuery: true}
	for _, beta := range []float64{0, 0.3, 0.5, 1} {
		req := Request{Query: SingleNode(toy.T1), K: 3, Filter: filter, Beta: Float64(beta)}

		req.Method = Exact
		exact, err := engine.Rank(context.Background(), req)
		if err != nil {
			t.Fatalf("beta=%g exact: %v", beta, err)
		}
		req.Method = TwoSBound
		online, err := engine.Rank(context.Background(), req)
		if err != nil {
			t.Fatalf("beta=%g online: %v", beta, err)
		}
		if len(exact.Results) != 3 || len(online.Results) != 3 {
			t.Fatalf("beta=%g: want 3 venues from both paths, got %d and %d",
				beta, len(exact.Results), len(online.Results))
		}
		for i := range exact.Results {
			if exact.Results[i].Node != online.Results[i].Node {
				t.Errorf("beta=%g rank %d: exact %d != online %d",
					beta, i, exact.Results[i].Node, online.Results[i].Node)
			}
		}
	}
}

// TestFilterParityBibNet runs the paper's "find authors for this paper"
// scenario on a synthetic bibliographic network: exact and 2SBound at ε = 0
// must select the same author set.
func TestFilterParityBibNet(t *testing.T) {
	net, err := datasets.GenerateBibNet(datasets.ScaledBibNetConfig(0.15))
	if err != nil {
		t.Fatalf("GenerateBibNet: %v", err)
	}
	engine, err := NewEngine(net.Graph)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	filter := &Filter{Types: []NodeType{datasets.TypeAuthor}, ExcludeQuery: true}
	for qi := 0; qi < 3; qi++ {
		paper := net.Papers[(qi*131)%len(net.Papers)]
		req := Request{Query: SingleNode(paper), K: 5, Filter: filter}

		req.Method = Exact
		exact, err := engine.Rank(context.Background(), req)
		if err != nil {
			t.Fatalf("query %d exact: %v", qi, err)
		}
		req.Method = TwoSBound
		online, err := engine.Rank(context.Background(), req)
		if err != nil {
			t.Fatalf("query %d online: %v", qi, err)
		}
		if len(exact.Results) != len(online.Results) {
			t.Fatalf("query %d: exact returned %d, online %d", qi, len(exact.Results), len(online.Results))
		}
		exactSet := make(map[NodeID]bool, len(exact.Results))
		for _, r := range exact.Results {
			exactSet[r.Node] = true
			if net.Graph.Type(r.Node) != datasets.TypeAuthor {
				t.Errorf("query %d: exact result %d is not an author", qi, r.Node)
			}
		}
		for _, r := range online.Results {
			if !exactSet[r.Node] {
				t.Errorf("query %d: online result %d not in exact top-K", qi, r.Node)
			}
		}
	}
}

// cancellingGatherer is the exact solvers' row-gather seam with a tripwire: it
// counts gathers per direction, and the k-th GatherIn (the F-Rank side)
// cancels the context, recording both counts as they stood.
type cancellingGatherer struct {
	walk.Gatherer
	cancel          context.CancelFunc
	k               int64
	in, out         atomic.Int64
	inTrip, outTrip int64
}

func (c *cancellingGatherer) GatherIn(ctx context.Context, x, dst []float64) error {
	if n := c.in.Add(1); n == c.k {
		c.inTrip, c.outTrip = n, c.out.Load()
		c.cancel()
	}
	return c.Gatherer.GatherIn(ctx, x, dst)
}

func (c *cancellingGatherer) GatherOut(ctx context.Context, x, dst []float64) error {
	c.out.Add(1)
	return c.Gatherer.GatherOut(ctx, x, dst)
}

// cancellingTransport is one fleet worker with the same tripwire on the wire:
// the k-th Multiply across the fleet cancels the context.
type cancellingTransport struct {
	Transport
	cancel context.CancelFunc
	k      int64
	calls  *atomic.Int64
}

func (c *cancellingTransport) Multiply(ctx context.Context, dir distributed.Direction, fp uint32, x []float64) ([]float64, error) {
	if c.calls.Add(1) == c.k {
		c.cancel()
	}
	return c.Transport.Multiply(ctx, dir, fp, x)
}

// TestCancellationAbortsExactSolve cancels an exact solve from inside its own
// row gather, on both localities. Over the in-process gather — which ignores
// the context, so the power iteration's own per-iteration check is all that
// stops it — the solve the engine's exact arm runs (core.Solve over walk.Local)
// must return context.Canceled with no further F-side gather and at most one
// T-side gather already past its check. Over the worker fleet the engine must
// report the caller's context.Canceled, not backend trouble, within one more
// gather per solver. A pre-cancelled context aborts the online path before
// any expansion.
func TestCancellationAbortsExactSolve(t *testing.T) {
	// A long cycle keeps the power iteration busy for many iterations.
	g := testgraphs.Cycle(5000)
	wp := walk.Params{Alpha: 0.25, Tol: 1e-15} // many iterations if cancellation were ignored

	lctx, lcancel := context.WithCancel(context.Background())
	defer lcancel()
	local := walk.Local(g, 0)
	trip := &cancellingGatherer{Gatherer: local, cancel: lcancel, k: 3}
	if _, _, err := core.Solve(lctx, trip, walk.SingleNode(0), wp); err != context.Canceled {
		t.Fatalf("core.Solve error = %v, want context.Canceled", err)
	}
	if in, out := trip.in.Load()-trip.inTrip, trip.out.Load()-trip.outTrip; in != 0 || out > 1 {
		t.Errorf("after cancellation F-Rank gathered %d more times and T-Rank %d, want 0 and at most 1", in, out)
	}

	const workers, k = 3, 7
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	loop, err := LoopbackWorkers(g, workers)
	if err != nil {
		t.Fatalf("LoopbackWorkers: %v", err)
	}
	var calls atomic.Int64
	for i, tr := range loop {
		loop[i] = &cancellingTransport{Transport: tr, cancel: cancel, k: k, calls: &calls}
	}
	engine, err := NewEngine(g, WithWorkers(loop...))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	_, err = engine.Rank(ctx, Request{Query: SingleNode(0), K: 10, Method: Distributed, Tolerance: wp.Tol})
	if err != context.Canceled {
		t.Fatalf("Distributed Rank error = %v, want context.Canceled (not a ClusterError)", err)
	}
	// The cancelling gather and the sibling solver's current one may finish;
	// neither solver starts another.
	if n := calls.Load(); n > k+2*workers {
		t.Errorf("%d Multiply calls, want at most %d: the tripwire's %d plus one gather per solver", n, k+2*workers, k)
	}

	// A pre-cancelled context aborts the online path before any expansion.
	_, err = engine.Rank(ctx, Request{Query: SingleNode(0), K: 10, Method: TwoSBound})
	if err != context.Canceled {
		t.Fatalf("online Rank error = %v, want context.Canceled", err)
	}
}

// TestRankBatchMatchesSingle verifies that the batch path (single-node score
// vectors combined by the Linearity Theorem) reproduces the one-shot exact
// path, and that online requests ride along unchanged.
func TestRankBatchMatchesSingle(t *testing.T) {
	toy := testgraphs.NewToy()
	engine, err := NewEngine(toy.Graph)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	filter := &Filter{Types: []NodeType{testgraphs.TypeVenue}}
	reqs := []Request{
		{Query: SingleNode(toy.T1), K: 3, Method: Exact, Filter: filter},
		{Query: MultiNode(toy.T1, toy.T2), K: 4, Method: Exact},
		{Query: SingleNode(toy.T1), K: 3, Method: Exact, Filter: filter, Beta: Float64(0.2)},
		{Query: SingleNode(toy.T2), K: 3, Method: TwoSBound, Epsilon: 0.001},
	}
	batch, err := engine.RankBatch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("RankBatch: %v", err)
	}
	if len(batch) != len(reqs) {
		t.Fatalf("RankBatch returned %d responses, want %d", len(batch), len(reqs))
	}
	for i, req := range reqs {
		single, err := engine.Rank(context.Background(), req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if len(single.Results) != len(batch[i].Results) {
			t.Fatalf("request %d: batch %d results, single %d", i, len(batch[i].Results), len(single.Results))
		}
		for j := range single.Results {
			if single.Results[j].Node != batch[i].Results[j].Node {
				t.Errorf("request %d rank %d: batch node %d != single node %d",
					i, j, batch[i].Results[j].Node, single.Results[j].Node)
			}
			if diff := single.Results[j].Score - batch[i].Results[j].Score; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("request %d rank %d: batch score %g != single score %g",
					i, j, batch[i].Results[j].Score, single.Results[j].Score)
			}
		}
	}

	// An invalid request anywhere in the batch fails the whole batch up-front.
	if _, err := engine.RankBatch(context.Background(), []Request{
		{Query: SingleNode(toy.T1), K: 3},
		{Query: SingleNode(toy.T1), K: 0},
	}); err == nil || !strings.Contains(err.Error(), "request 1") {
		t.Errorf("RankBatch with invalid request: error = %v, want request index", err)
	}
}

func TestPerRequestOverrides(t *testing.T) {
	toy := testgraphs.NewToy()
	engine, err := NewEngine(toy.Graph) // defaults: alpha 0.25, beta 0.5
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	// beta = 1 must reproduce an engine whose default bias is pure
	// specificity.
	specEngine, err := NewEngine(toy.Graph, WithBeta(1))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	req := Request{Query: SingleNode(toy.T1), K: 5, Method: Exact}
	want, err := specEngine.Rank(context.Background(), req)
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	req.Beta = Float64(1)
	got, err := engine.Rank(context.Background(), req)
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	for i := range want.Results {
		if want.Results[i] != got.Results[i] {
			t.Errorf("rank %d: override %+v != default-engine %+v", i, got.Results[i], want.Results[i])
		}
	}
	if engine.Beta() != 0.5 {
		t.Errorf("request override must not mutate engine defaults: beta = %g", engine.Beta())
	}
}

func TestMethodString(t *testing.T) {
	cases := map[string]Method{
		"auto":    Auto,
		"exact":   Exact,
		"2SBound": TwoSBound,
		"Gupta":   BoundScheme(SchemeGupta),
	}
	for want, m := range cases {
		if m.String() != want {
			t.Errorf("Method.String() = %q, want %q", m.String(), want)
		}
	}
	var zero Method
	if zero.String() != "auto" {
		t.Errorf("zero Method should be Auto, got %q", zero.String())
	}
}
