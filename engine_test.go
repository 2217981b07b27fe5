package roundtriprank

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"roundtriprank/internal/core"
	"roundtriprank/internal/datasets"
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
			var verr *ValidationError
			if !errors.As(err, &verr) || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want a ValidationError mentioning %q", err, tc.wantErr)
			}
		})
	}
}

// TestOptionValidation pins the range checks of a query's three numeric
// options — Request.Alpha, Beta and Tolerance — which, like every check of
// Engine.plan, must fail on NaN and ±Inf with a ValidationError: every ordered
// comparison lets NaN through, and a NaN β once turned every Exact score into
// NaN with Converged set. A zero α or tolerance asks for the default.
func TestOptionValidation(t *testing.T) {
	toy := testgraphs.NewToy()
	engine, err := NewEngine(toy.Graph)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name    string
		mutate  func(*Request)
		wantErr string
	}{
		{"alpha", func(r *Request) { r.Alpha = 0.3 }, ""},
		{"alpha zero", func(r *Request) { r.Alpha = 0 }, ""},
		{"alpha one", func(r *Request) { r.Alpha = 1 }, "alpha"},
		{"alpha NaN", func(r *Request) { r.Alpha = nan }, "alpha"},
		{"alpha +Inf", func(r *Request) { r.Alpha = inf }, "alpha"},
		{"alpha -Inf", func(r *Request) { r.Alpha = -inf }, "alpha"},
		{"beta zero", func(r *Request) { r.Beta = Float64(0) }, ""},
		{"beta one", func(r *Request) { r.Beta = Float64(1) }, ""},
		{"beta negative", func(r *Request) { r.Beta = Float64(-0.1) }, "beta"},
		{"beta above one", func(r *Request) { r.Beta = Float64(1.1) }, "beta"},
		{"beta NaN", func(r *Request) { r.Beta = Float64(nan) }, "beta"},
		{"beta +Inf", func(r *Request) { r.Beta = Float64(inf) }, "beta"},
		{"beta -Inf", func(r *Request) { r.Beta = Float64(-inf) }, "beta"},
		{"tolerance", func(r *Request) { r.Tolerance = 1e-10 }, ""},
		{"tolerance zero", func(r *Request) { r.Tolerance = 0 }, ""},
		{"tolerance negative", func(r *Request) { r.Tolerance = -1e-9 }, "tolerance"},
		{"tolerance NaN", func(r *Request) { r.Tolerance = nan }, "tolerance"},
		{"tolerance +Inf", func(r *Request) { r.Tolerance = inf }, "tolerance"},
		{"tolerance -Inf", func(r *Request) { r.Tolerance = -inf }, "tolerance"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := Request{Query: SingleNode(toy.T1), K: 3, Method: Exact}
			tc.mutate(&req)
			resp, err := engine.Rank(context.Background(), req)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				for _, r := range resp.Results {
					if math.IsNaN(r.Score) || math.IsInf(r.Score, 0) {
						t.Fatalf("non-finite score %g", r.Score)
					}
				}
				return
			}
			var verr *ValidationError
			if !errors.As(err, &verr) || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want a ValidationError mentioning %q", err, tc.wantErr)
			}
		})
	}
}

// TestAutoPlanning pins Auto's choice on a local view: a *Graph of at most
// DefaultExactLimit nodes plans Exact, a bare layout — flat arrays or packed
// rows, which carry no node types — the online search.
func TestAutoPlanning(t *testing.T) {
	toy := testgraphs.NewToy()
	req := Request{Query: SingleNode(toy.T1), K: 3}

	cases := []struct {
		name string
		view View
		want Method
	}{
		{"small in-memory graph plans exact", toy.Graph, Exact},
		{"non-Graph view plans online", graph.Compact(toy.Graph), TwoSBound},
		{"packed view plans online", graph.Pack(toy.Graph), TwoSBound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			engine, err := NewEngine(tc.view)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			resp, err := engine.Rank(context.Background(), req)
			if err != nil {
				t.Fatalf("Rank: %v", err)
			}
			if resp.Method != tc.want {
				t.Errorf("resolved method %s, want %s", resp.Method, tc.want)
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
// counts gathers per direction, and the k-th graph.In gather (the F-Rank side)
// cancels the context, recording both counts as they stood.
type cancellingGatherer struct {
	walk.Gatherer
	cancel          context.CancelFunc
	k               int64
	in, out         atomic.Int64
	inTrip, outTrip int64
}

func (c *cancellingGatherer) Gather(ctx context.Context, dir graph.Dir, x, dst []float64, rows []graph.NodeID) error {
	if dir == graph.Out {
		c.out.Add(1)
	} else if n := c.in.Add(1); n == c.k {
		c.inTrip, c.outTrip = n, c.out.Load()
		c.cancel()
	}
	return c.Gatherer.Gather(ctx, dir, x, dst, rows)
}

// cancellingTransport is one fleet worker with the same tripwire on the wire:
// the k-th Multiply across the fleet cancels the context.
type cancellingTransport struct {
	Transport
	cancel context.CancelFunc
	k      int64
	calls  *atomic.Int64
}

func (c *cancellingTransport) Multiply(ctx context.Context, dir graph.Dir, fp uint32, x []float64) ([]float64, error) {
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
	if _, _, _, _, err := core.Solve(lctx, trip, walk.SingleNode(0), wp); err != context.Canceled {
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

// TestRankBatchMixtureAtDeadEnds pins the Linearity Theorem where walks end:
// on a directed line every walk reaches the dangling last node, and RankBatch's
// mixture of single-node vectors must still score a multi-node query as one
// direct solve does, at every β.
func TestRankBatchMixtureAtDeadEnds(t *testing.T) {
	g := testgraphs.Line(7)
	engine, err := NewEngine(g)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	var reqs []Request
	for _, q := range []Query{MultiNode(0, 3), MultiNode(1, 4, 4), {Nodes: []NodeID{2, 6}, Weights: []float64{3, 1}}} {
		for _, beta := range []float64{0, 0.5, 1} {
			reqs = append(reqs, Request{Query: q, K: g.NumNodes(), Method: Exact, Beta: Float64(beta), Tolerance: 1e-13})
		}
	}
	batch, err := engine.RankBatch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("RankBatch: %v", err)
	}
	for i, req := range reqs {
		single, err := engine.Rank(context.Background(), req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if len(single.Results) != len(batch[i].Results) {
			t.Fatalf("request %d: batch %d results, single %d", i, len(batch[i].Results), len(single.Results))
		}
		// Nodes are compared by score, not position: 3 and 5 tie under the
		// third query.
		direct := map[NodeID]float64{}
		for _, r := range single.Results {
			direct[r.Node] = r.Score
		}
		for _, b := range batch[i].Results {
			if s, ok := direct[b.Node]; !ok || math.Abs(b.Score-s) > 1e-12 {
				t.Errorf("request %d (β %g) node %d: batch score %g, direct solve %g (ranked %v)", i, *req.Beta, b.Node, b.Score, s, ok)
			}
		}
	}
}

// TestPerRequestOverrides pins that a Request's α and β reach the solvers and
// stay with that request: β = 1 ranks by T-Rank alone, and a request that sets
// neither afterwards ranks at α = 0.25, β = 0.5, as core.Compute does.
func TestPerRequestOverrides(t *testing.T) {
	toy := testgraphs.NewToy()
	engine, err := NewEngine(toy.Graph)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ctx := context.Background()
	q := SingleNode(toy.T1)
	for _, tc := range []struct {
		req    Request
		params core.Params
	}{
		{Request{Query: q, K: 5, Method: Exact, Alpha: 0.4, Beta: Float64(1)}, core.Params{Walk: walk.Params{Alpha: 0.4}, Beta: 1}},
		{Request{Query: q, K: 5, Method: Exact}, core.DefaultParams()},
	} {
		got, err := engine.Rank(ctx, tc.req)
		if err != nil {
			t.Fatalf("Rank: %v", err)
		}
		want, err := core.Compute(ctx, toy.Graph, q, tc.params)
		if err != nil {
			t.Fatalf("core.Compute: %v", err)
		}
		for i, r := range core.TopN(want.R, 5, nil) {
			if got.Results[i] != (Result{Node: r.Node, Score: r.Score}) {
				t.Errorf("α %g β %g rank %d: engine %+v, core.Compute %+v", tc.params.Walk.Alpha, tc.params.Beta, i, got.Results[i], r)
			}
		}
	}
}

func TestMethodString(t *testing.T) {
	cases := map[string]Method{
		"auto":           Auto,
		"exact":          Exact,
		"distributed":    Distributed,
		"2SBound":        TwoSBound,
		"2SBound-remote": TwoSBoundRemote,
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

// TestParseMethodRejectsBaselineSchemes pins that the efficiency baselines of
// Sect. VI-B (G+S, Gupta, Sarkar) are not serving methods: their names are
// caller mistakes, and every serving method round-trips through its name.
func TestParseMethodRejectsBaselineSchemes(t *testing.T) {
	for _, name := range []string{"gs", "g+s", "G+S", "gupta", "sarkar"} {
		var ve *ValidationError
		if m, err := ParseMethod(name); !errors.As(err, &ve) {
			t.Errorf("ParseMethod(%q) = %v, %v; want a *ValidationError", name, m, err)
		}
	}
	for _, m := range []Method{Auto, Exact, Distributed, TwoSBound, TwoSBoundRemote} {
		if got, err := ParseMethod(m.String()); err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
}
