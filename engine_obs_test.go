package roundtriprank

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"roundtriprank/internal/testgraphs"
)

// TestValidationErrorClassification pins which engine failures surface as
// *ValidationError (caller faults an HTTP layer should map to 400) and which
// do not. The serve package's status mapping relies on this split.
func TestValidationErrorClassification(t *testing.T) {
	toy := testgraphs.NewToy()
	engine, err := NewEngine(toy.Graph)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ctx := context.Background()

	bad := []struct {
		name string
		req  Request
	}{
		{"zero K", Request{Query: SingleNode(toy.T1), K: 0}},
		{"node out of range", Request{Query: SingleNode(NodeID(1 << 30)), K: 5}},
		{"alpha out of range", Request{Query: SingleNode(toy.T1), K: 5, Alpha: 1.5}},
		{"negative epsilon", Request{Query: SingleNode(toy.T1), K: 5, Epsilon: -0.1}},
		{"beta out of range", Request{Query: SingleNode(toy.T1), K: 5, Beta: Float64(2)}},
		{"distributed without workers", Request{Query: SingleNode(toy.T1), K: 5, Method: Distributed}},
		{"empty query", Request{Query: Query{}, K: 5}},
	}
	for _, c := range bad {
		_, err := engine.Rank(ctx, c.req)
		var ve *ValidationError
		if !errors.As(err, &ve) {
			t.Errorf("%s: Rank error = %v (%T), want *ValidationError", c.name, err, err)
		}
	}

	if _, err := ParseMethod("no-such-method"); err != nil {
		var ve *ValidationError
		if !errors.As(err, &ve) {
			t.Errorf("ParseMethod error = %v (%T), want *ValidationError", err, err)
		}
	} else {
		t.Error("ParseMethod accepted an unknown method")
	}

	// A cancelled context is not the caller's request being malformed.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	_, err = engine.Rank(cancelled, Request{Query: SingleNode(toy.T1), K: 5, Method: Exact})
	var ve *ValidationError
	if errors.As(err, &ve) {
		t.Errorf("cancelled Rank classified as ValidationError: %v", err)
	}

	// Apply with a stale delta is a caller fault too.
	g := engine.View().(*Graph)
	d := NewDelta(g)
	if err := d.SetEdge(toy.T1, toy.T2, 1); err != nil {
		t.Fatalf("SetEdge: %v", err)
	}
	if _, err := engine.Apply(ctx, d); err != nil {
		t.Fatalf("first Apply: %v", err)
	}
	if _, err := engine.Apply(ctx, d); !errors.As(err, &ve) {
		t.Errorf("stale-delta Apply error = %v (%T), want *ValidationError", err, err)
	}
}

// TestNonFiniteRequestFieldsAreRejected pins the plan's range checks against
// NaN and ±Inf, which every ordered comparison lets through: such a request
// used to be answered with NaN scores marked Converged (exact) or searched to
// a non-converged result (NaN epsilon). Each must now fail as a
// *ValidationError on the exact path, the online path and in a batch.
func TestNonFiniteRequestFieldsAreRejected(t *testing.T) {
	toy := testgraphs.NewToy()
	engine, err := NewEngine(toy.Graph)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ctx := context.Background()
	nan, inf := math.NaN(), math.Inf(1)
	weighted := func(w float64) Query {
		return Query{Nodes: []NodeID{toy.T1, toy.T2}, Weights: []float64{1, w}}
	}
	cases := []struct {
		name   string
		mutate func(*Request)
	}{
		{"NaN query weight", func(r *Request) { r.Query = weighted(nan) }},
		{"+Inf query weight", func(r *Request) { r.Query = weighted(inf) }},
		{"-Inf query weight", func(r *Request) { r.Query = weighted(-inf) }},
		{"NaN alpha", func(r *Request) { r.Alpha = nan }},
		{"+Inf alpha", func(r *Request) { r.Alpha = inf }},
		{"NaN beta", func(r *Request) { r.Beta = Float64(nan) }},
		{"+Inf beta", func(r *Request) { r.Beta = Float64(inf) }},
		{"NaN epsilon", func(r *Request) { r.Epsilon = nan }},
		{"+Inf epsilon", func(r *Request) { r.Epsilon = inf }},
		{"NaN tolerance", func(r *Request) { r.Tolerance = nan }},
		{"+Inf tolerance", func(r *Request) { r.Tolerance = inf }},
	}
	for _, c := range cases {
		for _, method := range []Method{Exact, TwoSBound} {
			req := Request{Query: SingleNode(toy.T1), K: 3, Method: method}
			c.mutate(&req)
			var ve *ValidationError
			if resp, err := engine.Rank(ctx, req); !errors.As(err, &ve) {
				t.Errorf("%s/%s: Rank = (%+v, %v), want *ValidationError", c.name, method, resp, err)
			}
			if resps, err := engine.RankBatch(ctx, []Request{req}); !errors.As(err, &ve) {
				t.Errorf("%s/%s: RankBatch = (%+v, %v), want *ValidationError", c.name, method, resps, err)
			}
		}
	}
}

// TestQueryStatsHook checks the WithQueryStatsHook callback fires once per
// executed query with the resolved method, a positive duration, and the
// query's error (nil on success).
func TestQueryStatsHook(t *testing.T) {
	toy := testgraphs.NewToy()
	var stats []QueryStat
	engine, err := NewEngine(toy.Graph, WithQueryStatsHook(func(s QueryStat) {
		stats = append(stats, s)
	}))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ctx := context.Background()

	if _, err := engine.Rank(ctx, Request{Query: SingleNode(toy.T1), K: 3, Method: Exact}); err != nil {
		t.Fatalf("Rank: %v", err)
	}
	if len(stats) != 1 {
		t.Fatalf("hook fired %d times, want 1", len(stats))
	}
	if stats[0].Method != Exact {
		t.Errorf("hook method = %v, want %v", stats[0].Method, Exact)
	}
	if stats[0].Elapsed <= 0 || stats[0].Elapsed > time.Minute {
		t.Errorf("hook elapsed = %v, want positive and sane", stats[0].Elapsed)
	}
	if stats[0].Err != nil {
		t.Errorf("hook err = %v, want nil", stats[0].Err)
	}
	if r := stats[0].Response; r == nil || r.Rounds != 0 || r.Sweeps != 0 {
		t.Errorf("exact query reported response %+v, want one with no rounds and no Stage-II sweeps", r)
	}

	// An online query hands the hook the response the caller receives.
	online, err := engine.Rank(ctx, Request{Query: SingleNode(toy.T1), K: 3, Method: TwoSBound})
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	if online.Rounds <= 0 || online.Sweeps < online.Rounds {
		t.Errorf("online response reports %d rounds and %d Stage-II sweeps, want at least one sweep a round", online.Rounds, online.Sweeps)
	}
	if stats[1].Response != online {
		t.Errorf("hook saw response %p, the caller %p", stats[1].Response, online)
	}
	stats = stats[:1]

	// Validation failures never reach execution, so the hook must not fire.
	if _, err := engine.Rank(ctx, Request{Query: SingleNode(toy.T1), K: 0}); err == nil {
		t.Fatal("zero-K Rank succeeded")
	}
	if len(stats) != 1 {
		t.Fatalf("hook fired on a rejected plan (%d records)", len(stats))
	}

	// A cancelled execution reports its error through the hook.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	_, rankErr := engine.Rank(cancelled, Request{Query: SingleNode(toy.T2), K: 3, Method: Exact})
	if rankErr == nil {
		t.Fatal("Rank with cancelled context succeeded")
	}
	if len(stats) != 2 {
		t.Fatalf("hook fired %d times after cancelled query, want 2", len(stats))
	}
	if !errors.Is(stats[1].Err, context.Canceled) || stats[1].Response != nil {
		t.Errorf("hook saw err %v and response %v, want context.Canceled and none", stats[1].Err, stats[1].Response)
	}

	if _, err := NewEngine(toy.Graph, WithQueryStatsHook(nil)); err == nil {
		t.Error("NewEngine accepted a nil stats hook")
	}
}
