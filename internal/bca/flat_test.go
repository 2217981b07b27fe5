package bca

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/testgraphs"
	"roundtriprank/internal/walk"
)

// binding is one of the two kinds of graph.Rows a Flat attaches to: flat CSR
// arrays (Init forwards them to InitRows), or a per-query session — here the
// row-decoding session of the packed form of the same graph, the production
// Rows that is not flat. Tests that take a binding run under both.
type binding func(*Flat, *graph.Graph, walk.Query, float64) error

func bindCSR(s *Flat, g *graph.Graph, q walk.Query, alpha float64) error { return s.Init(g, q, alpha) }

func bindRows(s *Flat, g *graph.Graph, q walk.Query, alpha float64) error {
	return s.InitRows(graph.Pack(g).NewRows(), q, alpha)
}

func initValidation(t *testing.T, bind binding) {
	g := testgraphs.Cycle(4)
	var s Flat
	if err := bind(&s, g, walk.SingleNode(0), 0); err == nil {
		t.Errorf("alpha 0 should error")
	}
	for _, alpha := range []float64{1, -0.25, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := bind(&s, g, walk.SingleNode(0), alpha); err == nil {
			t.Errorf("alpha %g should error", alpha)
		}
	}
	for _, alpha := range []float64{math.SmallestNonzeroFloat64, math.Nextafter(1, 0)} {
		if err := bind(&s, g, walk.SingleNode(0), alpha); err != nil {
			t.Errorf("alpha %g is inside (0,1): %v", alpha, err)
		}
	}
	if err := bind(&s, g, walk.Query{}, 0.25); err == nil {
		t.Errorf("empty query should error")
	}
	if err := bind(&s, g, walk.SingleNode(99), 0.25); err == nil {
		t.Errorf("out-of-range query node should error")
	}
	// A failed Init must not poison a later successful one.
	if err := bind(&s, g, walk.SingleNode(2), 0.25); err != nil {
		t.Fatalf("Init after failures: %v", err)
	}
	if got := s.TotalResidual(); math.Abs(got-1) > 1e-12 {
		t.Errorf("initial total residual = %g, want 1", got)
	}
}

func TestFlatInitValidation(t *testing.T) { initValidation(t, bindCSR) }
func TestNewValidation(t *testing.T)      { initValidation(t, bindRows) }

func TestInitialState(t *testing.T) {
	g := testgraphs.Cycle(4)
	var s Flat
	if err := s.Init(g, walk.SingleNode(2), 0.25); err != nil {
		t.Fatalf("Init: %v", err)
	}
	if s.alpha != 0.25 {
		t.Errorf("Alpha = %g", s.alpha)
	}
	if got := s.TotalResidual(); math.Abs(got-1) > 1e-12 {
		t.Errorf("initial total residual = %g, want 1", got)
	}
	if got := s.Residual(2); math.Abs(got-1) > 1e-12 {
		t.Errorf("initial residual at query = %g, want 1", got)
	}
	if s.MaxResidual() != s.Residual(2) {
		t.Errorf("MaxResidual should equal the query residual initially")
	}
	if s.SeenCount() != 0 {
		t.Errorf("no node should be seen before processing")
	}
	if s.Rho(2) != 0 {
		t.Errorf("rho should start at zero")
	}
}

func TestProcessSpreadsResidual(t *testing.T) {
	toy := testgraphs.NewToy()
	for _, bind := range []binding{bindCSR, bindRows} {
		var s Flat
		if err := bind(&s, toy.Graph, walk.SingleNode(toy.T1), 0.25); err != nil {
			t.Fatalf("Init: %v", err)
		}
		s.Process(toy.T1)
		if got := s.Rho(toy.T1); math.Abs(got-0.25) > 1e-12 {
			t.Errorf("rho(q) after one process = %g, want 0.25", got)
		}
		// t1 has 5 neighbors (p1..p5), each receives 0.75/5 = 0.15 residual.
		for i := 0; i < 5; i++ {
			if got := s.Residual(toy.P[i]); math.Abs(got-0.15) > 1e-12 {
				t.Errorf("residual at p%d = %g, want 0.15", i+1, got)
			}
		}
		if got := s.TotalResidual(); math.Abs(got-0.75) > 1e-12 {
			t.Errorf("total residual = %g, want 0.75", got)
		}
		if s.SeenCount() != 1 {
			t.Errorf("SeenCount = %d, want 1", s.SeenCount())
		}
		if err := s.CheckInvariant(); err != nil {
			t.Errorf("invariant: %v", err)
		}
		// Processing a node without residual is a no-op.
		before := s.Processed()
		s.Process(toy.V1)
		if s.Processed() != before {
			t.Errorf("processing a zero-residual node should be a no-op")
		}
	}
}

func runConvergesToExactPPR(t *testing.T, bind binding) {
	toy := testgraphs.NewToy()
	alpha := 0.25
	q := walk.SingleNode(toy.T1)
	exact, err := walk.FRank(context.Background(), toy.Graph, q, walk.Params{Alpha: alpha, Tol: 1e-12, MaxIter: 1000})
	if err != nil {
		t.Fatalf("FRank: %v", err)
	}
	var s Flat
	if err := bind(&s, toy.Graph, q, alpha); err != nil {
		t.Fatalf("Init: %v", err)
	}
	s.Run(context.Background(), 1e-10, 0)
	if s.TotalResidual() > 1e-10 {
		t.Fatalf("Run did not reach tolerance: residual %g", s.TotalResidual())
	}
	est := s.Estimates(toy.Graph.NumNodes())
	for v := range est {
		if math.Abs(est[v]-exact[v]) > 1e-8 {
			t.Errorf("node %d: BCA %g vs exact %g", v, est[v], exact[v])
		}
	}
	if err := s.CheckInvariant(); err != nil {
		t.Errorf("invariant after Run: %v", err)
	}
}

func TestFlatRunConvergesToExactPPR(t *testing.T) { runConvergesToExactPPR(t, bindCSR) }
func TestRunConvergesToExactPPR(t *testing.T)     { runConvergesToExactPPR(t, bindRows) }

func TestRhoIsAlwaysLowerBound(t *testing.T) {
	toy := testgraphs.NewToy()
	alpha := 0.25
	q := walk.SingleNode(toy.T1)
	exact, _ := walk.FRank(context.Background(), toy.Graph, q, walk.Params{Alpha: alpha, Tol: 1e-12, MaxIter: 1000})
	var s Flat
	if err := s.Init(toy.Graph, q, alpha); err != nil {
		t.Fatalf("Init: %v", err)
	}
	for step := 0; step < 200; step++ {
		if s.ProcessBest(1) == 0 {
			break
		}
		s.EachSeen(func(v graph.NodeID, rho float64) {
			if rho > exact[v]+1e-9 {
				t.Fatalf("rho(%d) exceeded exact PPR at step %d", v, step)
			}
		})
	}
}

func TestProcessBestStopsWhenExhausted(t *testing.T) {
	// On the line 0→1→2 every walk ends at the dangling node 2 at the latest:
	// three processing steps drain the residual, the last one dropping the
	// (1−α) share of node 2's, and nothing is left to process.
	g := testgraphs.Line(3)
	for _, bind := range []binding{bindCSR, bindRows} {
		var s Flat
		if err := bind(&s, g, walk.SingleNode(0), 0.5); err != nil {
			t.Fatalf("Init: %v", err)
		}
		s.Run(context.Background(), 1e-12, 100000)
		if s.TotalResidual() != 0 || s.Processed() != 3 {
			t.Fatalf("residual %g after %d steps, want 0 after 3", s.TotalResidual(), s.Processed())
		}
		if n := s.ProcessBest(5); n != 0 || s.LiveResidualCount() != 0 {
			t.Errorf("ProcessBest on a drained engine processed %d, %d residuals live", n, s.LiveResidualCount())
		}
		// The estimates are the walks that end: 1/2, 1/4, 1/8 — and the
		// iterative solver, under the same walk model, agrees.
		est := s.Estimates(g.NumNodes())
		exact, _ := walk.FRank(context.Background(), g, walk.SingleNode(0), walk.Params{Alpha: 0.5, Tol: 1e-13, MaxIter: 2000})
		for v, want := range []float64{0.5, 0.25, 0.125} {
			if est[v] != want || math.Abs(exact[v]-want) > 1e-12 {
				t.Errorf("node %d: BCA %g, iterative %g, want %g", v, est[v], exact[v], want)
			}
		}
		if err := s.CheckInvariant(); err != nil {
			t.Errorf("invariant: %v", err)
		}
	}
}

func TestMultiNodeQuery(t *testing.T) {
	toy := testgraphs.NewToy()
	q := walk.MultiNode(toy.T1, toy.T2)
	var s Flat
	if err := s.Init(toy.Graph, q, 0.25); err != nil {
		t.Fatalf("Init: %v", err)
	}
	if math.Abs(s.Residual(toy.T1)-0.5) > 1e-12 || math.Abs(s.Residual(toy.T2)-0.5) > 1e-12 {
		t.Fatalf("initial residual should split evenly across query nodes")
	}
	s.Run(context.Background(), 1e-10, 0)
	exact, _ := walk.FRank(context.Background(), toy.Graph, q, walk.Params{Alpha: 0.25, Tol: 1e-12, MaxIter: 1000})
	est := s.Estimates(toy.Graph.NumNodes())
	for v := range est {
		if math.Abs(est[v]-exact[v]) > 1e-8 {
			t.Errorf("node %d: %g vs %g", v, est[v], exact[v])
		}
	}
}

func TestEachResidualAndSeen(t *testing.T) {
	toy := testgraphs.NewToy()
	var s Flat
	if err := s.Init(toy.Graph, walk.SingleNode(toy.T1), 0.25); err != nil {
		t.Fatalf("Init: %v", err)
	}
	s.ProcessBest(3)
	seen := 0
	s.EachSeen(func(graph.NodeID, float64) { seen++ })
	if seen != s.SeenCount() {
		t.Errorf("EachSeen visited %d, SeenCount %d", seen, s.SeenCount())
	}
	resTotal := 0.0
	s.EachResidual(func(_ graph.NodeID, mu float64) { resTotal += mu })
	if math.Abs(resTotal-s.TotalResidual()) > 1e-9 {
		t.Errorf("EachResidual total %g vs TotalResidual %g", resTotal, s.TotalResidual())
	}
}

// TestFlatHeapNeverExceedsTouched pins the decrease-key property: the benefit
// heap holds exactly the live-residual nodes (no stale entries), so its size
// can never exceed the number of touched nodes.
func TestFlatHeapNeverExceedsTouched(t *testing.T) {
	toy := testgraphs.NewToy()
	var s Flat
	if err := s.Init(toy.Graph, walk.SingleNode(toy.T1), 0.25); err != nil {
		t.Fatalf("Init: %v", err)
	}
	for step := 0; step < 500; step++ {
		touched := s.idx.Len() // every member was given residual: no tracker adds to it
		if len(s.mu) != touched {
			t.Fatalf("step %d: %d residuals for %d touched nodes", step, len(s.mu), touched)
		}
		if s.LiveResidualCount() > touched {
			t.Fatalf("step %d: heap size %d exceeds %d touched nodes", step, s.LiveResidualCount(), touched)
		}
		live := 0
		s.EachResidual(func(graph.NodeID, float64) { live++ })
		if s.LiveResidualCount() != live {
			t.Fatalf("step %d: heap size %d, want exactly %d live residuals", step, s.LiveResidualCount(), live)
		}
		if s.ProcessBest(1) == 0 {
			break
		}
	}
	if s.Processed() == 0 {
		t.Fatalf("no processing happened")
	}
}

// TestFlatMaxResidualIncremental checks MaxResidual against the positive
// residuals EachResidual reports, throughout a run.
func TestFlatMaxResidualIncremental(t *testing.T) {
	toy := testgraphs.NewToy()
	var s Flat
	if err := s.Init(toy.Graph, walk.MultiNode(toy.T1, toy.T2), 0.3); err != nil {
		t.Fatalf("Init: %v", err)
	}
	for step := 0; step < 300; step++ {
		scan := 0.0
		s.EachResidual(func(_ graph.NodeID, mu float64) {
			if mu > scan {
				scan = mu
			}
		})
		if got := s.MaxResidual(); got != scan {
			t.Fatalf("step %d: MaxResidual %g, scan %g", step, got, scan)
		}
		if s.ProcessBest(1) == 0 {
			break
		}
	}
}

// TestFlatReuseAcrossGraphs re-Inits one Flat across graphs of different
// sizes (the pool-resize situation after an engine epoch swap) and checks
// each run matches a fresh instance exactly.
func TestFlatReuseAcrossGraphs(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
		q    graph.NodeID
	}{
		{"toy", testgraphs.NewToy().Graph, testgraphs.NewToy().T1},
		{"line", testgraphs.Line(6), 0},
		{"cycle", testgraphs.Cycle(40), 7},
		{"star", testgraphs.Star(5), 0},
	}
	var reused Flat
	for round := 0; round < 2; round++ { // grow and shrink both ways
		for _, tc := range graphs {
			if err := reused.Init(tc.g, walk.SingleNode(tc.q), 0.25); err != nil {
				t.Fatalf("%s: reused Init: %v", tc.name, err)
			}
			var fresh Flat
			if err := fresh.Init(tc.g, walk.SingleNode(tc.q), 0.25); err != nil {
				t.Fatalf("%s: fresh Init: %v", tc.name, err)
			}
			reused.Run(context.Background(), 1e-9, 0)
			fresh.Run(context.Background(), 1e-9, 0)
			re := reused.Estimates(tc.g.NumNodes())
			fr := fresh.Estimates(tc.g.NumNodes())
			for v := range fr {
				if re[v] != fr[v] {
					t.Fatalf("%s: node %d reused %g != fresh %g", tc.name, v, re[v], fr[v])
				}
			}
			if err := reused.CheckInvariant(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
	}
}

// Property: at any point during BCA, every rho is a lower bound of exact PPR,
// residuals are non-negative, total residual decreases monotonically, and the
// invariant check passes; and once Border is zero, every node that scores is
// in Sf (some draw must get there).
func quickInvariants(t *testing.T, bind binding) {
	closed := 0
	f := func(seed int64, stepsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		b := graph.NewBuilder()
		ids := make([]graph.NodeID, n)
		for i := 0; i < n; i++ {
			ids[i] = b.AddNode(graph.Untyped, "n"+string(rune('A'+i)))
		}
		m := n + rng.Intn(3*n)
		for i := 0; i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				v = (u + 1) % n
			}
			b.MustAddEdge(ids[u], ids[v], 0.5+rng.Float64())
		}
		g := b.MustBuild()
		alpha := 0.15 + 0.6*rng.Float64()
		q := ids[rng.Intn(n)]
		exact, err := walk.FRank(context.Background(), g, walk.SingleNode(q), walk.Params{Alpha: alpha, Tol: 1e-12, MaxIter: 1000})
		if err != nil {
			return false
		}
		var s Flat
		if err := bind(&s, g, walk.SingleNode(q), alpha); err != nil {
			return false
		}
		prevResidual := s.TotalResidual()
		steps := 1 + int(stepsRaw%60)
		for i := 0; i < steps; i++ {
			if s.ProcessBest(1) == 0 {
				break
			}
			if s.TotalResidual() > prevResidual+1e-9 {
				return false
			}
			prevResidual = s.TotalResidual()
			if s.CheckInvariant() != nil {
				return false
			}
		}
		ok := true
		seen := make([]bool, n)
		s.EachSeen(func(v graph.NodeID, rho float64) {
			seen[v] = true
			if rho > exact[v]+1e-8 {
				ok = false
			}
		})
		if s.Border() == 0 {
			closed++
			for v, e := range exact {
				if e > 0 && !seen[v] {
					t.Logf("border 0, but node %d outside Sf scores %g", v, e)
					ok = false
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
	if closed == 0 {
		t.Error("no draw closed Sf: the border property went unchecked")
	}
}

func TestQuickFlatInvariants(t *testing.T) { quickInvariants(t, bindCSR) }
func TestQuickBCAInvariants(t *testing.T)  { quickInvariants(t, bindRows) }
