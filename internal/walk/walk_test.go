package walk

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/testgraphs"
)

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// denseTransition builds the dense one-step transition matrix of a small view.
func denseTransition(v graph.View) [][]float64 {
	rows := v.NewRows()
	n := rows.NumNodes()
	m := make([][]float64, n)
	for i := 0; i < n; i++ {
		m[i] = make([]float64, n)
		s := rows.OutSum(graph.NodeID(i))
		if s <= 0 {
			continue
		}
		cols, ws := rows.OutRow(graph.NodeID(i))
		for j, to := range cols {
			m[i][to] += ws[j] / s
		}
	}
	return m
}

// denseGeometricReach computes sum_l alpha (1-alpha)^l (M^l)[src][dst] for all
// dst, truncated at enough terms for 1e-10 accuracy.
func denseGeometricReach(m [][]float64, src int, alpha float64) []float64 {
	n := len(m)
	cur := make([]float64, n)
	cur[src] = 1
	out := make([]float64, n)
	weight := alpha
	for l := 0; l < 400; l++ {
		for i := range out {
			out[i] += weight * cur[i]
		}
		next := make([]float64, n)
		for i := 0; i < n; i++ {
			if cur[i] == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				if m[i][j] > 0 {
					next[j] += cur[i] * m[i][j]
				}
			}
		}
		cur = next
		weight *= 1 - alpha
		if weight < 1e-14 {
			break
		}
	}
	return out
}

func TestFRankMatchesDenseEnumeration(t *testing.T) {
	toy := testgraphs.NewToy()
	p := Params{Alpha: 0.25, Tol: 1e-12, MaxIter: 500}
	f, err := FRank(context.Background(), toy.Graph, SingleNode(toy.T1), p)
	if err != nil {
		t.Fatalf("FRank: %v", err)
	}
	m := denseTransition(toy.Graph)
	want := denseGeometricReach(m, int(toy.T1), 0.25)
	for v := range want {
		if math.Abs(f[v]-want[v]) > 1e-8 {
			t.Errorf("f(t1,%d) = %.10f, dense = %.10f", v, f[v], want[v])
		}
	}
	if math.Abs(sum(f)-1) > 1e-8 {
		t.Errorf("FRank should sum to 1, got %g", sum(f))
	}
}

func TestTRankMatchesDenseEnumeration(t *testing.T) {
	toy := testgraphs.NewToy()
	p := Params{Alpha: 0.25, Tol: 1e-12, MaxIter: 500}
	tr, err := TRank(context.Background(), toy.Graph, SingleNode(toy.T1), p)
	if err != nil {
		t.Fatalf("TRank: %v", err)
	}
	m := denseTransition(toy.Graph)
	for v := 0; v < toy.Graph.NumNodes(); v++ {
		want := denseGeometricReach(m, v, 0.25)[toy.T1]
		if math.Abs(tr[v]-want) > 1e-8 {
			t.Errorf("t(t1,%d) = %.10f, dense = %.10f", v, tr[v], want)
		}
	}
}

func TestFRankCycleClosedForm(t *testing.T) {
	n := 6
	alpha := 0.3
	g := testgraphs.Cycle(n)
	f, err := FRank(context.Background(), g, SingleNode(0), Params{Alpha: alpha, Tol: 1e-13, MaxIter: 1000})
	if err != nil {
		t.Fatalf("FRank: %v", err)
	}
	// On a directed cycle, f(0, d) = alpha (1-alpha)^d / (1 - (1-alpha)^n).
	denom := 1 - math.Pow(1-alpha, float64(n))
	for d := 0; d < n; d++ {
		want := alpha * math.Pow(1-alpha, float64(d)) / denom
		if math.Abs(f[d]-want) > 1e-9 {
			t.Errorf("f(0,%d) = %.10f, want %.10f", d, f[d], want)
		}
	}
}

func TestTRankCycleClosedForm(t *testing.T) {
	n := 5
	alpha := 0.25
	g := testgraphs.Cycle(n)
	tr, err := TRank(context.Background(), g, SingleNode(0), Params{Alpha: alpha, Tol: 1e-13, MaxIter: 1000})
	if err != nil {
		t.Fatalf("TRank: %v", err)
	}
	// Reaching node 0 from node v requires (n - v) mod n steps at a time the
	// geometric clock stops: t(0,v) = alpha (1-alpha)^dist / (1-(1-alpha)^n).
	denom := 1 - math.Pow(1-alpha, float64(n))
	for v := 0; v < n; v++ {
		dist := (n - v) % n
		want := alpha * math.Pow(1-alpha, float64(dist)) / denom
		if math.Abs(tr[v]-want) > 1e-9 {
			t.Errorf("t(0,%d) = %.10f, want %.10f", v, tr[v], want)
		}
	}
}

func TestToyGraphImportanceSpecificityOrdering(t *testing.T) {
	// The paper's qualitative claims on Fig. 2: v1, v2 are more important than
	// v3 (easier to reach from t1); v2, v3 are more specific than v1 (easier
	// to return to t1 from them).
	toy := testgraphs.NewToy()
	p := DefaultParams()
	f, err := FRank(context.Background(), toy.Graph, SingleNode(toy.T1), p)
	if err != nil {
		t.Fatalf("FRank: %v", err)
	}
	tr, err := TRank(context.Background(), toy.Graph, SingleNode(toy.T1), p)
	if err != nil {
		t.Fatalf("TRank: %v", err)
	}
	if !(f[toy.V1] > f[toy.V3]) || !(f[toy.V2] > f[toy.V3]) {
		t.Errorf("importance ordering violated: f(v1)=%g f(v2)=%g f(v3)=%g", f[toy.V1], f[toy.V2], f[toy.V3])
	}
	if !(tr[toy.V2] > tr[toy.V1]) || !(tr[toy.V3] > tr[toy.V1]) {
		t.Errorf("specificity ordering violated: t(v1)=%g t(v2)=%g t(v3)=%g", tr[toy.V1], tr[toy.V2], tr[toy.V3])
	}
}

// TestFRankDanglingWalksEnd pins the walk model at a dead end: on the line
// 0→1→2→3 a walk from 0 ends at v after exactly v steps, f(0, v) = α(1−α)^v,
// and the walks still going at node 3, mass (1−α)^4, end without a
// destination — the restart iteration fRank runs must be scaled to that.
func TestFRankDanglingWalksEnd(t *testing.T) {
	const alpha = 0.2
	g := testgraphs.Line(4)
	f, err := FRank(context.Background(), g, SingleNode(0), Params{Alpha: alpha, Tol: 1e-12, MaxIter: 500})
	if err != nil {
		t.Fatalf("FRank: %v", err)
	}
	for v, x := range f {
		if want := alpha * math.Pow(1-alpha, float64(v)); math.Abs(x-want) > 1e-12 {
			t.Errorf("f(0,%d) = %.15f, want %.15f", v, x, want)
		}
	}
	if want := 1 - math.Pow(1-alpha, 4); math.Abs(sum(f)-want) > 1e-12 {
		t.Errorf("FRank sums to %g, want 1 − (1−α)^4 = %g", sum(f), want)
	}
}

func TestTRankOnLineDirectionality(t *testing.T) {
	// On a directed line 0->1->2->3 with query 3, every node can reach the
	// query so t > 0 everywhere, but with query 0 only node 0 has t > 0.
	g := testgraphs.Line(4)
	p := DefaultParams()
	tEnd, err := TRank(context.Background(), g, SingleNode(3), p)
	if err != nil {
		t.Fatalf("TRank: %v", err)
	}
	for v := 0; v < 4; v++ {
		if tEnd[v] <= 0 {
			t.Errorf("t(3,%d) should be positive, got %g", v, tEnd[v])
		}
	}
	tStart, err := TRank(context.Background(), g, SingleNode(0), p)
	if err != nil {
		t.Fatalf("TRank: %v", err)
	}
	for v := 1; v < 4; v++ {
		if tStart[v] != 0 {
			t.Errorf("t(0,%d) should be zero on a forward line, got %g", v, tStart[v])
		}
	}
	if tStart[0] <= 0 {
		t.Errorf("t(0,0) should be positive")
	}
}

func TestMultiNodeQueryLinearity(t *testing.T) {
	toy := testgraphs.NewToy()
	p := Params{Alpha: 0.25, Tol: 1e-12, MaxIter: 500}
	q := MultiNode(toy.T1, toy.T2)
	f, err := FRank(context.Background(), toy.Graph, q, p)
	if err != nil {
		t.Fatalf("FRank multi: %v", err)
	}
	f1, _ := FRank(context.Background(), toy.Graph, SingleNode(toy.T1), p)
	f2, _ := FRank(context.Background(), toy.Graph, SingleNode(toy.T2), p)
	for v := range f {
		want := 0.5*f1[v] + 0.5*f2[v]
		if math.Abs(f[v]-want) > 1e-8 {
			t.Errorf("linearity violated at %d: %g vs %g", v, f[v], want)
		}
	}
	tr, err := TRank(context.Background(), toy.Graph, q, p)
	if err != nil {
		t.Fatalf("TRank multi: %v", err)
	}
	t1, _ := TRank(context.Background(), toy.Graph, SingleNode(toy.T1), p)
	t2, _ := TRank(context.Background(), toy.Graph, SingleNode(toy.T2), p)
	for v := range tr {
		want := 0.5*t1[v] + 0.5*t2[v]
		if math.Abs(tr[v]-want) > 1e-8 {
			t.Errorf("T-Rank linearity violated at %d: %g vs %g", v, tr[v], want)
		}
	}
}

// TestFRankMonteCarloAgreement samples geometric walks on the toy graph and on
// a line whose last node is dangling, where a walk that reaches it and is due
// to step on ends without a destination.
func TestFRankMonteCarloAgreement(t *testing.T) {
	toy := testgraphs.NewToy()
	alpha := 0.25
	for name, tc := range map[string]struct {
		g *graph.Graph
		q graph.NodeID
	}{"toy": {toy.Graph, toy.T1}, "line": {testgraphs.Line(4), 0}} {
		f, err := FRank(context.Background(), tc.g, SingleNode(tc.q), Params{Alpha: alpha})
		if err != nil {
			t.Fatalf("%s: FRank: %v", name, err)
		}
		rng := rand.New(rand.NewSource(42))
		s := NewSampler(tc.g, rng)
		const samples = 200000
		counts := make([]float64, tc.g.NumNodes())
		for i := 0; i < samples; i++ {
			if end, ok := s.GeometricWalk(tc.q, alpha); ok {
				counts[end]++
			}
		}
		for v := range counts {
			emp := counts[v] / samples
			if math.Abs(emp-f[v]) > 0.01 {
				t.Errorf("%s: Monte-Carlo disagreement at node %d: empirical %.4f vs exact %.4f", name, v, emp, f[v])
			}
		}
	}
}

func TestGlobalPageRank(t *testing.T) {
	g := testgraphs.Cycle(8)
	pr, err := GlobalPageRank(context.Background(), g, 0.15, 1e-12, 500)
	if err != nil {
		t.Fatalf("GlobalPageRank: %v", err)
	}
	if math.Abs(sum(pr)-1) > 1e-9 {
		t.Errorf("PageRank should sum to 1, got %g", sum(pr))
	}
	for v := range pr {
		if math.Abs(pr[v]-1.0/8) > 1e-9 {
			t.Errorf("cycle PageRank should be uniform, node %d = %g", v, pr[v])
		}
	}
	star := testgraphs.Star(10)
	prs, err := GlobalPageRank(context.Background(), star, 0.15, 1e-12, 500)
	if err != nil {
		t.Fatalf("GlobalPageRank star: %v", err)
	}
	if prs[0] <= prs[1] {
		t.Errorf("hub should outrank leaves: hub=%g leaf=%g", prs[0], prs[1])
	}
}

func TestGlobalPageRankErrors(t *testing.T) {
	g := testgraphs.Cycle(3)
	if _, err := GlobalPageRank(context.Background(), g, 0, 1e-9, 10); err == nil {
		t.Errorf("damping 0 should error")
	}
	if _, err := GlobalPageRank(context.Background(), g, 1.2, 1e-9, 10); err == nil {
		t.Errorf("damping > 1 should error")
	}
	empty := graph.NewBuilder().MustBuild()
	if _, err := GlobalPageRank(context.Background(), empty, 0.15, 1e-9, 10); err == nil {
		t.Errorf("empty graph should error")
	}
	for _, tol := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := GlobalPageRank(context.Background(), g, 0.15, tol, 10); err == nil {
			t.Errorf("tolerance %g should error", tol)
		}
	}
}

func TestParamsValidation(t *testing.T) {
	g := testgraphs.Cycle(3)
	if _, err := FRank(context.Background(), g, SingleNode(0), Params{Alpha: 0}); err == nil {
		t.Errorf("alpha 0 should error")
	}
	if _, err := TRank(context.Background(), g, SingleNode(0), Params{Alpha: 1}); err == nil {
		t.Errorf("alpha 1 should error")
	}
	if _, err := FRank(context.Background(), g, Query{}, DefaultParams()); err == nil {
		t.Errorf("empty query should error")
	}
	if _, err := FRank(context.Background(), g, Query{Nodes: []graph.NodeID{0}, Weights: []float64{-1}}, DefaultParams()); err == nil {
		t.Errorf("negative query weight should error")
	}
	if _, err := FRank(context.Background(), g, Query{Nodes: []graph.NodeID{0}, Weights: []float64{0}}, DefaultParams()); err == nil {
		t.Errorf("zero-total query should error")
	}
	if _, err := FRank(context.Background(), g, SingleNode(99), DefaultParams()); err == nil {
		t.Errorf("out-of-range query node should error")
	}
	if _, err := TRank(context.Background(), g, SingleNode(99), DefaultParams()); err == nil {
		t.Errorf("out-of-range query node should error for TRank")
	}
}

// TestNonFiniteInputsAreRejected pins the solver doors against NaN and ±Inf,
// which every ordered comparison lets through and every solve turns into an
// all-NaN vector: query weights through Normalize, NormalizeInto and the
// solvers' restart, Alpha and Tol through Params.normalized.
func TestNonFiniteInputsAreRejected(t *testing.T) {
	g := testgraphs.Cycle(3)
	ctx := context.Background()
	nan, inf := math.NaN(), math.Inf(1)
	for _, w := range []float64{nan, inf, -inf} {
		q := Query{Nodes: []graph.NodeID{0, 1}, Weights: []float64{1, w}}
		if nq, err := q.Normalize(); err == nil {
			t.Errorf("weight %g: Normalize accepted it: %v", w, nq)
		}
		if nodes, weights, err := q.NormalizeInto(3, nil, nil); err == nil {
			t.Errorf("weight %g: NormalizeInto accepted it: %v %v", w, nodes, weights)
		}
		if v, err := FRank(ctx, g, q, DefaultParams()); err == nil {
			t.Errorf("weight %g: FRank accepted it: %v", w, v)
		}
		if v, err := TRank(ctx, g, q, DefaultParams()); err == nil {
			t.Errorf("weight %g: TRank accepted it: %v", w, v)
		}
	}
	// Finite weights whose sum overflows would normalize to all zeros.
	if nq, err := (Query{Nodes: []graph.NodeID{0, 1}, Weights: []float64{math.MaxFloat64, math.MaxFloat64}}).Normalize(); err == nil {
		t.Errorf("overflowing total: Normalize accepted it: %v", nq)
	}
	for name, p := range map[string]Params{
		"NaN alpha":  {Alpha: nan},
		"+Inf alpha": {Alpha: inf},
		"NaN tol":    {Alpha: 0.25, Tol: nan},
		"+Inf tol":   {Alpha: 0.25, Tol: inf},
	} {
		if v, err := FRank(ctx, g, SingleNode(0), p); err == nil {
			t.Errorf("%s: FRank accepted it: %v", name, v)
		}
		if v, err := TRank(ctx, g, SingleNode(0), p); err == nil {
			t.Errorf("%s: TRank accepted it: %v", name, v)
		}
	}
	if v, err := GlobalPageRank(ctx, g, nan, 1e-9, 10); err == nil {
		t.Errorf("NaN damping: GlobalPageRank accepted it: %v", v)
	}
}

func TestQueryHelpers(t *testing.T) {
	q := MultiNode(1, 2, 2)
	if !q.Contains(2) || q.Contains(5) {
		t.Errorf("Contains results wrong")
	}
	nq, err := q.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if math.Abs(sum(nq.Weights)-1) > 1e-12 {
		t.Errorf("normalized weights should sum to 1")
	}
	if _, err := (Query{Nodes: []graph.NodeID{1}, Weights: []float64{1, 2}}).Normalize(); err == nil {
		t.Errorf("mismatched lengths should error")
	}
}

func TestSamplerStepDistribution(t *testing.T) {
	b := graph.NewBuilder()
	a := b.AddNode(graph.Untyped, "a")
	x := b.AddNode(graph.Untyped, "x")
	y := b.AddNode(graph.Untyped, "y")
	b.MustAddEdge(a, x, 3)
	b.MustAddEdge(a, y, 1)
	g := b.MustBuild()
	rng := rand.New(rand.NewSource(7))
	s := NewSampler(g, rng)
	const n = 100000
	cx := 0
	for i := 0; i < n; i++ {
		to, ok := s.Step(a)
		if !ok {
			t.Fatalf("Step should succeed")
		}
		if to == x {
			cx++
		}
	}
	frac := float64(cx) / n
	if math.Abs(frac-0.75) > 0.01 {
		t.Errorf("weighted step fraction = %.3f, want ~0.75", frac)
	}
	if _, ok := s.Step(x); ok {
		t.Errorf("Step from dangling node should report failure")
	}
	if _, ok := s.StepBack(a); ok {
		t.Errorf("StepBack from source-only node should report failure")
	}
	if from, ok := s.StepBack(x); !ok || from != a {
		t.Errorf("StepBack(x) = %d,%v want %d,true", from, ok, a)
	}
}

// Property: on random graphs, F-Rank accounts for every walk — the walks that
// end somewhere, Σ f, and those that end at a dangling node without a
// destination, (1−α)/α of the F-Rank of each such node, sum to one — and
// T-Rank entries are probabilities in [0,1]; the query node always has
// positive scores in both.
func TestQuickRankInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(25)
		b := graph.NewBuilder()
		ids := make([]graph.NodeID, n)
		for i := 0; i < n; i++ {
			ids[i] = b.AddNode(graph.Untyped, "n"+string(rune('A'+i)))
		}
		m := n + rng.Intn(4*n)
		for i := 0; i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				v = (u + 1) % n
			}
			b.MustAddEdge(ids[u], ids[v], 0.5+rng.Float64())
		}
		g := b.MustBuild()
		q := ids[rng.Intn(n)]
		p := Params{Alpha: 0.1 + 0.8*rng.Float64(), Tol: 1e-10, MaxIter: 300}
		fr, err := FRank(context.Background(), g, SingleNode(q), p)
		if err != nil {
			return false
		}
		tr, err := TRank(context.Background(), g, SingleNode(q), p)
		if err != nil {
			return false
		}
		ended := sum(fr)
		for v, s := range g.OutSums() {
			if s <= 0 {
				ended += (1 - p.Alpha) / p.Alpha * fr[v]
			}
		}
		if math.Abs(ended-1) > 1e-6 {
			return false
		}
		if fr[q] <= 0 || tr[q] <= 0 {
			return false
		}
		for i := range fr {
			if fr[i] < -1e-12 || tr[i] < -1e-12 || tr[i] > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestNormalizeInto pins the allocation-free normalizer of the online hot
// path: same validation as Normalize plus range checking and duplicate
// merging into caller-owned buffers.
func TestNormalizeInto(t *testing.T) {
	var nodes []graph.NodeID
	var weights []float64

	bad := []Query{
		{},
		{Nodes: []graph.NodeID{1}, Weights: []float64{1, 2}},
		{Nodes: []graph.NodeID{1}, Weights: []float64{-1}},
		{Nodes: []graph.NodeID{1}, Weights: []float64{0}},
		{Nodes: []graph.NodeID{10}, Weights: []float64{1}}, // out of range
		{Nodes: []graph.NodeID{-1}, Weights: []float64{1}},
	}
	for i, q := range bad {
		if _, _, err := q.NormalizeInto(10, nodes[:0], weights[:0]); err == nil {
			t.Errorf("case %d should error", i)
		}
	}

	q := Query{Nodes: []graph.NodeID{3, 5, 3}, Weights: []float64{1, 2, 1}}
	nodes, weights, err := q.NormalizeInto(10, nodes[:0], weights[:0])
	if err != nil {
		t.Fatalf("NormalizeInto: %v", err)
	}
	if len(nodes) != 2 || nodes[0] != 3 || nodes[1] != 5 {
		t.Fatalf("nodes = %v, want [3 5] (duplicates merged, first occurrence kept)", nodes)
	}
	if math.Abs(weights[0]-0.5) > 1e-15 || math.Abs(weights[1]-0.5) > 1e-15 {
		t.Fatalf("weights = %v, want [0.5 0.5]", weights)
	}

	// The result must agree with Normalize on the merged distribution.
	nq, err := q.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	merged := map[graph.NodeID]float64{}
	for i, v := range nq.Nodes {
		merged[v] += nq.Weights[i]
	}
	for i, v := range nodes {
		if math.Abs(merged[v]-weights[i]) > 1e-15 {
			t.Errorf("node %d: NormalizeInto %g, Normalize %g", v, weights[i], merged[v])
		}
	}

	// Buffers are reused: a second call with ample capacity must not grow.
	n2, w2, err := Query{Nodes: []graph.NodeID{1}, Weights: []float64{4}}.NormalizeInto(10, nodes[:0], weights[:0])
	if err != nil {
		t.Fatalf("reuse: %v", err)
	}
	if &n2[0] != &nodes[0] || &w2[0] != &weights[0] {
		t.Errorf("NormalizeInto should reuse caller buffers")
	}
	if len(n2) != 1 || n2[0] != 1 || w2[0] != 1 {
		t.Errorf("reuse result = %v/%v", n2, w2)
	}
}
