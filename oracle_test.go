package roundtriprank

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"roundtriprank/internal/datasets"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/scratch"
)

// This file checks every execution path against an oracle that shares no code
// with them: F-Rank and T-Rank straight from Eq. 5 and Eq. 8,
//
//	F = α·(I − (1−α)·Pᵀ)⁻¹·r    T = α·(I − (1−α)·P)⁻¹·r,
//
// solved as dense linear systems by Gaussian elimination over a transition
// matrix P assembled here from the generator's own edge list, with r the
// normalized query. P's row of a node without out-weight is zero — a walk
// there ends — so these are the literal equations, with no dangling case. The
// file imports nothing from walk, core, bounds or bca.

// oracleEdge is one drawn edge, as the oracle reads it.
type oracleEdge struct {
	from, to NodeID
	w        float64
}

// oracleSolve solves a·x = b by Gaussian elimination with partial pivoting,
// overwriting both.
func oracleSolve(a [][]float64, b []float64) []float64 {
	n := len(b)
	for c := 0; c < n; c++ {
		p := c
		for r := c + 1; r < n; r++ {
			if math.Abs(a[r][c]) > math.Abs(a[p][c]) {
				p = r
			}
		}
		a[c], a[p], b[c], b[p] = a[p], a[c], b[p], b[c]
		for r := c + 1; r < n; r++ {
			if m := a[r][c] / a[c][c]; m != 0 {
				for k := c; k < n; k++ {
					a[r][k] -= m * a[c][k]
				}
				b[r] -= m * b[c]
			}
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for k := r + 1; k < n; k++ {
			s -= a[r][k] * x[k]
		}
		x[r] = s / a[r][r]
	}
	return x
}

// oracle returns F (Eq. 5) and T (Eq. 8) of query q at teleport probability α
// on the n-node graph with the given edges; parallel edges add up. F is zero
// on the nodes the query cannot reach and T on those that cannot reach it:
// elimination leaves round-off of ~1e-17 there, which a power β lifts to
// ~1e-6, a score the exact solve, 0 there, rightly never gives.
func oracle(n int, edges []oracleEdge, q Query, alpha float64) (f, t []float64) {
	p := make([][]float64, n)
	for u := range p {
		p[u] = make([]float64, n)
	}
	for _, e := range edges {
		p[e.from][e.to] += e.w
	}
	for _, row := range p {
		sum := 0.0
		for _, w := range row {
			sum += w
		}
		for v := range row {
			if sum > 0 {
				row[v] /= sum
			}
		}
	}
	total := 0.0
	for _, w := range q.Weights {
		total += w
	}
	fa, ta := make([][]float64, n), make([][]float64, n)
	fb, tb := make([]float64, n), make([]float64, n)
	for i, v := range q.Nodes {
		fb[v] += alpha * q.Weights[i] / total
		tb[v] += alpha * q.Weights[i] / total
	}
	for u := 0; u < n; u++ {
		fa[u], ta[u] = make([]float64, n), make([]float64, n)
		for v := 0; v < n; v++ {
			fa[u][v] = -(1 - alpha) * p[v][u]
			ta[u][v] = -(1 - alpha) * p[u][v]
		}
		fa[u][u]++
		ta[u][u]++
	}
	f, t = oracleSolve(fa, fb), oracleSolve(ta, tb)
	reached, reaching := oracleReach(n, edges, q, false), oracleReach(n, edges, q, true)
	for v := range f {
		if !reached[v] {
			f[v] = 0
		}
		if !reaching[v] {
			t[v] = 0
		}
	}
	return f, t
}

// oracleReach marks the query's nodes and those a walk from them reaches
// along the edges, or with backward, those whose walks reach the query.
func oracleReach(n int, edges []oracleEdge, q Query, backward bool) []bool {
	seen := make([]bool, n)
	for _, v := range q.Nodes {
		seen[v] = true
	}
	for grew := true; grew; {
		grew = false
		for _, e := range edges {
			u, v := e.from, e.to
			if backward {
				u, v = v, u
			}
			if seen[u] && !seen[v] {
				seen[v], grew = true, true
			}
		}
	}
	return seen
}

// oracleRanking combines F and T into RoundTripRank+ scores f^(1−β)·t^β
// (Eq. 12) and orders the nodes by them, best first, ties by node.
func oracleRanking(f, t []float64, beta float64) (scores []float64, order []NodeID) {
	scores = make([]float64, len(f))
	order = make([]NodeID, len(f))
	for v := range f {
		scores[v] = math.Pow(max(f[v], 0), 1-beta) * math.Pow(max(t[v], 0), beta)
		order[v] = NodeID(v)
	}
	slices.SortStableFunc(order, func(a, b NodeID) int { return cmp.Compare(scores[b], scores[a]) })
	return scores, order
}

// oracleTie is how close two oracle scores must be for a ranking to order
// them either way.
const oracleTie = 1e-12

// ranksLikeOracle reports where got departs from the oracle's ranking.
// Position j must hold a node whose oracle score is within oracleTie of the
// oracle's j-th score. With k > 0, got is a whole answer of k results: it may
// be shorter only by nodes the oracle scores zero, within oracleTie.
func ranksLikeOracle(scores []float64, order []NodeID, got []Result, k int) error {
	for j, r := range got {
		if want := scores[order[j]]; math.Abs(scores[r.Node]-want) > oracleTie {
			return fmt.Errorf("position %d holds node %d (oracle score %g), the oracle's has score %g (node %d)",
				j, r.Node, scores[r.Node], want, order[j])
		}
	}
	if n := len(got); k > 0 && n < k && n < len(order) && scores[order[n]] > oracleTie {
		return fmt.Errorf("%d results of %d; the oracle scores node %d at %g", n, k, order[n], scores[order[n]])
	}
	return nil
}

// oracleQuery draws a query of one to four nodes, drawn with replacement, so
// a node may repeat, and weighted at random.
func oracleQuery(rng *rand.Rand, n int) Query {
	var q Query
	for i := 1 + rng.Intn(4); i > 0; i-- {
		q.Nodes = append(q.Nodes, NodeID(rng.Intn(n)))
		q.Weights = append(q.Weights, 0.5+rng.Float64())
	}
	return q
}

// checkOracle draws α ∈ {0.15, 0.25, 0.5}, β ∈ {0, 0.3, 0.5, 1}, a query and
// K, from 1 to three past the number of nodes the oracle scores (counting at
// most 10 of them), so that some draws ask for more nodes than the query's
// component scores, and checks every path against the oracle:
//   - F and T of the exact arm — core.Solve over the local rows, the solve
//     core.Compute runs — within 1e-9;
//   - the top K of Exact over the flat and the packed layout and of
//     Distributed over two loopback workers, and the prefix each certifies
//     from its solves' error bounds;
//   - the certified prefix of TwoSBound at ε = 0 over flat, packed and remote
//     rows, capped at 1, 2, 4 and 8 rounds and unbudgeted: on these small
//     graphs both neighborhoods close within a few rounds, which ends the
//     search even where the top K holds a tie or K exceeds what scores.
//
// Whether a larger budget certifies more is not asserted: a certificate
// describes its own stop. Across these rungs CertifiedK has not been seen to
// fall, but AchievedEpsilon rises in about 0.2 % of steps, from 1 round to 2
// or from 2 to 4 (docs/TUNING.md, "Sizing a query budget").
func checkOracle(t *testing.T, g *Graph, edges []oracleEdge, rng *rand.Rand) bool {
	ctx := context.Background()
	n := g.NumNodes()
	alpha := []float64{0.15, 0.25, 0.5}[rng.Intn(3)]
	beta := []float64{0, 0.3, 0.5, 1}[rng.Intn(4)]
	q := oracleQuery(rng, n)
	f, tr := oracle(n, edges, q, alpha)
	scores, order := oracleRanking(f, tr, beta)
	positive := 0
	for _, s := range scores {
		if s > oracleTie {
			positive++
		}
	}
	k := 1 + rng.Intn(min(10, positive)+3)
	label := fmt.Sprintf("%d nodes, %d edges, query %v, α %g, β %g, K %d", n, len(edges), q, alpha, beta, k)
	fail := func(format string, args ...any) bool {
		t.Logf("%s: %s", label, fmt.Sprintf(format, args...))
		return false
	}
	workers, err := LoopbackWorkers(g, 2)
	if err != nil {
		return fail("LoopbackWorkers: %v", err)
	}
	flat, err := NewEngine(g, WithWorkers(workers...))
	if err != nil {
		return fail("NewEngine: %v", err)
	}
	packed, err := NewEngine(graph.Pack(g))
	if err != nil {
		return fail("NewEngine(packed): %v", err)
	}

	// The tolerance is tight enough that the solvers' error stays well below
	// both 1e-9 and a tie.
	req := Request{Query: q, K: k, Method: Exact, Alpha: alpha, Beta: &beta, Tolerance: 1e-13}
	p, err := flat.plan(req)
	if err != nil {
		return fail("plan: %v", err)
	}
	vec, err := p.vectors(ctx, nil)
	if err != nil {
		return fail("exact vectors: %v", err)
	}
	for v := range f {
		if math.Abs(vec.f[v]-f[v]) > 1e-9 || math.Abs(vec.t[v]-tr[v]) > 1e-9 {
			return fail("node %d: F %g T %g, the oracle's %g and %g", v, vec.f[v], vec.t[v], f[v], tr[v])
		}
	}

	for _, run := range []struct {
		name   string
		engine *Engine
		method Method
	}{{"exact", flat, Exact}, {"exact/packed", packed, Exact}, {"distributed", flat, Distributed}} {
		req.Method = run.method
		resp, err := run.engine.Rank(ctx, req)
		if err != nil {
			return fail("%s: %v", run.name, err)
		}
		if err := ranksLikeOracle(scores, order, resp.Results, k); err != nil {
			return fail("%s: %v", run.name, err)
		}
		if err := ranksLikeOracle(scores, order, resp.Results[:resp.CertifiedK], 0); err != nil {
			return fail("%s, %d certified: %v", run.name, resp.CertifiedK, err)
		}
	}

	for _, run := range []struct {
		name   string
		engine *Engine
		method Method
	}{{"flat", flat, TwoSBound}, {"packed", packed, TwoSBound}, {"remote", flat, TwoSBoundRemote}} {
		for _, rounds := range []int{1, 2, 4, 8, 0} {
			req.Method, req.Budget = run.method, nil
			if rounds > 0 {
				req.Budget = &Budget{MaxRounds: rounds}
			}
			resp, err := run.engine.Rank(ctx, req)
			if err != nil {
				return fail("2SBound %s, %d rounds: %v", run.name, rounds, err)
			}
			if rounds == 0 && resp.Degraded { // without a budget only the round backstop degrades
				return fail("2SBound %s, unbudgeted: stopped on the round backstop", run.name)
			}
			if err := ranksLikeOracle(scores, order, resp.Results[:resp.CertifiedK], 0); err != nil {
				return fail("2SBound %s, %d rounds, %d certified: %v", run.name, rounds, resp.CertifiedK, err)
			}
		}
	}
	return true
}

// oracleBuilderDraw draws a graph of 2–60 nodes through the Builder from
// seed — one to three parts with no edge between them, positive weights that
// are not all one, and up to 40 % of the nodes without out-edges — and checks
// it against the oracle.
func oracleBuilderDraw(t *testing.T, seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(59)
	parts := 1 + rng.Intn(3)
	dead := make([]bool, n)
	share := 0.4 * rng.Float64()
	for v := range dead {
		dead[v] = rng.Float64() < share
	}
	b := NewGraphBuilder()
	for v := 0; v < n; v++ {
		b.AddNode(graph.Untyped, fmt.Sprint(v))
	}
	var edges []oracleEdge
	for i := n + rng.Intn(4*n); i > 0; i-- {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || dead[u] || u*parts/n != v*parts/n {
			continue
		}
		e := oracleEdge{NodeID(u), NodeID(v), 0.25 + 2*rng.Float64()}
		b.MustAddEdge(e.from, e.to, e.w)
		edges = append(edges, e)
	}
	g, err := b.Build()
	if err != nil {
		t.Logf("Build: %v", err)
		return false
	}
	return checkOracle(t, g, edges, rng)
}

// TestOracleBuilderGraphs checks random Builder draws against the oracle.
func TestOracleBuilderGraphs(t *testing.T) {
	draw := func(seed int64) bool { return oracleBuilderDraw(t, seed) }
	if err := quick.Check(draw, &quick.Config{MaxCountScale: oracleScale()}); err != nil {
		t.Error(err)
	}
}

// TestOracleBuilderGraphsReplays replays two draws whose queries leave nodes
// unable to reach the query, at β = 0.3 and 0.5, where an oracle that kept its
// round-off asked the exact arm for results that do not exist ("3 results of
// 9; the oracle scores node 30 at 1.34e-06", "4 results of 6; … node 22 at
// 6.16e-10").
func TestOracleBuilderGraphsReplays(t *testing.T) {
	for _, seed := range []int64{-766697711969223930, -3450897205330241139} {
		if !oracleBuilderDraw(t, seed) {
			t.Errorf("draw %d departs from the oracle", seed)
		}
	}
}

// TestOracleRMAT draws 64-node directed R-MAT graphs, the family the bench
// spine measures, where many nodes have no out-edges.
func TestOracleRMAT(t *testing.T) {
	draw := func(seed int64) bool {
		cfg := datasets.DefaultRMATConfig(64)
		cfg.Seed = seed
		drawn, err := datasets.RMATEdges(cfg)
		if err != nil {
			t.Logf("RMATEdges: %v", err)
			return false
		}
		b := NewGraphBuilder()
		b.AddNodes(cfg.Nodes, nil)
		edges := make([]oracleEdge, len(drawn))
		for i, e := range drawn {
			edges[i] = oracleEdge{e.From, e.To, 1}
			b.MustAddEdge(e.From, e.To, 1)
		}
		g, err := b.Build()
		if err != nil {
			t.Logf("Build: %v", err)
			return false
		}
		return checkOracle(t, g, edges, rand.New(rand.NewSource(seed)))
	}
	if err := quick.Check(draw, &quick.Config{MaxCountScale: oracleScale()}); err != nil {
		t.Error(err)
	}
}

// oracleScale is the share of -quickchecks each oracle suite draws: 60 at
// the default 100, a tenth of that under the race detector.
func oracleScale() float64 {
	if scratch.RaceEnabled {
		return 0.06
	}
	return 0.6
}
