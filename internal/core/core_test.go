package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/testgraphs"
	"roundtriprank/internal/walk"
)

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params should validate: %v", err)
	}
	bad := []Params{
		{Walk: walk.DefaultParams(), Beta: -0.1},
		{Walk: walk.DefaultParams(), Beta: 1.1},
		{Walk: walk.Params{Alpha: 0}, Beta: 0.5},
		{Walk: walk.Params{Alpha: 1}, Beta: 0.5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestFig4ToyRoundTripEnumeration(t *testing.T) {
	// Fig. 4 of the paper: constant walk lengths L = L' = 2, query t1.
	// Expected unnormalized probabilities: v1 = 0.05, v2 = 0.1, v3 = 0.05,
	// t1 itself = 0.25, all other nodes' venues zero as listed.
	toy := testgraphs.NewToy()
	probs, err := EnumerateRoundTrips(context.Background(), toy.Graph, toy.T1, 2, 2)
	if err != nil {
		t.Fatalf("EnumerateRoundTrips: %v", err)
	}
	cases := []struct {
		name string
		node graph.NodeID
		want float64
	}{
		{"v1", toy.V1, 0.05},
		{"v2", toy.V2, 0.10},
		{"v3", toy.V3, 0.05},
		{"t1", toy.T1, 0.25},
		{"t2", toy.T2, 0.0},
	}
	for _, c := range cases {
		if math.Abs(probs[c.node]-c.want) > 1e-12 {
			t.Errorf("round-trip probability of %s = %.6f, want %.6f", c.name, probs[c.node], c.want)
		}
	}
	// Papers p1..p4 cannot be the target of a (2,2) round trip from t1 since
	// they sit at odd distance from t1.
	for i := 0; i < 4; i++ {
		if probs[toy.P[i]] != 0 {
			t.Errorf("paper p%d should have zero probability, got %g", i+1, probs[toy.P[i]])
		}
	}
	// Total probability of completing any round trip from t1 in 4 steps.
	total := 0.0
	for _, p := range probs {
		total += p
	}
	if total <= 0 || total > 1 {
		t.Errorf("total round-trip probability %g out of range", total)
	}
}

func TestEnumerateRoundTripsErrors(t *testing.T) {
	toy := testgraphs.NewToy()
	if _, err := EnumerateRoundTrips(context.Background(), toy.Graph, -1, 2, 2); err == nil {
		t.Errorf("negative query node should error")
	}
	if _, err := EnumerateRoundTrips(context.Background(), toy.Graph, toy.T1, -1, 2); err == nil {
		t.Errorf("negative L should error")
	}
}

func TestComputeAndDegenerateCases(t *testing.T) {
	toy := testgraphs.NewToy()
	q := walk.SingleNode(toy.T1)
	wp := walk.Params{Alpha: 0.25, Tol: 1e-12, MaxIter: 500}

	s, err := Compute(context.Background(), toy.Graph, q, Params{Walk: wp, Beta: 0.5})
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	// Paper's headline claim on the toy graph: v2 is both important and
	// specific, so it beats v1 (important only) and v3 (specific only).
	if !(s.R[toy.V2] > s.R[toy.V1]) || !(s.R[toy.V2] > s.R[toy.V3]) {
		t.Errorf("RoundTripRank should favor v2: r(v1)=%g r(v2)=%g r(v3)=%g",
			s.R[toy.V1], s.R[toy.V2], s.R[toy.V3])
	}

	// β = 0 reduces to F-Rank, β = 1 to T-Rank (Sect. IV-B special cases).
	plus := func(beta float64) []float64 {
		t.Helper()
		sb, err := Compute(context.Background(), toy.Graph, q, Params{Walk: wp, Beta: beta})
		if err != nil {
			t.Fatalf("Compute(beta=%g): %v", beta, err)
		}
		return sb.R
	}
	r0, r1 := plus(0), plus(1)
	for v := range r0 {
		if math.Abs(r0[v]-s.F[v]) > 1e-12 {
			t.Errorf("beta=0 should equal F-Rank at node %d", v)
		}
		if math.Abs(r1[v]-s.T[v]) > 1e-12 {
			t.Errorf("beta=1 should equal T-Rank at node %d", v)
		}
	}
	// β = 0.5 equals RoundTripRank (rank equivalent to f·t): compare via
	// explicit formula sqrt(f·t).
	rHalf := plus(BalancedBeta)
	for v := range rHalf {
		want := math.Sqrt(s.F[v] * s.T[v])
		if math.Abs(rHalf[v]-want) > 1e-12 {
			t.Errorf("beta=0.5 combine mismatch at %d: %g vs %g", v, rHalf[v], want)
		}
	}
}

func TestComputeValidation(t *testing.T) {
	toy := testgraphs.NewToy()
	if _, err := Compute(context.Background(), toy.Graph, walk.SingleNode(toy.T1), Params{Walk: walk.DefaultParams(), Beta: 2}); err == nil {
		t.Errorf("invalid beta should error")
	}
	if _, err := Compute(context.Background(), toy.Graph, walk.Query{}, DefaultParams()); err == nil {
		t.Errorf("empty query should error")
	}
}

func TestCombineZeroHandling(t *testing.T) {
	f := []float64{0.5, 0, 0.1}
	tr := []float64{0.2, 0.3, 0}
	r := Combine(f, tr, 0.5)
	if r[1] != 0 || r[2] != 0 {
		t.Errorf("zero f or t should give zero combined score: %v", r)
	}
	if math.Abs(r[0]-math.Sqrt(0.1)) > 1e-12 {
		t.Errorf("combined score wrong: %g", r[0])
	}
}

func TestRankTopNAndTypeFilter(t *testing.T) {
	toy := testgraphs.NewToy()
	scores := make([]float64, toy.Graph.NumNodes())
	scores[toy.V1] = 0.3
	scores[toy.V2] = 0.7
	scores[toy.V3] = 0.3
	scores[toy.T1] = 0.9

	keepVenues := TypeFilter(toy.Graph, testgraphs.TypeVenue, toy.T1)
	ranked := Rank(scores, keepVenues)
	if len(ranked) != 3 {
		t.Fatalf("venue ranking has %d entries, want 3", len(ranked))
	}
	if ranked[0].Node != toy.V2 {
		t.Errorf("top venue should be v2, got %d", ranked[0].Node)
	}
	// Tie between v1 and v3 broken by node ID.
	if ranked[1].Node != toy.V1 || ranked[2].Node != toy.V3 {
		t.Errorf("tie-break order wrong: %v", ranked)
	}
	top := TopN(scores, 2, keepVenues)
	if len(top) != 2 || top[0].Node != toy.V2 {
		t.Errorf("TopN wrong: %v", top)
	}
	all := Rank(scores, nil)
	if len(all) != toy.Graph.NumNodes() {
		t.Errorf("nil filter should keep all nodes")
	}
	if all[0].Node != toy.T1 {
		t.Errorf("global top should be t1")
	}
}

// TestTopNEqualsRankPrefix pins the heap selection of TopN to the sort it
// replaced: on random score vectors full of ties and zeros (and a NaN), with
// and without a keep filter, TopN(n) is Rank(...)[:n] entry for entry, and
// n ≤ 0 selects nothing.
func TestTopNEqualsRankPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	levels := []float64{0, 0, 0.1, 0.25, 0.25, 0.5, 1, math.Copysign(0, -1)}
	for draw := 0; draw < 200; draw++ {
		scores := make([]float64, rng.Intn(60))
		for i := range scores {
			scores[i] = levels[rng.Intn(len(levels))]
			if rng.Intn(4) == 0 {
				scores[i] = rng.Float64()
			}
		}
		if len(scores) > 0 && draw%10 == 0 {
			scores[rng.Intn(len(scores))] = math.NaN()
		}
		mod := 2 + rng.Intn(3)
		for _, keep := range []func(graph.NodeID) bool{nil, func(v graph.NodeID) bool { return int(v)%mod != 0 }} {
			all := Rank(scores, keep)
			for _, n := range []int{-1, 0, 1, 10, len(scores), len(scores) + 5} {
				got := TopN(scores, n, keep)
				want := all[:max(0, min(n, len(all)))]
				if len(got) != len(want) {
					t.Fatalf("draw %d n=%d: %d entries, want %d", draw, n, len(got), len(want))
				}
				for i := range want {
					if got[i].Node != want[i].Node || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
						t.Fatalf("draw %d n=%d rank %d: %+v, want %+v", draw, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestSpecificityBiasFromSurfers(t *testing.T) {
	cases := []struct {
		b, i, s int
		want    float64
	}{
		{1, 0, 0, 0.5}, // Ω = Ω11 → RoundTripRank
		{0, 7, 0, 0},   // Ω = Ω10 → F-Rank
		{0, 0, 3, 1},   // Ω = Ω01 → T-Rank
		{2, 2, 0, 1.0 / 3},
		{1, 1, 2, 0.6},
	}
	for _, c := range cases {
		got, err := SpecificityBiasFromSurfers(c.b, c.i, c.s)
		if err != nil {
			t.Fatalf("SpecificityBiasFromSurfers(%d,%d,%d): %v", c.b, c.i, c.s, err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("beta(%d,%d,%d) = %g, want %g", c.b, c.i, c.s, got, c.want)
		}
	}
	if _, err := SpecificityBiasFromSurfers(0, 0, 0); err == nil {
		t.Errorf("no surfers should error")
	}
	if _, err := SpecificityBiasFromSurfers(-1, 0, 1); err == nil {
		t.Errorf("negative surfer count should error")
	}
}

// Property: Combine is monotone in both arguments for any beta in (0,1): if a
// node dominates another in both f and t, it cannot rank lower.
func TestQuickCombineMonotone(t *testing.T) {
	f := func(seed int64, betaRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		beta := float64(betaRaw%101) / 100.0
		f1, t1 := rng.Float64(), rng.Float64()
		f2, t2 := f1*rng.Float64(), t1*rng.Float64() // dominated pair
		r := Combine([]float64{f1, f2}, []float64{t1, t2}, beta)
		return r[0] >= r[1]-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the ranking induced by RoundTripRank (β = 0.5) is identical to the
// ranking induced by the raw product f·t (rank equivalence of the normalized
// exponents in Eq. 11).
func TestQuickRankEquivalenceOfNormalization(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		fs := make([]float64, n)
		ts := make([]float64, n)
		for i := range fs {
			fs[i] = rng.Float64()
			ts[i] = rng.Float64()
		}
		byProduct := Rank(Combine(fs, ts, 0.5), nil)
		prod := make([]float64, n)
		for i := range prod {
			prod[i] = fs[i] * ts[i]
		}
		byRaw := Rank(prod, nil)
		for i := range byProduct {
			if byProduct[i].Node != byRaw[i].Node {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: on random strongly connected graphs (cycles plus chords), the
// round-trip enumeration with constant lengths equals the product of the
// forward and backward constant-length reachabilities — the constant-length
// analogue of Proposition 2.
func TestQuickEnumerationMatchesDecomposition(t *testing.T) {
	f := func(seed int64, lRaw, lpRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		b := graph.NewBuilder()
		ids := make([]graph.NodeID, n)
		for i := 0; i < n; i++ {
			ids[i] = b.AddNode(graph.Untyped, "n"+string(rune('A'+i)))
		}
		for i := 0; i < n; i++ {
			b.MustAddEdge(ids[i], ids[(i+1)%n], 1)
		}
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				v = (u + 1) % n
			}
			b.MustAddEdge(ids[u], ids[v], 0.5+rng.Float64())
		}
		g := b.MustBuild()
		q := ids[rng.Intn(n)]
		L := int(lRaw % 4)
		Lp := int(lpRaw % 4)
		probs, err := EnumerateRoundTrips(context.Background(), g, q, L, Lp)
		if err != nil {
			return false
		}
		// Independent check via two separate enumerations against the same
		// node: forward distribution after L steps times probability of
		// returning in Lp steps, computed by brute-force path expansion.
		fwd := bruteForceDistribution(g, q, L)
		for v := 0; v < n; v++ {
			back := bruteForceReturn(g, graph.NodeID(v), q, Lp)
			want := fwd[v] * back
			if math.Abs(probs[v]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// bruteForceDistribution expands all walks of exactly L steps from q and
// accumulates endpoint probabilities.
func bruteForceDistribution(g *graph.Graph, q graph.NodeID, L int) []float64 {
	cur := make([]float64, g.NumNodes())
	cur[q] = 1
	for step := 0; step < L; step++ {
		next := make([]float64, g.NumNodes())
		for v := 0; v < g.NumNodes(); v++ {
			if cur[v] == 0 {
				continue
			}
			sum := g.OutSum(graph.NodeID(v))
			if sum <= 0 {
				continue
			}
			cols, ws := g.OutRow(graph.NodeID(v))
			for i, to := range cols {
				next[to] += cur[v] * ws[i] / sum
			}
		}
		cur = next
	}
	return cur
}

// bruteForceReturn computes the probability that a walk of exactly L steps
// from v ends at q.
func bruteForceReturn(g *graph.Graph, v, q graph.NodeID, L int) float64 {
	dist := bruteForceDistribution(g, v, L)
	return dist[q]
}

// oneSidedGather fails the gathers of one side at once and parks the other
// side's until their context is cancelled — the shape of a dead worker under
// one solve while the sibling solve still has iterations to run.
type oneSidedGather struct {
	n      int
	failIn bool // GatherIn (F-Rank) fails; otherwise GatherOut (T-Rank)
}

var errDeadWorker = errors.New("worker died")

func (g oneSidedGather) OutSums() []float64 {
	sums := make([]float64, g.n)
	for i := range sums {
		sums[i] = 1
	}
	return sums
}

func (g oneSidedGather) InSums() []float64 { return nil }

func (g oneSidedGather) GatherIn(ctx context.Context, _, _ []float64, _ []graph.NodeID) error {
	return g.gather(ctx, g.failIn)
}

func (g oneSidedGather) GatherOut(ctx context.Context, _, _ []float64, _ []graph.NodeID) error {
	return g.gather(ctx, !g.failIn)
}

func (g oneSidedGather) gather(ctx context.Context, fail bool) error {
	if fail {
		return errDeadWorker
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(30 * time.Second):
		return errors.New("the sibling solve was never cancelled")
	}
}

// TestSolveCancelsSiblingAndReportsRootCause pins the one concurrent F/T
// pair: whichever solve fails first cancels the other, and the error returned
// is the failure itself, not the sibling's context.Canceled.
func TestSolveCancelsSiblingAndReportsRootCause(t *testing.T) {
	for _, failIn := range []bool{true, false} {
		start := time.Now()
		f, tr, _, _, err := Solve(context.Background(), oneSidedGather{n: 4, failIn: failIn}, walk.SingleNode(0), walk.DefaultParams())
		if !errors.Is(err, errDeadWorker) || f != nil || tr != nil {
			t.Errorf("failIn=%v: Solve returned (%v, %v, %v), want only the dead worker's error", failIn, f, tr, err)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Errorf("failIn=%v: Solve took %v; the healthy sibling was not cancelled", failIn, elapsed)
		}
	}
}
