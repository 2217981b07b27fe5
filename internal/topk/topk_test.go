package topk

import (
	"context"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"roundtriprank/internal/core"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/testgraphs"
	"roundtriprank/internal/walk"
)

func TestOptionsValidation(t *testing.T) {
	toy := testgraphs.NewToy()
	q := walk.SingleNode(toy.T1)
	bad := []Options{
		{K: 0, Alpha: 0.25, Beta: 0.5},
		{K: 3, Epsilon: -1, Alpha: 0.25, Beta: 0.5},
		{K: 3, Alpha: 2, Beta: 0.5},
		{K: 3, Alpha: 0.25, Beta: -0.5},
		{K: 3, Alpha: 0.25, Beta: 0.5, Scheme: Scheme(99)},
		// Values every ordered comparison lets through.
		{K: 3, Epsilon: math.NaN(), Alpha: 0.25, Beta: 0.5},
		{K: 3, Epsilon: math.Inf(1), Alpha: 0.25, Beta: 0.5},
		{K: 3, Alpha: math.NaN(), Beta: 0.5},
		{K: 3, Alpha: math.Inf(1), Beta: 0.5},
		{K: 3, Alpha: math.Inf(-1), Beta: 0.5},
		{K: 3, Alpha: 1, Beta: 0.5},
		{K: 3, Alpha: 0.25, Beta: math.NaN()},
		{K: 3, Alpha: 0.25, Beta: math.Inf(1)},
		{K: 3, Alpha: 0.25, Beta: math.Nextafter(1, 2)},
	}
	for i, o := range bad {
		if _, err := TopK(context.Background(), toy.Graph, q, o); err == nil {
			t.Errorf("case %d (%+v) should error", i, o)
		}
	}
	good := []Options{
		{K: 3, Alpha: 0.25, Beta: 0},
		{K: 3, Alpha: 0.25, Beta: 1},
		{K: 3, Epsilon: 0, Alpha: math.Nextafter(1, 0), Beta: 0.5},
	}
	for i, o := range good {
		o.Budget = &Budget{MaxRounds: 2}
		if _, err := TopK(context.Background(), toy.Graph, q, o); err != nil {
			t.Errorf("boundary case %d (%+v): %v", i, o, err)
		}
	}
	if _, _, err := Naive(context.Background(), toy.Graph, q, Options{K: 0}); err == nil {
		t.Errorf("Naive with K=0 should error")
	}
	if _, err := TopK(context.Background(), toy.Graph, walk.Query{}, DefaultOptions()); err == nil {
		t.Errorf("empty query should error")
	}
}

func TestSchemeString(t *testing.T) {
	names := map[Scheme]string{
		Scheme2SBound: "2SBound",
		SchemeGS:      "G+S",
		SchemeGupta:   "Gupta",
		SchemeSarkar:  "Sarkar",
		Scheme(42):    "Scheme(42)",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("Scheme(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestNaiveTopVenueOnToy(t *testing.T) {
	toy := testgraphs.NewToy()
	ranked, scores, err := Naive(context.Background(), toy.Graph, walk.SingleNode(toy.T1), Options{K: 3, Alpha: 0.25, Beta: 0.5})
	if err != nil {
		t.Fatalf("Naive: %v", err)
	}
	if len(ranked) != 3 {
		t.Fatalf("Naive returned %d results, want 3", len(ranked))
	}
	if ranked[0].Node != toy.T1 {
		t.Errorf("self-proximity should rank the query first, got node %d", ranked[0].Node)
	}
	// Among the venues, v2 should rank highest (important and specific).
	if !(scores[toy.V2] > scores[toy.V1]) || !(scores[toy.V2] > scores[toy.V3]) {
		t.Errorf("v2 should outrank v1 and v3: %g %g %g", scores[toy.V1], scores[toy.V2], scores[toy.V3])
	}
}

func TestTopKMatchesNaiveOnToy(t *testing.T) {
	toy := testgraphs.NewToy()
	q := walk.SingleNode(toy.T1)
	for _, scheme := range []Scheme{Scheme2SBound, SchemeGS, SchemeGupta, SchemeSarkar} {
		opt := Options{K: 5, Epsilon: 1e-6, Alpha: 0.25, Beta: 0.5, Scheme: scheme, FExpansion: 3, TExpansion: 2}
		res, err := TopK(context.Background(), toy.Graph, q, opt)
		if err != nil {
			t.Fatalf("%v: TopK: %v", scheme, err)
		}
		if !res.Converged {
			t.Errorf("%v: should converge on the toy graph", scheme)
		}
		naive, _, err := Naive(context.Background(), toy.Graph, q, opt)
		if err != nil {
			t.Fatalf("Naive: %v", err)
		}
		if len(res.TopK) != len(naive) {
			t.Fatalf("%v: size mismatch %d vs %d", scheme, len(res.TopK), len(naive))
		}
		for i := range naive {
			if res.TopK[i].Node != naive[i].Node {
				t.Errorf("%v: rank %d node %d, naive has %d", scheme, i, res.TopK[i].Node, naive[i].Node)
			}
		}
		if res.FSeen == 0 || res.TSeen == 0 || res.RSeen == 0 {
			t.Errorf("%v: neighborhood sizes should be positive: %d %d %d", scheme, res.FSeen, res.TSeen, res.RSeen)
		}
		if res.Rounds <= 0 {
			t.Errorf("%v: rounds should be positive", scheme)
		}
	}
}

func TestTopKBetaExtremes(t *testing.T) {
	toy := testgraphs.NewToy()
	q := walk.SingleNode(toy.T1)
	for _, beta := range []float64{0, 0.25, 0.5, 0.75, 1} {
		opt := Options{K: 4, Epsilon: 1e-6, Alpha: 0.25, Beta: beta, FExpansion: 3, TExpansion: 2}
		res, err := TopK(context.Background(), toy.Graph, q, opt)
		if err != nil {
			t.Fatalf("beta=%g: %v", beta, err)
		}
		naive, _, err := Naive(context.Background(), toy.Graph, q, opt)
		if err != nil {
			t.Fatalf("beta=%g naive: %v", beta, err)
		}
		for i := range naive {
			if i < len(res.TopK) && res.TopK[i].Node != naive[i].Node {
				t.Errorf("beta=%g rank %d: %d vs naive %d", beta, i, res.TopK[i].Node, naive[i].Node)
			}
		}
	}
}

func TestTopKDisconnectedTarget(t *testing.T) {
	// Directed line: nothing can walk back to the query, so T-Rank is zero for
	// everything but the query and the combined score collapses to the query
	// alone; the algorithm must terminate (exhaustion) and not spin.
	g := testgraphs.Line(5)
	opt := Options{K: 3, Epsilon: 0.001, Alpha: 0.25, Beta: 0.5, Budget: &Budget{MaxRounds: 1000}}
	res, err := TopK(context.Background(), g, walk.SingleNode(0), opt)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if len(res.TopK) == 0 {
		t.Fatalf("should return at least the query node")
	}
	if res.TopK[0].Node != 0 {
		t.Errorf("query should rank first, got %d", res.TopK[0].Node)
	}
}

func TestTopKMaxRoundsCap(t *testing.T) {
	toy := testgraphs.NewToy()
	opt := Options{K: 5, Epsilon: 0, Alpha: 0.25, Beta: 0.5, Budget: &Budget{MaxRounds: 1}, FExpansion: 1, TExpansion: 1}
	res, err := TopK(context.Background(), toy.Graph, walk.SingleNode(toy.T1), opt)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if res.Rounds != 1 {
		t.Errorf("rounds = %d, want 1 (cap)", res.Rounds)
	}
}

// epsilonGuarantee checks the two guarantees of the ε-approximate top-K
// (Sect. V-A1): (a) no node whose exact score exceeds the K-th returned node's
// exact score by at least ε is missing; (b) no two returned nodes whose exact
// scores differ by at least ε are swapped.
func epsilonGuarantee(res *Result, exact []float64, eps float64, k int) bool {
	if len(res.TopK) == 0 {
		return false
	}
	inTop := make(map[graph.NodeID]bool, len(res.TopK))
	for _, r := range res.TopK {
		inTop[r.Node] = true
	}
	kth := res.TopK[len(res.TopK)-1].Node
	for v := range exact {
		node := graph.NodeID(v)
		if inTop[node] {
			continue
		}
		if exact[v] >= exact[kth]+eps {
			return false
		}
	}
	for i := 0; i < len(res.TopK); i++ {
		for j := i + 1; j < len(res.TopK); j++ {
			if exact[res.TopK[j].Node] >= exact[res.TopK[i].Node]+eps {
				return false
			}
		}
	}
	return true
}

func TestEpsilonGuaranteeOnToy(t *testing.T) {
	toy := testgraphs.NewToy()
	q := walk.SingleNode(toy.T1)
	for _, eps := range []float64{0.001, 0.01, 0.05} {
		opt := Options{K: 5, Epsilon: eps, Alpha: 0.25, Beta: 0.5, FExpansion: 2, TExpansion: 2}
		res, err := TopK(context.Background(), toy.Graph, q, opt)
		if err != nil {
			t.Fatalf("TopK: %v", err)
		}
		_, exact, err := Naive(context.Background(), toy.Graph, q, opt)
		if err != nil {
			t.Fatalf("Naive: %v", err)
		}
		if !epsilonGuarantee(res, exact, eps, opt.K) {
			t.Errorf("epsilon=%g: approximation guarantee violated", eps)
		}
	}
}

// Property: on random strongly connected graphs, 2SBound with slack ε meets
// the ε-approximation guarantee against the exact (naive) scores, for every
// scheme.
func TestQuickTopKApproximationGuarantee(t *testing.T) {
	schemes := []Scheme{Scheme2SBound, SchemeGS, SchemeGupta, SchemeSarkar}
	f := func(seed int64, kRaw, schemeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(30)
		b := graph.NewBuilder()
		ids := make([]graph.NodeID, n)
		for i := 0; i < n; i++ {
			ids[i] = b.AddNode(graph.Untyped, "n"+string(rune('0'+i%10))+string(rune('a'+i/10)))
		}
		for i := 0; i < n; i++ {
			b.MustAddEdge(ids[i], ids[(i+1)%n], 1)
		}
		extra := rng.Intn(4 * n)
		for i := 0; i < extra; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				v = (u + 1) % n
			}
			b.MustAddEdge(ids[u], ids[v], 0.25+rng.Float64())
		}
		g := b.MustBuild()
		q := walk.SingleNode(ids[rng.Intn(n)])
		k := 1 + int(kRaw%5)
		eps := 0.0005 + 0.01*rng.Float64()
		opt := Options{
			K:          k,
			Epsilon:    eps,
			Alpha:      0.25,
			Beta:       0.5,
			Scheme:     schemes[int(schemeRaw)%len(schemes)],
			FExpansion: 1 + rng.Intn(10),
			TExpansion: 1 + rng.Intn(4),
		}
		res, err := TopK(context.Background(), g, q, opt)
		if err != nil {
			return false
		}
		_, exact, err := Naive(context.Background(), g, q, opt)
		if err != nil {
			return false
		}
		return epsilonGuarantee(res, exact, eps, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: with a tiny slack the returned node set matches the exact top-K
// node set whenever the exact scores have no near-ties at the boundary.
func TestQuickTopKMatchesExactWithoutTies(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(20)
		b := graph.NewBuilder()
		ids := make([]graph.NodeID, n)
		for i := 0; i < n; i++ {
			ids[i] = b.AddNode(graph.Untyped, "x"+string(rune('0'+i%10))+string(rune('a'+i/10)))
		}
		for i := 0; i < n; i++ {
			b.MustAddEdge(ids[i], ids[(i+1)%n], 0.5+rng.Float64())
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				v = (u + 1) % n
			}
			b.MustAddEdge(ids[u], ids[v], 0.25+rng.Float64())
		}
		g := b.MustBuild()
		q := walk.SingleNode(ids[rng.Intn(n)])
		k := 3
		eps := 1e-9
		opt := Options{K: k, Epsilon: eps, Alpha: 0.25, Beta: 0.5, FExpansion: 5, TExpansion: 3}
		res, err := TopK(context.Background(), g, q, opt)
		if err != nil {
			return false
		}
		naive, exact, err := Naive(context.Background(), g, q, opt)
		if err != nil {
			return false
		}
		// Skip graphs with a near-tie at the K-th boundary or within the top K,
		// where the exact set is not uniquely determined at this slack.
		all := core.Rank(exact, nil)
		for i := 0; i+1 < len(all) && i < k+1; i++ {
			if all[i].Score-all[i+1].Score < 1e-7 {
				return true
			}
		}
		if len(res.TopK) != len(naive) {
			return false
		}
		for i := range naive {
			if res.TopK[i].Node != naive[i].Node {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestNearTiesConvergeAtEpsilonZero runs searches at ε = 0 on bidirected
// rings whose query's first out-edge is heavier by delta, so that the two
// sides of the ring score within about delta of each other. St covers a ring
// after a few rounds and Stage I moves its bounds no more; separating the
// near-tied nodes then takes bounds refined to refineTol, not to 10⁻⁴ of
// themselves, which TFlat.Expand runs once St has no border left. Every search
// must converge with the naive top-K.
func TestNearTiesConvergeAtEpsilonZero(t *testing.T) {
	for _, n := range []int{5, 8, 20} {
		for _, delta := range []float64{1e-5, 1e-8} {
			b := graph.NewBuilder()
			ids := make([]graph.NodeID, n)
			for i := range ids {
				ids[i] = b.AddNode(graph.Untyped, "r"+strconv.Itoa(i))
			}
			for i := range ids {
				b.MustAddEdge(ids[i], ids[(i+1)%n], 1)
				b.MustAddEdge(ids[(i+1)%n], ids[i], 1)
			}
			b.MustAddEdge(ids[0], ids[1], delta) // merged into the edge 0 → 1
			g := b.MustBuild()
			q := walk.SingleNode(ids[0])
			for _, k := range []int{2, n - 1} {
				opt := Options{K: k, Epsilon: 0, Alpha: 0.25, Beta: 0.5, Budget: &Budget{MaxRounds: 100}}
				res, err := TopK(context.Background(), g, q, opt)
				if err != nil {
					t.Fatalf("n=%d delta=%g K=%d: TopK: %v", n, delta, k, err)
				}
				if !res.Converged || res.CertifiedK != k {
					t.Errorf("n=%d delta=%g K=%d: stopped %v after %d rounds, certified %d", n, delta, k, res.Stop, res.Rounds, res.CertifiedK)
					continue
				}
				naive, _, err := Naive(context.Background(), g, q, opt)
				if err != nil {
					t.Fatalf("Naive: %v", err)
				}
				for i := range naive {
					if res.TopK[i].Node != naive[i].Node {
						t.Errorf("n=%d delta=%g K=%d: rank %d node %d, naive has %d", n, delta, k, i, res.TopK[i].Node, naive[i].Node)
					}
				}
			}
		}
	}
}

// TestKeepFilter verifies that the Keep option restricts the candidate set on
// both the online and the naive path and that the two agree at epsilon = 0
// (the paper's "find nodes of a target type" protocol).
func TestKeepFilter(t *testing.T) {
	toy := testgraphs.NewToy()
	keepVenue := func(v graph.NodeID) bool { return toy.Graph.Type(v) == testgraphs.TypeVenue }
	opt := Options{K: 3, Epsilon: 0, Alpha: 0.25, Beta: 0.5, Keep: keepVenue}

	res, err := TopK(context.Background(), toy.Graph, walk.SingleNode(toy.T1), opt)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	naive, _, err := Naive(context.Background(), toy.Graph, walk.SingleNode(toy.T1), opt)
	if err != nil {
		t.Fatalf("Naive: %v", err)
	}
	if len(res.TopK) != 3 || len(naive) != 3 {
		t.Fatalf("want 3 venues from both paths, got %d online, %d naive", len(res.TopK), len(naive))
	}
	for i := range naive {
		if res.TopK[i].Node != naive[i].Node {
			t.Errorf("rank %d: online %d != naive %d", i, res.TopK[i].Node, naive[i].Node)
		}
		if toy.Graph.Type(res.TopK[i].Node) != testgraphs.TypeVenue {
			t.Errorf("rank %d: node %d is not a venue", i, res.TopK[i].Node)
		}
	}
	if res.TopK[0].Node != toy.V2 {
		t.Errorf("top venue should be v2, got %d", res.TopK[0].Node)
	}
}

// TestTopKCancellation verifies that a cancelled context aborts the search
// before any expansion round runs.
func TestTopKCancellation(t *testing.T) {
	toy := testgraphs.NewToy()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TopK(ctx, toy.Graph, walk.SingleNode(toy.T1), DefaultOptions()); err != context.Canceled {
		t.Errorf("TopK with cancelled context: got %v, want context.Canceled", err)
	}
	if _, _, err := Naive(ctx, toy.Graph, walk.SingleNode(toy.T1), DefaultOptions()); err != context.Canceled {
		t.Errorf("Naive with cancelled context: got %v, want context.Canceled", err)
	}
}
