package topk

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"roundtriprank/internal/core"
	"roundtriprank/internal/datasets"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/scratch"
	"roundtriprank/internal/testgraphs"
	"roundtriprank/internal/walk"
)

// Anytime-budget suite: the quality certificate must be sound under ANY
// budget, not just the ones the benchmarks sweep. The budget is the fuzzed
// input here — the graphs are the fixed golden set plus one 10^4-node R-MAT
// instance — because certification soundness is a property of where the
// search is cut, and a randomized budget cuts it everywhere.

// budgetCase is one (graph, query) instance the budget fuzzer runs over.
type budgetCase struct {
	name   string
	g      *graph.Graph
	q      graph.NodeID
	k      int
	rounds int // fuzzed MaxRounds upper bound
	trials int
}

func budgetCases(t testing.TB) []budgetCase {
	t.Helper()
	var cases []budgetCase
	for _, gc := range goldenCases() {
		cases = append(cases, budgetCase{gc.name, gc.g, gc.q, 5, 25, 40})
	}
	trials := 8
	if scratch.RaceEnabled {
		trials = 3
	}
	cfg := datasets.DefaultRMATConfig(10_000)
	cfg.Seed = 1309
	r, err := datasets.GenerateRMAT(cfg)
	if err != nil {
		t.Fatalf("GenerateRMAT: %v", err)
	}
	for v := graph.NodeID(0); v < graph.NodeID(r.Graph.NumNodes()); v++ {
		if r.Graph.OutDegree(v) > 0 && r.Graph.InCSR().Degree(v) > 0 {
			cases = append(cases, budgetCase{"rmat-10k", r.Graph, v, 10, 10, trials})
			break
		}
	}
	return cases
}

// fuzzBudget draws one budget from the seeded stream: always a round cap,
// sometimes a touched cap, sometimes a frontier cap — the combinations the
// serving layer actually produces.
func fuzzBudget(rng *rand.Rand, maxRounds int) Budget {
	b := Budget{MaxRounds: 1 + rng.Intn(maxRounds)}
	if rng.Intn(2) == 0 {
		b.MaxTouched = 10 + rng.Intn(3000)
	}
	if rng.Intn(5) < 2 {
		b.FrontierCap = []int{1, 2, 3, 8, 64, 1024}[rng.Intn(6)]
	}
	return b
}

// checkCertificate asserts the anytime contract on one result: the certified
// prefix is within the returned ranking, each certified position carries the
// node the exact reference ranks there, and the residual epsilon is coherent
// with the stop reason.
func checkCertificate(t *testing.T, label string, res *Result, opt Options, naive []core.Ranked) {
	t.Helper()
	if res.CertifiedK < 0 || res.CertifiedK > len(res.TopK) {
		t.Fatalf("%s: CertifiedK %d outside [0, %d]", label, res.CertifiedK, len(res.TopK))
	}
	for j := 0; j < res.CertifiedK; j++ {
		if res.TopK[j].Node != naive[j].Node {
			t.Fatalf("%s: certified position %d holds node %d, exact ranking has %d",
				label, j, res.TopK[j].Node, naive[j].Node)
		}
	}
	if res.AchievedEpsilon < 0 {
		t.Fatalf("%s: negative achieved epsilon %g", label, res.AchievedEpsilon)
	}
	switch {
	case res.Converged:
		if res.Stop != StopConverged || res.Degraded {
			t.Fatalf("%s: converged result with stop=%s degraded=%v", label, res.Stop, res.Degraded)
		}
		if !(res.AchievedEpsilon < opt.Epsilon) {
			t.Fatalf("%s: converged but achieved epsilon %g ≥ requested %g",
				label, res.AchievedEpsilon, opt.Epsilon)
		}
	case res.Degraded:
		if res.Stop == StopConverged || res.Stop == StopExhausted || res.Stop == StopNone {
			t.Fatalf("%s: degraded result with stop=%s", label, res.Stop)
		}
	default:
		if res.Stop != StopExhausted {
			t.Fatalf("%s: neither converged nor degraded, stop=%s", label, res.Stop)
		}
	}
}

// TestBudgetCertifiedPrefixSound is the certification soundness property
// test: on every golden graph and the R-MAT instance, under seeded-random
// budgets, the certified prefix of the (possibly heavily truncated) anytime
// result is node-identical to the exact ranking's prefix, and a replay of
// the same budget is bit-identical.
func TestBudgetCertifiedPrefixSound(t *testing.T) {
	ctx := context.Background()
	for ci, bc := range budgetCases(t) {
		naive, _, err := Naive(ctx, bc.g, walk.SingleNode(bc.q), Options{K: bc.g.NumNodes(), Alpha: 0.25, Beta: 0.5})
		if err != nil {
			t.Fatalf("%s: Naive: %v", bc.name, err)
		}
		rng := rand.New(rand.NewSource(1309 + int64(ci)))
		opt := Options{K: bc.k, Epsilon: 0.01, Alpha: 0.25, Beta: 0.5}
		for trial := 0; trial < bc.trials; trial++ {
			b := fuzzBudget(rng, bc.rounds)
			opt.Budget = &b
			flat, err := TopK(ctx, bc.g, walk.SingleNode(bc.q), opt)
			if err != nil {
				t.Fatalf("%s trial %d (%+v): flat TopK: %v", bc.name, trial, b, err)
			}
			checkCertificate(t, bc.name+"/flat", flat, opt, naive)
			if b.MaxRounds > 0 && flat.Rounds > b.MaxRounds {
				t.Fatalf("%s trial %d: ran %d rounds past cap %d", bc.name, trial, flat.Rounds, b.MaxRounds)
			}

			// Determinism: the same budget replays bit-identically on the
			// pooled path — the property the cross-representation parity
			// suites build on.
			again, err := TopK(ctx, bc.g, walk.SingleNode(bc.q), opt)
			if err != nil {
				t.Fatalf("%s trial %d: replay: %v", bc.name, trial, err)
			}
			if again.Stop != flat.Stop || again.Rounds != flat.Rounds ||
				again.CertifiedK != flat.CertifiedK ||
				math.Float64bits(again.AchievedEpsilon) != math.Float64bits(flat.AchievedEpsilon) ||
				len(again.TopK) != len(flat.TopK) {
				t.Fatalf("%s trial %d (%+v): replay diverged: %+v vs %+v", bc.name, trial, b, again, flat)
			}
			for i := range flat.TopK {
				if again.TopK[i].Node != flat.TopK[i].Node ||
					math.Float64bits(again.TopK[i].Score) != math.Float64bits(flat.TopK[i].Score) {
					t.Fatalf("%s trial %d rank %d: replay not bit-identical", bc.name, trial, i)
				}
			}
		}
	}
}

// TestCertificateAtDeadEnds pins a certificate whose soundness rests on the
// walk model: every layer must end a walk at a node without out-edges (here
// 1, 3 and 8). When BCA restarted such a walk at the query while Stage II and
// T-Rank ended it, this search certified [4, 5, 7]; the exact order is
// [4, 7, 5].
func TestCertificateAtDeadEnds(t *testing.T) {
	b := graph.NewBuilder()
	for i := 0; i < 9; i++ {
		b.AddNode(graph.Untyped, fmt.Sprintf("n%d", i))
	}
	for _, e := range [][2]graph.NodeID{{7, 8}, {0, 7}, {0, 8}, {0, 1}, {5, 7}, {2, 6}, {7, 0}, {4, 8}, {6, 8}, {0, 2}, {7, 2}, {7, 4}, {4, 5}} {
		b.MustAddEdge(e[0], e[1], 1)
	}
	g := b.MustBuild()
	q := walk.SingleNode(4)
	naive, _, err := Naive(context.Background(), g, q, Options{K: g.NumNodes(), Alpha: 0.25, Beta: 0.5})
	if err != nil {
		t.Fatalf("Naive: %v", err)
	}
	opt := Options{K: 5, Alpha: 0.25, Beta: 0.5, FExpansion: 2, TExpansion: 2, Budget: &Budget{MaxRounds: 5}}
	res, err := TopK(context.Background(), g, q, opt)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	checkCertificate(t, "dead ends", res, opt, naive)
}

// TestBudgetStopReasons pins each stop reason's observable contract on the
// toy graph with the narrow expansions TestTopKMaxRoundsCap uses (so one
// round never converges).
func TestBudgetStopReasons(t *testing.T) {
	toy := testgraphs.NewToy()
	q := walk.SingleNode(toy.T1)
	base := Options{K: 5, Epsilon: 0, Alpha: 0.25, Beta: 0.5, FExpansion: 1, TExpansion: 1}

	t.Run("rounds", func(t *testing.T) {
		opt := base
		opt.Budget = &Budget{MaxRounds: 1}
		res, err := TopK(context.Background(), toy.Graph, q, opt)
		if err != nil {
			t.Fatalf("TopK: %v", err)
		}
		if res.Stop != StopRounds || !res.Degraded || res.Converged || res.Rounds != 1 {
			t.Errorf("stop=%s degraded=%v converged=%v rounds=%d, want rounds/true/false/1",
				res.Stop, res.Degraded, res.Converged, res.Rounds)
		}
	})

	t.Run("touched", func(t *testing.T) {
		opt := base
		opt.Budget = &Budget{MaxTouched: 2}
		res, err := TopK(context.Background(), toy.Graph, q, opt)
		if err != nil {
			t.Fatalf("TopK: %v", err)
		}
		if res.Stop != StopTouched || !res.Degraded {
			t.Errorf("stop=%s degraded=%v, want touched/true", res.Stop, res.Degraded)
		}
		if res.FSeen+res.TSeen < 2 {
			t.Errorf("stopped on touched with |Sf|+|St| = %d < cap", res.FSeen+res.TSeen)
		}
	})

	t.Run("deadline", func(t *testing.T) {
		// A margin wider than the time left puts the soft stop in the past.
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		defer cancel()
		opt := base
		opt.Budget = &Budget{FlushMargin: 2 * time.Hour}
		res, err := TopK(ctx, toy.Graph, q, opt)
		if err != nil {
			t.Fatalf("TopK: %v", err)
		}
		if res.Stop != StopDeadline || !res.Degraded {
			t.Errorf("stop=%s degraded=%v, want deadline/true", res.Stop, res.Degraded)
		}
		if res.Rounds != 1 {
			t.Errorf("rounds = %d, want exactly 1 (at least one round always runs; the deadline is checked between rounds)", res.Rounds)
		}
		// Without a deadline on the context the margin stops nothing.
		opt.Budget.MaxRounds = 3
		res, err = TopK(context.Background(), toy.Graph, q, opt)
		if err != nil {
			t.Fatalf("TopK: %v", err)
		}
		if res.Stop != StopRounds || res.Rounds != 3 {
			t.Errorf("no deadline: stop=%s after %d rounds, want rounds after 3", res.Stop, res.Rounds)
		}
	})

	t.Run("canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		opt := base
		opt.Budget = &Budget{MaxRounds: 100}
		res, err := TopK(ctx, toy.Graph, q, opt)
		if err != nil {
			t.Fatalf("budgeted TopK under cancellation must finalize, got error: %v", err)
		}
		if res.Stop != StopCanceled || !res.Degraded || res.Rounds != 0 {
			t.Errorf("stop=%s degraded=%v rounds=%d, want canceled/true/0", res.Stop, res.Degraded, res.Rounds)
		}
		if res.CertifiedK != 0 {
			t.Errorf("certified %d positions with no round run", res.CertifiedK)
		}
	})

	t.Run("converged-not-degraded", func(t *testing.T) {
		opt := Options{K: 3, Epsilon: 0.01, Alpha: 0.25, Beta: 0.5, Budget: &Budget{MaxRounds: 500}}
		res, err := TopK(context.Background(), toy.Graph, q, opt)
		if err != nil {
			t.Fatalf("TopK: %v", err)
		}
		if !res.Converged || res.Degraded || res.Stop != StopConverged {
			t.Errorf("loose budget must not degrade a converging query: stop=%s degraded=%v", res.Stop, res.Degraded)
		}
		if res.CertifiedK > len(res.TopK) {
			t.Errorf("CertifiedK %d > %d results", res.CertifiedK, len(res.TopK))
		}
	})
}

// TestBudgetFrontierCapStaysSound pins the deferred-admission rule: with a
// frontier cap of one T-admission per round, the search needs more rounds but
// every certificate it emits along the way stays sound. St grows by at most one
// node a round beyond the query, also when the node T admits is one BCA
// touched first and so already a member of the index the two sides share: an
// admission is a node's first T slot, not its first touch.
func TestBudgetFrontierCapStaysSound(t *testing.T) {
	toy := testgraphs.NewToy()
	q := walk.SingleNode(toy.T1)
	naive, _, err := Naive(context.Background(), toy.Graph, q, Options{K: toy.Graph.NumNodes(), Alpha: 0.25, Beta: 0.5})
	if err != nil {
		t.Fatalf("Naive: %v", err)
	}
	for rounds := 1; rounds <= 30; rounds++ {
		opt := Options{K: 5, Epsilon: 0.01, Alpha: 0.25, Beta: 0.5,
			Budget: &Budget{MaxRounds: rounds, FrontierCap: 1}}
		res, err := TopK(context.Background(), toy.Graph, q, opt)
		if err != nil {
			t.Fatalf("rounds=%d: %v", rounds, err)
		}
		checkCertificate(t, "capped", res, opt, naive)
		if res.TSeen > 1+res.Rounds {
			t.Errorf("rounds=%d: |St| = %d after %d rounds of one admission each", rounds, res.TSeen, res.Rounds)
		}
		if res.Converged {
			return // cap slowed it down but the search still got there
		}
	}
	t.Errorf("frontier-capped search never converged within 30 rounds on the toy graph")
}
