package roundtriprank

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"roundtriprank/internal/datasets"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/topk"
	"roundtriprank/internal/walk"
)

// Budget parity suite: the anytime contract's determinism clause. A rounds-
// or touched-capped budget must produce the same degraded result AND the
// same certificate — bit for bit — on every execution path: flat local,
// packed CSR, remote row-serving, and remote with a fleet member dead.

// budgetSweep is the budget grid the parity tests drive: a starved round
// cap, a mid one, a touched-capped point and a frontier-capped point.
func budgetSweep() []Budget {
	return []Budget{
		{MaxRounds: 1},
		{MaxRounds: 3},
		{MaxRounds: 5, MaxTouched: 200},
		{MaxRounds: 4, FrontierCap: 2},
	}
}

// requireSameCertificate extends requireBitIdentical to the anytime fields:
// degradation flags, certified prefix length and achieved epsilon must agree
// exactly (the epsilon bitwise — it is computed from the same bounds).
func requireSameCertificate(t *testing.T, label string, got, want *Response) {
	t.Helper()
	if got.Converged != want.Converged || got.Degraded != want.Degraded {
		t.Fatalf("%s: converged/degraded %v/%v, want %v/%v",
			label, got.Converged, got.Degraded, want.Converged, want.Degraded)
	}
	if got.CertifiedK != want.CertifiedK ||
		math.Float64bits(got.AchievedEpsilon) != math.Float64bits(want.AchievedEpsilon) {
		t.Fatalf("%s: certificate %d/%g, want %d/%g (not bit-identical)",
			label, got.CertifiedK, got.AchievedEpsilon, want.CertifiedK, want.AchievedEpsilon)
	}
	requireBitIdentical(t, label, got, want)
}

// TestPackedBudgetParity runs the budget sweep at eps=0 through a flat and a
// packed engine and requires identical degraded results and certificates.
// Budgeted queries are cheap by construction, so unlike the eps=0
// convergence tests this sweeps every R-MAT query in every mode.
func TestPackedBudgetParity(t *testing.T) {
	ctx := context.Background()
	degraded := 0
	for _, pg := range packedParityGraphs(t) {
		flat, err := NewEngine(pg.graph)
		if err != nil {
			t.Fatalf("%s: NewEngine(flat): %v", pg.name, err)
		}
		packed, err := NewEngine(graph.Pack(pg.graph))
		if err != nil {
			t.Fatalf("%s: NewEngine(packed): %v", pg.name, err)
		}
		for _, q := range pg.queries {
			for bi, b := range budgetSweep() {
				b := b
				req := Request{Query: SingleNode(q), K: 10, Epsilon: 0, Method: TwoSBound, Budget: &b}
				want, err := flat.Rank(ctx, req)
				if err != nil {
					t.Fatalf("%s q%d budget %d: flat: %v", pg.name, q, bi, err)
				}
				got, err := packed.Rank(ctx, req)
				if err != nil {
					t.Fatalf("%s q%d budget %d: packed: %v", pg.name, q, bi, err)
				}
				requireSameCertificate(t, fmt.Sprintf("%s/q%d/budget%d", pg.name, q, bi), got, want)
				if want.Degraded {
					degraded++
				}
				if want.CertifiedK > len(want.Results) {
					t.Fatalf("%s q%d budget %d: CertifiedK %d > %d results",
						pg.name, q, bi, want.CertifiedK, len(want.Results))
				}
			}
		}
	}
	if degraded == 0 {
		t.Errorf("no budget in the sweep degraded any query; the parity claim is vacuous")
	}
}

// TestRemoteBudgetParity pins the same determinism across the wire: a
// budgeted 2sbound-remote answer — result, certificate, and degradation
// flags — matches the budgeted local search bit for bit, and its network
// footprint stays within the budgeted searcher's touched set.
func TestRemoteBudgetParity(t *testing.T) {
	ctx := context.Background()
	for _, pg := range parityGraphs() {
		engine, err := NewEngine(pg.graph, WithWorkers(httpWorkerCluster(t, pg.graph, 2)...))
		if err != nil {
			t.Fatalf("%s: NewEngine: %v", pg.name, err)
		}
		for _, q := range pg.queries {
			for bi, b := range budgetSweep() {
				b := b
				t.Run(fmt.Sprintf("%s/q%d/budget%d", pg.name, q, bi), func(t *testing.T) {
					req := Request{Query: SingleNode(q), K: 10, Epsilon: 0, Budget: &b}
					req.Method = TwoSBound
					local, err := engine.Rank(ctx, req)
					if err != nil {
						t.Fatalf("local: %v", err)
					}
					req.Method = TwoSBoundRemote
					remote, err := engine.Rank(ctx, req)
					if err != nil {
						t.Fatalf("remote: %v", err)
					}
					requireSameCertificate(t, "remote-vs-local", remote, local)
					if remote.Rows == nil {
						t.Fatalf("remote response carries no row stats")
					}
					// O(touched) holds under a budget too: the cap truncates
					// the working set, and the remote path must not prefetch
					// rows the truncated searcher never reads.
					res, err := topk.TopK(ctx, pg.graph, walk.SingleNode(q), topk.Options{
						K: 10, Epsilon: 0, Alpha: 0.25, Beta: 0.5, Scheme: topk.Scheme2SBound, Budget: &b,
					})
					if err != nil {
						t.Fatalf("budgeted local flat search: %v", err)
					}
					if remote.Rows.Fetched > int64(res.Touched) {
						t.Errorf("fetched %d rows, budgeted searcher touches only %d", remote.Rows.Fetched, res.Touched)
					}
				})
			}
		}
	}
}

// TestChaosBudgetedRemoteParity kills a fleet member and requires the
// budgeted remote answer served through the surviving replicas to stay
// bit-identical to the budgeted local baseline — the degraded path must not
// get a second kind of degraded under failover.
func TestChaosBudgetedRemoteParity(t *testing.T) {
	ctx := context.Background()
	pg := parityGraphs()[2] // cycle: every query's walk crosses all stripes
	m, workers := chaosFleetCluster(t, pg.graph, 3)
	base, err := NewEngine(pg.graph, WithFleet(m))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	q := pg.queries[0]
	for bi, b := range budgetSweep() {
		b := b
		t.Run(fmt.Sprintf("budget%d", bi), func(t *testing.T) {
			req := Request{Query: SingleNode(q), K: 10, Epsilon: 0, Budget: &b}
			req.Method = TwoSBound
			local, err := base.Rank(ctx, req)
			if err != nil {
				t.Fatalf("local baseline: %v", err)
			}
			workers[bi%len(workers)].Kill()
			defer restartWorker(t, workers[bi%len(workers)])
			// A fresh engine keeps the row cache cold so the budgeted query
			// actually crosses the network with the member down.
			engine, err := NewEngine(pg.graph, WithFleet(m))
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			req.Method = TwoSBoundRemote
			remote, err := engine.Rank(ctx, req)
			if err != nil {
				t.Fatalf("budgeted remote with a member dead: %v", err)
			}
			requireSameCertificate(t, "chaos-budgeted", remote, local)
		})
	}
}

// TestBudgetValidation pins the request-level contract: negative budget
// fields are a ValidationError, not silent clamping.
func TestBudgetValidation(t *testing.T) {
	toy := parityGraphs()[0]
	engine, err := NewEngine(toy.graph)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for _, b := range []Budget{
		{MaxRounds: -1},
		{MaxTouched: -5},
		{FrontierCap: -2},
		{FlushMargin: -time.Second},
	} {
		b := b
		_, err := engine.Rank(context.Background(), Request{
			Query: SingleNode(toy.queries[0]), K: 3, Method: TwoSBound, Budget: &b,
		})
		var verr *ValidationError
		if !errors.As(err, &verr) {
			t.Errorf("budget %+v: got %v, want ValidationError", b, err)
		}
	}
}

// TestDeadlineDerivedBudgetDegrades pins the serve-layer contract at the
// engine boundary: a context deadline closer than the flush margin converts
// into a soft stop after the first round — the query returns a certified
// partial result instead of running into the deadline and erroring.
func TestDeadlineDerivedBudgetDegrades(t *testing.T) {
	// The cycle's antipodes tie exactly, so at eps=0 the search can never
	// converge in one round — the stop is deterministically the derived
	// deadline, not convergence racing it.
	pg := parityGraphs()[2]
	engine, err := NewEngine(pg.graph)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	resp, err := engine.Rank(ctx, Request{
		Query: SingleNode(pg.queries[0]), K: 10, Epsilon: 0, Method: TwoSBound,
		Budget: &Budget{FlushMargin: 2 * time.Minute},
	})
	if err != nil {
		t.Fatalf("deadline-derived budget must degrade, not error: %v", err)
	}
	if !resp.Degraded || resp.Converged {
		t.Errorf("degraded=%v converged=%v, want degraded partial result", resp.Degraded, resp.Converged)
	}
	if len(resp.Results) == 0 {
		t.Errorf("degraded response carries no best-effort results")
	}
	if resp.CertifiedK > len(resp.Results) {
		t.Errorf("CertifiedK %d > %d results", resp.CertifiedK, len(resp.Results))
	}
}

// TestBudgetKeepCertificate pins how a budget, a result filter and the
// certificate meet. Nodes the filter rejects still carry mass through the
// expansions but never enter the candidate ranking, so what a budgeted,
// filtered search certifies must be a prefix of the exact filtered ranking —
// node for node, at every round cap — and a larger cap can only help: the
// certified prefix never shrinks and the achieved ε never grows. Sixty paper
// queries ranked over authors and venues, ε = 0, one to eight rounds.
func TestBudgetKeepCertificate(t *testing.T) {
	net, err := datasets.GenerateBibNet(datasets.ScaledBibNetConfig(0.12))
	if err != nil {
		t.Fatalf("GenerateBibNet: %v", err)
	}
	engine, err := NewEngine(net.Graph)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ctx := context.Background()
	filter := &Filter{Types: []NodeType{datasets.TypeAuthor, datasets.TypeVenue}, ExcludeQuery: true}
	const queries, maxRounds = 60, 8
	certified := 0
	for i := 0; i < queries; i++ {
		q := net.Papers[i*len(net.Papers)/queries]
		req := Request{Query: SingleNode(q), K: 10, Filter: filter, Method: Exact}
		exact, err := engine.Rank(ctx, req)
		if err != nil {
			t.Fatalf("q%d: exact: %v", q, err)
		}
		req.Method = TwoSBound
		prevK, prevEps := 0, math.Inf(1)
		for rounds := 1; rounds <= maxRounds; rounds++ {
			req.Budget = &Budget{MaxRounds: rounds}
			resp, err := engine.Rank(ctx, req)
			if err != nil {
				t.Fatalf("q%d, %d rounds: %v", q, rounds, err)
			}
			if resp.CertifiedK > len(resp.Results) || resp.CertifiedK > len(exact.Results) {
				t.Fatalf("q%d, %d rounds: CertifiedK %d of %d results, the exact ranking has %d",
					q, rounds, resp.CertifiedK, len(resp.Results), len(exact.Results))
			}
			for pos := 0; pos < resp.CertifiedK; pos++ {
				if resp.Results[pos].Node != exact.Results[pos].Node {
					t.Errorf("q%d, %d rounds: certified position %d holds node %d, the exact filtered ranking node %d",
						q, rounds, pos, resp.Results[pos].Node, exact.Results[pos].Node)
				}
			}
			if resp.CertifiedK < prevK || resp.AchievedEpsilon > prevEps {
				t.Errorf("q%d: %d rounds certify %d at ε %g, one fewer certified %d at ε %g",
					q, rounds, resp.CertifiedK, resp.AchievedEpsilon, prevK, prevEps)
			}
			prevK, prevEps = resp.CertifiedK, resp.AchievedEpsilon
		}
		certified += prevK
	}
	if certified == 0 {
		t.Errorf("no query certified anything within %d rounds; the prefix claim is vacuous", maxRounds)
	}
}
