package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"time"

	"roundtriprank"
	"roundtriprank/internal/cliutil"
	"roundtriprank/internal/core"
	"roundtriprank/internal/datasets"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/serve"
	"roundtriprank/internal/topk"
	"roundtriprank/internal/walk"
)

// The anytime figure is not a paper figure: it sweeps query budgets over
// R-MAT hub queries — the adversarial case for the online search, whose
// active neighborhoods grow every round — and records, per budget point, the
// latency distribution, the degraded fraction, recall@K against the exact
// answer, and the certificate sizes. Every certified prefix is verified
// against the exact top-K (position by position) before any number is
// reported, and every budgeted query is replayed once to prove the degraded
// path deterministic. The figure closes with the serving stack: a budgeted
// request and a deadline-bearing request through the real rtrankd handlers,
// both of which must come back 200 (the degraded result is an answer, not an
// error).

// anytimeK and anytimeEpsilon match the efficiency study (Fig. 11).
const (
	anytimeK       = 10
	anytimeEpsilon = 0.01
)

// anytimeTailGuardSlack is absolute slack for the p99 ≤ 2×p50 tail guard:
// on CI-sized graphs budgeted hub queries run in microseconds, where a single
// scheduler hiccup can double a latency without meaning anything. The guard
// only trips when the tail exceeds the ratio by more than this margin.
const anytimeTailGuardSlack = 2 * time.Millisecond

// anytimeBudgets is the sweep: a round-cap ladder, plus one combined point
// exercising every budget dimension at once (the touched-node cap is what
// actually clamps per-query work on large graphs, so the tail-latency guard
// is checked there).
func anytimeBudgets() []topk.Budget {
	return []topk.Budget{
		{MaxRounds: 5},
		{MaxRounds: 10},
		{MaxRounds: 20},
		{MaxRounds: 40},
		{MaxRounds: 80},
		{MaxRounds: 40, MaxTouched: 25_000, FrontierCap: 4096},
	}
}

// anytimeBudgetResult is one budget point of the sweep.
type anytimeBudgetResult struct {
	MaxRounds   int `json:"max_rounds"`
	MaxTouched  int `json:"max_touched,omitempty"`
	FrontierCap int `json:"frontier_cap,omitempty"`
	Queries     int `json:"queries"`
	Converged   int `json:"converged"`
	Degraded    int `json:"degraded"`
	// RecallAt10 is the mean |budgeted top-10 ∩ exact top-10| / 10.
	RecallAt10 float64 `json:"recall_at_10"`
	// CertifiedKMean is the mean certified-prefix length; every certified
	// position was verified identical to the exact top-K before reporting.
	CertifiedKMean     float64 `json:"certified_k_mean"`
	CertifiedChecked   int     `json:"certified_positions_checked"`
	MaxAchievedEpsilon float64 `json:"max_achieved_epsilon"`
	TouchedMean        float64 `json:"touched_mean"`
	QPS                float64 `json:"queries_per_sec"`
	P50Us              int64   `json:"p50_us"`
	P99Us              int64   `json:"p99_us"`
}

// anytimeServeResult is the serving-stack demo: both requests must be 200.
type anytimeServeResult struct {
	// Budgeted request: explicit {"budget":{"max_rounds":5}} on the top hub.
	BudgetStatus     int  `json:"budget_status"`
	BudgetDegraded   bool `json:"budget_degraded"`
	BudgetCertifiedK int  `json:"budget_certified_k"`
	BudgetResults    int  `json:"budget_results"`
	// Deadline request: an exact-guarantee (ε=0) query under the middleware's
	// request timeout, with the server's degrade margin armed. On a large
	// graph the deadline-derived soft stop fires and the response is a 200
	// with a certified partial result instead of a 504.
	DeadlineStatus     int  `json:"deadline_status"`
	DeadlineDegraded   bool `json:"deadline_degraded"`
	DeadlineConverged  bool `json:"deadline_converged"`
	DeadlineCertifiedK int  `json:"deadline_certified_k"`
	// DegradedMetric is the summed engine_query_degraded_total across methods
	// scraped from the stack's own /metrics after both requests.
	DegradedMetric float64 `json:"degraded_metric_total"`
}

// anytimeReport is the schema of BENCH_PR10.json.
type anytimeReport struct {
	GeneratedAt string                `json:"generated_at"`
	GoMaxProcs  int                   `json:"gomaxprocs"`
	Dataset     string                `json:"dataset"`
	Nodes       int                   `json:"nodes"`
	Edges       int                   `json:"edges"`
	EdgeFactor  int                   `json:"edge_factor"`
	Seed        int64                 `json:"seed"`
	K           int                   `json:"k"`
	Epsilon     float64               `json:"epsilon"`
	HubNodes    []graph.NodeID        `json:"hub_nodes"`
	ExactSecs   float64               `json:"exact_reference_seconds"`
	Budgets     []anytimeBudgetResult `json:"budgets"`
	// TailGuardRatio is p99/p50 of the combined budget point, which the
	// figure requires ≤ 2 (modulo the absolute CI-noise slack).
	TailGuardRatio float64            `json:"tail_guard_p99_over_p50"`
	Serve          anytimeServeResult `json:"serve"`
}

// anytime runs the budget sweep and writes BENCH_PR10.json.
func (r *runner) anytime(outPath string, nodes, queries, edgeFactor int) error {
	cfg := datasets.DefaultRMATConfig(nodes)
	cfg.Seed = r.seed
	cfg.EdgeFactor = edgeFactor
	rm, err := datasets.GenerateRMAT(cfg)
	if err != nil {
		return err
	}
	g := rm.Graph
	hubs := anytimeHubs(g, queries)
	if len(hubs) == 0 {
		return fmt.Errorf("anytime: no connected hub nodes in a %d-node graph", g.NumNodes())
	}
	fmt.Printf("Anytime R-MAT: %d nodes, %d edges, %d hub queries (top degree %d)\n",
		g.NumNodes(), g.NumEdges(), len(hubs), g.OutDegree(hubs[0])+g.InDegree(hubs[0]))

	report := anytimeReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Dataset:     "rmat",
		Nodes:       g.NumNodes(),
		Edges:       g.NumEdges(),
		EdgeFactor:  edgeFactor,
		Seed:        r.seed,
		K:           anytimeK,
		Epsilon:     anytimeEpsilon,
		HubNodes:    hubs,
	}

	// Exact reference rankings, one per hub. The exact solve is
	// rank-equivalent to the online search's squared-scale bounds, so prefix
	// and recall comparisons go by node identity.
	wp := walk.Params{Alpha: 0.25, Tol: 1e-8, MaxIter: 150}
	exact := make([][]core.Ranked, len(hubs))
	start := time.Now()
	for i, v := range hubs {
		sc, err := core.Compute(r.ctx, g, walk.SingleNode(v), core.Params{Walk: wp, Beta: 0.5})
		if err != nil {
			return fmt.Errorf("exact reference for hub %d: %w", v, err)
		}
		exact[i] = core.TopN(sc.R, anytimeK, nil)
	}
	report.ExactSecs = time.Since(start).Seconds()
	fmt.Printf("  exact reference: %d queries in %.2fs\n", len(hubs), report.ExactSecs)

	for _, b := range anytimeBudgets() {
		b := b
		row, err := r.anytimeBudgetPass(g, hubs, exact, &b)
		if err != nil {
			return err
		}
		report.Budgets = append(report.Budgets, *row)
		fmt.Printf("  budget rounds=%-3d touched=%-6d cap=%-5d  %2d/%d degraded  recall@10 %.3f  certK %.1f  p50 %6dµs p99 %6dµs\n",
			b.MaxRounds, b.MaxTouched, b.FrontierCap, row.Degraded, row.Queries,
			row.RecallAt10, row.CertifiedKMean, row.P50Us, row.P99Us)
	}

	// Tail guard on the combined point (the last budget row): the whole point
	// of a budget is a bounded tail, so p99 must stay within 2× the median.
	guard := report.Budgets[len(report.Budgets)-1]
	if guard.P50Us > 0 {
		report.TailGuardRatio = float64(guard.P99Us) / float64(guard.P50Us)
	}
	if report.TailGuardRatio > 2 && guard.P99Us-2*guard.P50Us > anytimeTailGuardSlack.Microseconds() {
		return fmt.Errorf("tail guard: budgeted p99 %dµs exceeds 2× median %dµs (ratio %.2f)",
			guard.P99Us, guard.P50Us, report.TailGuardRatio)
	}
	fmt.Printf("  tail guard (combined budget): p99/p50 = %.2f (limit 2.00 + noise slack)\n", report.TailGuardRatio)

	sv, err := r.anytimeServe(g, hubs[0])
	if err != nil {
		return err
	}
	report.Serve = *sv

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

// anytimeHubs returns the n highest-degree connected nodes (degree desc,
// node asc — deterministic for a fixed graph).
func anytimeHubs(g *graph.Graph, n int) []graph.NodeID {
	type hub struct {
		node graph.NodeID
		deg  int
	}
	hubs := make([]hub, 0, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		out, in := g.OutDegree(id), g.InDegree(id)
		if out > 0 && in > 0 {
			hubs = append(hubs, hub{node: id, deg: out + in})
		}
	}
	sort.Slice(hubs, func(i, j int) bool {
		if hubs[i].deg != hubs[j].deg {
			return hubs[i].deg > hubs[j].deg
		}
		return hubs[i].node < hubs[j].node
	})
	if len(hubs) > n {
		hubs = hubs[:n]
	}
	out := make([]graph.NodeID, len(hubs))
	for i, h := range hubs {
		out[i] = h.node
	}
	return out
}

// anytimeBudgetPass runs every hub query under one budget, verifies the
// certificate and the degraded path's determinism, and aggregates the row.
func (r *runner) anytimeBudgetPass(g *graph.Graph, hubs []graph.NodeID, exact [][]core.Ranked, b *topk.Budget) (*anytimeBudgetResult, error) {
	row := &anytimeBudgetResult{
		MaxRounds:   b.MaxRounds,
		MaxTouched:  b.MaxTouched,
		FrontierCap: b.FrontierCap,
		Queries:     len(hubs),
	}
	opt := topk.Options{
		K: anytimeK, Epsilon: anytimeEpsilon, Alpha: 0.25, Beta: 0.5,
		Scheme: topk.Scheme2SBound, Budget: b,
	}
	// Warm the scratch pool before timing.
	if _, err := topk.TopK(r.ctx, g, walk.SingleNode(hubs[0]), opt); err != nil {
		return nil, err
	}
	lats := make([]time.Duration, 0, len(hubs))
	var recallSum, certSum, touchedSum float64
	start := time.Now()
	for i, v := range hubs {
		t0 := time.Now()
		out, err := topk.TopK(r.ctx, g, walk.SingleNode(v), opt)
		if err != nil {
			return nil, fmt.Errorf("budget rounds=%d hub %d: %w", b.MaxRounds, v, err)
		}
		lats = append(lats, time.Since(t0))
		if out.Converged {
			row.Converged++
		}
		if out.Degraded {
			row.Degraded++
		}
		// Certificate soundness: every certified position must hold exactly
		// the node the exact solve ranks there.
		if out.CertifiedK > len(exact[i]) {
			return nil, fmt.Errorf("hub %d: certified %d positions but exact has %d", v, out.CertifiedK, len(exact[i]))
		}
		for j := 0; j < out.CertifiedK; j++ {
			if out.TopK[j].Node != exact[i][j].Node {
				return nil, fmt.Errorf("hub %d: certified position %d holds node %d, exact holds %d",
					v, j, out.TopK[j].Node, exact[i][j].Node)
			}
		}
		row.CertifiedChecked += out.CertifiedK
		certSum += float64(out.CertifiedK)
		recallSum += recallAtK(out.TopK, exact[i], anytimeK)
		touchedSum += float64(out.FSeen + out.TSeen)
		if out.AchievedEpsilon > row.MaxAchievedEpsilon {
			row.MaxAchievedEpsilon = out.AchievedEpsilon
		}
		// Determinism: the degraded path must replay bit-identically.
		if i == 0 {
			again, err := topk.TopK(r.ctx, g, walk.SingleNode(v), opt)
			if err != nil {
				return nil, err
			}
			if err := sameTopK(out, again); err != nil {
				return nil, fmt.Errorf("budget rounds=%d hub %d not deterministic: %w", b.MaxRounds, v, err)
			}
		}
	}
	row.QPS = float64(len(hubs)) / time.Since(start).Seconds()
	row.RecallAt10 = recallSum / float64(len(hubs))
	row.CertifiedKMean = certSum / float64(len(hubs))
	row.TouchedMean = touchedSum / float64(len(hubs))
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	row.P50Us = lats[len(lats)/2].Microseconds()
	row.P99Us = lats[len(lats)*99/100].Microseconds()
	return row, nil
}

// recallAtK is |got[:k] ∩ want[:k]| / min(k, len(want)) by node identity.
func recallAtK(got []core.Ranked, want []core.Ranked, k int) float64 {
	if len(want) > k {
		want = want[:k]
	}
	if len(want) == 0 {
		return 1
	}
	wantSet := make(map[graph.NodeID]bool, len(want))
	for _, w := range want {
		wantSet[w.Node] = true
	}
	hit := 0
	for i, g := range got {
		if i >= k {
			break
		}
		if wantSet[g.Node] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// anytimeServe boots the real serving stack (handlers + middleware) with the
// degrade margin armed and replays the two anytime request shapes: an
// explicitly budgeted query and an exact-guarantee query racing the request
// timeout. Both must return 200 — degraded results are answers, not errors.
func (r *runner) anytimeServe(g *graph.Graph, hub graph.NodeID) (*anytimeServeResult, error) {
	metrics := serve.NewMetrics()
	engine, err := roundtriprank.NewEngine(g, roundtriprank.WithQueryStatsHook(metrics.RecordQuery))
	if err != nil {
		return nil, err
	}
	s := serve.New(engine, metrics, serve.Config{DegradeMargin: 50 * time.Millisecond})
	srv := httptest.NewServer(cliutil.WrapHTTP(s.Handler(), metrics.Registry(), cliutil.HTTPOptions{
		Routes: serve.Routes(),
		Exempt: serve.ExemptRoutes(),
		// Wide enough that the explicitly budgeted request below stops on its
		// own rounds budget (not the deadline-derived one) even on a 10^5-node
		// hub, yet still short enough to truncate the ε=0 exact demand.
		RequestTimeout: 5 * time.Second,
	}))
	defer srv.Close()

	res := &anytimeServeResult{}
	post := func(body string) (int, serveRankView, error) {
		resp, err := http.Post(srv.URL+"/rank", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			return 0, serveRankView{}, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, serveRankView{}, err
		}
		var v serveRankView
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(raw, &v); err != nil {
				return 0, serveRankView{}, err
			}
		}
		return resp.StatusCode, v, nil
	}

	status, v, err := post(fmt.Sprintf(
		`{"nodes":[%d],"k":%d,"method":"2sbound","budget":{"max_rounds":5}}`, hub, anytimeK))
	if err != nil {
		return nil, err
	}
	res.BudgetStatus, res.BudgetDegraded = status, v.Degraded
	res.BudgetCertifiedK, res.BudgetResults = v.CertifiedK, len(v.Results)
	if status != http.StatusOK {
		return nil, fmt.Errorf("budgeted /rank returned %d, want 200", status)
	}
	if v.CertifiedK > len(v.Results) {
		return nil, fmt.Errorf("budgeted /rank certified %d of %d results", v.CertifiedK, len(v.Results))
	}

	// ε=0 demands the exact guarantee, so the hub query refines long enough
	// for the request timeout to matter on any non-toy graph; the 50ms
	// degrade margin converts the overrun into a 200 with a certificate.
	status, v, err = post(fmt.Sprintf(
		`{"nodes":[%d],"k":%d,"method":"2sbound","epsilon":0}`, hub, anytimeK))
	if err != nil {
		return nil, err
	}
	res.DeadlineStatus, res.DeadlineDegraded = status, v.Degraded
	res.DeadlineConverged, res.DeadlineCertifiedK = v.Converged, v.CertifiedK
	if status != http.StatusOK {
		return nil, fmt.Errorf("deadline-racing /rank returned %d, want 200 (degraded or converged)", status)
	}
	if !v.Degraded && !v.Converged {
		return nil, fmt.Errorf("deadline-racing /rank neither converged nor degraded")
	}

	res.DegradedMetric, err = scrapeDegradedTotal(srv.URL)
	if err != nil {
		return nil, err
	}
	if v.Degraded && res.DegradedMetric == 0 {
		return nil, fmt.Errorf("degraded response served but engine_query_degraded_total is 0")
	}
	fmt.Printf("  serve: budgeted %d (degraded=%v certK=%d/%d), deadline %d (degraded=%v), degraded_total=%g\n",
		res.BudgetStatus, res.BudgetDegraded, res.BudgetCertifiedK, res.BudgetResults,
		res.DeadlineStatus, res.DeadlineDegraded, res.DegradedMetric)
	return res, nil
}

// serveRankView is the subset of the wire response the anytime figure reads.
type serveRankView struct {
	Results    []json.RawMessage `json:"results"`
	Converged  bool              `json:"converged"`
	Degraded   bool              `json:"degraded"`
	CertifiedK int               `json:"certified_k"`
}

// scrapeDegradedTotal sums engine_query_degraded_total across methods from
// the stack's /metrics exposition.
func scrapeDegradedTotal(baseURL string) (float64, error) {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("rtrank_engine_query_degraded_total")) {
			continue
		}
		fields := bytes.Fields(line)
		if len(fields) != 2 {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(string(fields[1]), "%g", &v); err == nil {
			total += v
		}
	}
	return total, nil
}
