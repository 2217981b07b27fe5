// Command benchrunner regenerates every table and figure of the paper's
// evaluation section (Sect. VI) on the synthetic datasets:
//
//	Fig. 4        toy-graph round-trip probabilities
//	Fig. 5        RoundTripRank vs mono-sensed baselines (NDCG@K, Tasks 1–4)
//	Fig. 6, 7     illustrative venue rankings for two topic queries
//	Fig. 8        effect of the specificity bias β
//	Fig. 9        RoundTripRank+ vs dual-sensed baselines
//	Fig. 10       RoundTripRank+ vs customized (β-tuned) dual-sensed baselines
//	Fig. 11a/11b  query time and approximation quality of 2SBound vs baselines
//	Fig. 12       active-set size and query time on growing snapshots
//	Fig. 13       rate of growth of snapshot, active set and query time
//
// Select one experiment with -fig (e.g. -fig 5) or run everything with
// -fig all. Scale and query counts default to values sized for a laptop; the
// paper-scale settings are -scale 1.0 -queries 1000.
//
// -fig remote compares the online 2SBound path local vs remote: the same
// queries through Engine.Rank against the in-process CSR and against a
// 2-worker HTTP fleet via the row-serving path (TwoSBoundRemote), on a cold
// and a warm row cache. It records rows fetched, row-fetch RPCs, the cache
// hit rate and qps/p50 per pass, and writes the report to -remote-out
// (default BENCH_PR6.json). -online-scale and -eff-queries size it.
//
// -fig scale is the million-node sweep: synthetic R-MAT graphs at 10^4, 10^5
// and 10^6 nodes (10^7 when -scale-max allows it), recording generator build
// time, resident bytes/edge flat vs packed CSR, exact-solve time per
// representation, and online 2SBound qps/p50/p99 per representation, written
// to -scale-out (default BENCH_PR9.json). It aborts unless every exact vector
// and online response is bit-identical across representations and the packed
// footprint stays ≤70% of flat. It is excluded from -fig all — the sweep is
// sized in minutes, not laptop-default seconds; run it explicitly.
//
// -fig anytime is the budget-vs-quality sweep behind the anytime execution
// layer: R-MAT hub queries (the online search's adversarial case) under a
// ladder of query budgets, recording recall@10 against the exact answer, the
// degraded fraction, certificate sizes and the latency distribution per
// budget point, written to -anytime-out (default BENCH_PR10.json). Every
// certified prefix is verified against the exact top-K and every budgeted
// query is replayed to prove determinism; the figure fails if the combined
// budget point's p99 exceeds 2× its median, and it finishes by driving the
// real serving stack: a budgeted request and a deadline-racing ε=0 request,
// both of which must return 200. Like -fig scale it is excluded from
// -fig all (the default -anytime-nodes builds a 10^5-node graph); the CI
// smoke runs it with small -anytime-nodes / -anytime-queries.
//
// -fig overload drives the real rtrankd serving stack (internal/serve plus
// the cliutil middleware) past its admission limit: one pass with the gate
// off, one with a small -overload-inflight cap under many concurrent HTTP
// clients. It verifies every shed response is a 429 bearing Retry-After,
// checks the gate keeps the admitted tail latency bounded, scrapes the
// stack's own /metrics for the shed counter, and writes the report to
// -overload-out (default BENCH_PR7.json). -online-scale and -eff-queries
// size it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"roundtriprank"
	"roundtriprank/internal/baselines"
	"roundtriprank/internal/core"
	"roundtriprank/internal/datasets"
	"roundtriprank/internal/distributed"
	"roundtriprank/internal/eval"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/tasks"
	"roundtriprank/internal/testgraphs"
	"roundtriprank/internal/walk"
)

type runner struct {
	ctx        context.Context
	scale      float64
	queries    int
	devQueries int
	effScale   float64
	effQueries int
	seed       int64

	bibnet *datasets.BibNet
	qlog   *datasets.QLog
	wp     walk.Params
}

func main() {
	var (
		fig         = flag.String("fig", "all", "figure to regenerate: 4,5,6,7,8,9,10,11a,11b,12,13, remote, overload, chaos, scale, anytime, or all (scale and anytime run only when named)")
		scale       = flag.Float64("scale", 0.5, "effectiveness dataset scale (1.0 = paper-subgraph scale)")
		queries     = flag.Int("queries", 120, "test queries per task (paper: 1000)")
		devQueries  = flag.Int("dev-queries", 60, "development queries per task for beta tuning (paper: 1000)")
		effScale    = flag.Float64("eff-scale", 1.0, "efficiency dataset scale (Fig. 11-13)")
		effQueries  = flag.Int("eff-queries", 15, "queries per setting for the efficiency study (paper: 1000)")
		seed        = flag.Int64("seed", 42, "random seed for query sampling")
		onlineScale = flag.Float64("online-scale", onlineBenchScale, "BibNet scale of -fig remote, overload and chaos (default matches go test -bench Online)")
		remoteOut   = flag.String("remote-out", "BENCH_PR6.json", "output file of -fig remote")
		overloadOut = flag.String("overload-out", "BENCH_PR7.json", "output file of -fig overload")
		overloadCap = flag.Int("overload-inflight", 2, "admission limit of the gated -fig overload pass")
		chaosOut    = flag.String("chaos-out", "BENCH_PR8.json", "output file of -fig chaos")
		scaleOut    = flag.String("scale-out", "BENCH_PR9.json", "output file of -fig scale")
		scaleMax    = flag.Int("scale-max", 1_000_000, "largest node count of the -fig scale sweep (10^7 points need ≥ 10000000)")
		scaleQs     = flag.Int("scale-queries", 16, "online queries per size and representation in -fig scale")
		scaleEF     = flag.Int("scale-edgefactor", 8, "directed edge draws per node of the -fig scale R-MAT graphs")
		anytimeOut  = flag.String("anytime-out", "BENCH_PR10.json", "output file of -fig anytime")
		anytimeN    = flag.Int("anytime-nodes", 100_000, "R-MAT node count of the -fig anytime budget sweep")
		anytimeQs   = flag.Int("anytime-queries", 8, "hub queries per budget point in -fig anytime")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	r := &runner{
		ctx:   ctx,
		scale: *scale, queries: *queries, devQueries: *devQueries,
		effScale: *effScale, effQueries: *effQueries, seed: *seed,
		wp: walk.Params{Alpha: 0.25, Tol: 1e-8, MaxIter: 150},
	}
	want := strings.ToLower(*fig)
	run := func(name string, fn func() error) {
		if want != "all" && want != name {
			return
		}
		// The scale and anytime sweeps run only when named: at their default
		// sizes they build 10^6- and 10^5-node graphs, which have no place in
		// -fig all.
		if (name == "scale" || name == "anytime") && want != name {
			return
		}
		start := time.Now()
		fmt.Printf("==== Figure %s ====\n", name)
		if err := fn(); err != nil {
			log.Fatalf("figure %s: %v", name, err)
		}
		fmt.Printf("(figure %s done in %s)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("remote", func() error { return r.remote(*remoteOut, *onlineScale) })
	run("overload", func() error { return r.overload(*overloadOut, *onlineScale, *overloadCap) })
	run("chaos", func() error { return r.chaosFig(*chaosOut, *onlineScale) })
	run("scale", func() error { return r.scaleFig(*scaleOut, *scaleMax, *scaleQs, *scaleEF) })
	run("anytime", func() error { return r.anytime(*anytimeOut, *anytimeN, *anytimeQs, *scaleEF) })
	run("4", r.fig4)
	run("5", r.fig5)
	run("6", func() error { return r.illustrative("spatio temporal data") })
	run("7", func() error { return r.illustrative("semantic web") })
	run("8", r.fig8)
	run("9", r.fig9)
	run("10", r.fig10)
	run("11a", r.fig11)
	run("11b", r.fig11)
	run("12", r.fig12and13)
	run("13", r.fig12and13)
}

func (r *runner) bibNet() (*datasets.BibNet, error) {
	if r.bibnet == nil {
		net, err := datasets.GenerateBibNet(datasets.ScaledBibNetConfig(r.scale))
		if err != nil {
			return nil, err
		}
		r.bibnet = net
		fmt.Printf("BibNet: %d nodes, %d edges\n", net.Graph.NumNodes(), net.Graph.NumEdges())
	}
	return r.bibnet, nil
}

func (r *runner) qLog() (*datasets.QLog, error) {
	if r.qlog == nil {
		q, err := datasets.GenerateQLog(datasets.ScaledQLogConfig(r.scale))
		if err != nil {
			return nil, err
		}
		r.qlog = q
		fmt.Printf("QLog: %d nodes, %d edges\n", q.Graph.NumNodes(), q.Graph.NumEdges())
	}
	return r.qlog, nil
}

func (r *runner) fig4() error {
	toy := testgraphs.NewToy()
	probs, err := core.EnumerateRoundTrips(r.ctx, toy.Graph, toy.T1, 2, 2)
	if err != nil {
		return err
	}
	fmt.Println("Round-trip probabilities from t1 with constant L = L' = 2 (paper: v1=0.05, v2=0.1, v3=0.05, t1=0.25):")
	fmt.Printf("  v1=%.4f v2=%.4f v3=%.4f t1=%.4f\n", probs[toy.V1], probs[toy.V2], probs[toy.V3], probs[toy.T1])
	return nil
}

// sampleAll returns test instances for all four tasks.
func (r *runner) sampleAll(n int, seedOffset int64) (map[tasks.Task][]tasks.Instance, error) {
	net, err := r.bibNet()
	if err != nil {
		return nil, err
	}
	qlog, err := r.qLog()
	if err != nil {
		return nil, err
	}
	out := make(map[tasks.Task][]tasks.Instance, 4)
	for _, task := range tasks.BibNetTasks() {
		inst, err := tasks.SampleBibNet(net, task, n, r.seed+seedOffset+int64(task))
		if err != nil {
			return nil, err
		}
		out[task] = inst
	}
	for _, task := range tasks.QLogTasks() {
		inst, err := tasks.SampleQLog(qlog, task, n, r.seed+seedOffset+int64(task))
		if err != nil {
			return nil, err
		}
		out[task] = inst
	}
	return out, nil
}

func (r *runner) graphFor(task tasks.Task) *graph.Graph {
	switch task {
	case tasks.TaskAuthor, tasks.TaskVenue:
		return r.bibnet.Graph
	default:
		return r.qlog.Graph
	}
}

func (r *runner) runMeasureTable(title string, measuresFor func(task tasks.Task) []baselines.Measure) error {
	instances, err := r.sampleAll(r.queries, 0)
	if err != nil {
		return err
	}
	taskLabels := []string{}
	results := map[string][]eval.MeasureResult{}
	for _, task := range tasks.AllTasks() {
		res, err := eval.EvaluateTask(r.ctx, r.graphFor(task), instances[task], measuresFor(task), eval.KValues, r.wp, nil)
		if err != nil {
			return err
		}
		taskLabels = append(taskLabels, task.String())
		results[task.String()] = res
	}
	fmt.Print(eval.RenderNDCGTable(title, taskLabels, results, eval.KValues))
	// Significance of the proposed measure (row 0) over the best baseline.
	for _, task := range tasks.AllTasks() {
		res := results[task.String()]
		if len(res) < 2 {
			continue
		}
		bestBaseline, bestScore := 1, -1.0
		for i := 1; i < len(res); i++ {
			if res[i].MeanNDCG[5] > bestScore {
				bestBaseline, bestScore = i, res[i].MeanNDCG[5]
			}
		}
		if p, err := eval.SignificanceP(res[0], res[bestBaseline], 5); err == nil {
			fmt.Printf("  %s: %s vs runner-up %s at NDCG@5, paired t-test p = %.4f\n",
				task, res[0].Name, res[bestBaseline].Name, p)
		}
	}
	return nil
}

func (r *runner) fig5() error {
	return r.runMeasureTable("Fig. 5 — RoundTripRank vs mono-sensed baselines (NDCG@K)",
		func(tasks.Task) []baselines.Measure {
			return []baselines.Measure{
				baselines.NewRoundTripRank(),
				baselines.NewFRank(),
				baselines.NewTRank(),
				baselines.NewSimRank(),
				baselines.NewAdamicAdar(),
			}
		})
}

func (r *runner) tunedBetas() (map[tasks.Task]float64, error) {
	dev, err := r.sampleAll(r.devQueries, 10_000)
	if err != nil {
		return nil, err
	}
	out := make(map[tasks.Task]float64, 4)
	for _, task := range tasks.AllTasks() {
		beta, err := eval.TuneBeta(r.ctx, r.graphFor(task), dev[task], eval.DefaultBetaGrid(), 5, r.wp)
		if err != nil {
			return nil, err
		}
		out[task] = beta
	}
	return out, nil
}

func (r *runner) fig8() error {
	instances, err := r.sampleAll(r.queries, 0)
	if err != nil {
		return err
	}
	for _, task := range tasks.AllTasks() {
		sweep, err := eval.SweepBeta(r.ctx, r.graphFor(task), instances[task], eval.DefaultBetaGrid(), 5, r.wp)
		if err != nil {
			return err
		}
		fmt.Print(eval.RenderBetaSweep(task.String(), sweep))
	}
	return nil
}

func (r *runner) fig9() error {
	betas, err := r.tunedBetas()
	if err != nil {
		return err
	}
	fmt.Printf("Tuned specificity biases: ")
	for _, task := range tasks.AllTasks() {
		fmt.Printf("%s beta*=%.1f  ", task, betas[task])
	}
	fmt.Println()
	return r.runMeasureTable("Fig. 9 — RoundTripRank+ vs dual-sensed baselines (NDCG@K)",
		func(task tasks.Task) []baselines.Measure {
			return []baselines.Measure{
				baselines.NewRoundTripRankPlus(betas[task]),
				baselines.NewTCommute(10),
				baselines.NewObjSqrtInv(0.25),
				baselines.NewHarmonic(),
				baselines.NewArithmetic(),
			}
		})
}

func (r *runner) fig10() error {
	// Customized baselines: tune beta per task for every dual-sensed measure
	// on development queries, then compare on the test queries (NDCG@5).
	dev, err := r.sampleAll(r.devQueries, 10_000)
	if err != nil {
		return err
	}
	test, err := r.sampleAll(r.queries, 0)
	if err != nil {
		return err
	}
	families := []struct {
		name string
		make func(beta float64) baselines.Measure
	}{
		{"RoundTripRank+", func(b float64) baselines.Measure { return baselines.NewRoundTripRankPlus(b) }},
		{"TCommute+", func(b float64) baselines.Measure { return baselines.NewTCommutePlus(10, b) }},
		{"ObjSqrtInv+", func(b float64) baselines.Measure { return baselines.NewObjSqrtInvPlus(0.25, b) }},
		{"Harmonic+", func(b float64) baselines.Measure { return baselines.NewHarmonicPlus(b) }},
		{"Arithmetic+", func(b float64) baselines.Measure { return baselines.NewArithmeticPlus(b) }},
	}
	grid := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
	fmt.Println("Fig. 10 — customized dual-sensed baselines, NDCG@5 per task")
	fmt.Printf("%-16s", "Measure")
	for _, task := range tasks.AllTasks() {
		fmt.Printf(" %10s", strings.Split(task.String(), " (")[0])
	}
	fmt.Printf(" %10s\n", "Average")
	for _, fam := range families {
		fmt.Printf("%-16s", fam.name)
		sum := 0.0
		for _, task := range tasks.AllTasks() {
			// Tune beta on dev queries for this family and task.
			bestBeta, bestScore := 0.5, -1.0
			for _, b := range grid {
				res, err := eval.EvaluateTask(r.ctx, r.graphFor(task), dev[task],
					[]baselines.Measure{fam.make(b)}, []int{5}, r.wp, nil)
				if err != nil {
					return err
				}
				if res[0].MeanNDCG[5] > bestScore {
					bestBeta, bestScore = b, res[0].MeanNDCG[5]
				}
			}
			res, err := eval.EvaluateTask(r.ctx, r.graphFor(task), test[task],
				[]baselines.Measure{fam.make(bestBeta)}, []int{5}, r.wp, nil)
			if err != nil {
				return err
			}
			score := res[0].MeanNDCG[5]
			sum += score
			fmt.Printf(" %10.4f", score)
		}
		fmt.Printf(" %10.4f\n", sum/float64(len(tasks.AllTasks())))
	}
	return nil
}

func (r *runner) illustrative(topic string) error {
	net, err := r.bibNet()
	if err != nil {
		return err
	}
	terms := net.QueryTermsFor(topic)
	measures := []baselines.Measure{baselines.NewFRank(), baselines.NewTRank(), baselines.NewRoundTripRank()}
	columns := map[string][]string{}
	var order []string
	for _, m := range measures {
		venues, err := eval.IllustrativeRanking(r.ctx, net.Graph, terms, m, datasets.TypeVenue, 5, r.wp)
		if err != nil {
			return err
		}
		columns[m.Name()] = venues
		order = append(order, m.Name())
	}
	fmt.Print(eval.RenderIllustrative(topic, columns, order))
	return nil
}

func (r *runner) efficiencyGraph() (*datasets.BibNet, error) {
	return datasets.GenerateBibNet(datasets.ScaledBibNetConfig(r.effScale))
}

func (r *runner) fig11() error {
	net, err := r.efficiencyGraph()
	if err != nil {
		return err
	}
	fmt.Printf("Efficiency graph: %d nodes, %d edges\n", net.Graph.NumNodes(), net.Graph.NumEdges())
	queries := make([]graph.NodeID, 0, r.effQueries)
	for i := 0; i < r.effQueries; i++ {
		queries = append(queries, net.Papers[(i*7919)%len(net.Papers)])
	}
	rows, err := eval.EvaluateEfficiency(r.ctx, net.Graph, eval.EfficiencyConfig{
		K:            10,
		Queries:      queries,
		Epsilons:     []float64{0.01, 0.02, 0.03},
		IncludeNaive: true,
	})
	if err != nil {
		return err
	}
	fmt.Println("Fig. 11(a)/(b) — query time and approximation quality by scheme and slack")
	fmt.Print(eval.RenderEfficiencyTable(rows))
	return nil
}

// onlineBenchScale matches benchScale in bench_test.go, so the JSON numbers
// are comparable with `go test -bench Online`.
const onlineBenchScale = 0.12

// remotePassResult is one pass of the remote-vs-local comparison: the same
// query set through one engine path, with its latency distribution and (on
// the remote path) its row-serving footprint.
type remotePassResult struct {
	Pass    string  `json:"pass"` // "local", "remote-cold" or "remote-warm"
	Queries int     `json:"queries"`
	QPS     float64 `json:"queries_per_sec"`
	P50Us   int64   `json:"p50_us"`
	// Row-serving footprint of the pass, zero on the local pass.
	RowsFetched int64 `json:"rows_fetched,omitempty"`
	RowRPCs     int64 `json:"row_rpcs,omitempty"`
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
}

// remoteReport is the schema of BENCH_PR6.json.
type remoteReport struct {
	GeneratedAt string             `json:"generated_at"`
	GoMaxProcs  int                `json:"gomaxprocs"`
	Dataset     string             `json:"dataset"`
	Scale       float64            `json:"scale"`
	Nodes       int                `json:"nodes"`
	Edges       int                `json:"edges"`
	K           int                `json:"k"`
	Epsilon     float64            `json:"epsilon"`
	Workers     int                `json:"workers"`
	Passes      []remotePassResult `json:"passes"`
	// WarmHitRate is cache hits / probes of the warm pass: the fraction of
	// row reads the second identical query sweep answered without any RPC.
	WarmHitRate float64 `json:"warm_cache_hit_rate"`
	CachedRows  int     `json:"cached_rows"`
	// SlowdownCold and SlowdownWarm are the remote p50 over the local p50.
	SlowdownCold float64 `json:"remote_p50_over_local_cold"`
	SlowdownWarm float64 `json:"remote_p50_over_local_warm"`
}

// remote compares the online 2SBound hot path local vs remote: one engine
// ranking against the in-process CSR, one against a 2-worker HTTP fleet
// through the row-serving path, over the same queries. The remote sweep runs
// twice — cold row cache, then warm — and every remote response is checked
// bit-identical to the local one before any number is reported.
func (r *runner) remote(outPath string, scale float64) error {
	net, err := datasets.GenerateBibNet(datasets.ScaledBibNetConfig(scale))
	if err != nil {
		return err
	}
	g := net.Graph
	const workers = 2
	ts := make([]roundtriprank.Transport, workers)
	for i := 0; i < workers; i++ {
		s, err := distributed.BuildStripe(g, i, workers)
		if err != nil {
			return err
		}
		srv := httptest.NewServer(distributed.NewWorker(s).Handler())
		defer srv.Close()
		ts[i] = roundtriprank.DialWorker(srv.URL)
	}
	local, err := roundtriprank.NewEngine(g)
	if err != nil {
		return err
	}
	remote, err := roundtriprank.NewEngine(g, roundtriprank.WithWorkers(ts...))
	if err != nil {
		return err
	}
	fmt.Printf("Remote benchmark BibNet: %d nodes, %d edges, %d HTTP workers\n",
		g.NumNodes(), g.NumEdges(), workers)
	queries := make([]graph.NodeID, 0, r.effQueries)
	for i := 0; i < r.effQueries; i++ {
		queries = append(queries, net.Papers[(i*7919)%len(net.Papers)])
	}
	const k, eps = 10, 0.01

	pass := func(name string, e *roundtriprank.Engine, m roundtriprank.Method) (remotePassResult, []*roundtriprank.Response, error) {
		res := remotePassResult{Pass: name, Queries: len(queries)}
		lats := make([]time.Duration, 0, len(queries))
		resps := make([]*roundtriprank.Response, 0, len(queries))
		start := time.Now()
		for _, q := range queries {
			t0 := time.Now()
			resp, err := e.Rank(r.ctx, roundtriprank.Request{
				Query: walk.SingleNode(q), K: k, Epsilon: eps, Method: m,
			})
			if err != nil {
				return res, nil, fmt.Errorf("%s pass, query %d: %w", name, q, err)
			}
			lats = append(lats, time.Since(t0))
			resps = append(resps, resp)
			if resp.Rows != nil {
				res.RowsFetched += resp.Rows.Fetched
				res.RowRPCs += resp.Rows.RPCs
				res.CacheHits += resp.Rows.CacheHits
				res.CacheMisses += resp.Rows.CacheMisses
			}
		}
		res.QPS = float64(len(queries)) / time.Since(start).Seconds()
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		res.P50Us = lats[len(lats)/2].Microseconds()
		return res, resps, nil
	}

	localPass, localResps, err := pass("local", local, roundtriprank.TwoSBound)
	if err != nil {
		return err
	}
	coldPass, coldResps, err := pass("remote-cold", remote, roundtriprank.TwoSBoundRemote)
	if err != nil {
		return err
	}
	warmPass, warmResps, err := pass("remote-warm", remote, roundtriprank.TwoSBoundRemote)
	if err != nil {
		return err
	}
	// The comparison is only meaningful if the remote path is exact: every
	// response, both passes, must match the local one bit for bit.
	for qi := range localResps {
		for _, remoteResps := range [][]*roundtriprank.Response{coldResps, warmResps} {
			want, got := localResps[qi], remoteResps[qi]
			if len(got.Results) != len(want.Results) {
				return fmt.Errorf("query %d: remote returned %d results, local %d", qi, len(got.Results), len(want.Results))
			}
			for i := range want.Results {
				if got.Results[i] != want.Results[i] {
					return fmt.Errorf("query %d rank %d: remote %+v, local %+v (not bit-identical)",
						qi, i, got.Results[i], want.Results[i])
				}
			}
		}
	}

	st := remote.RowServeStats()
	report := remoteReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Dataset:     "bibnet",
		Scale:       scale,
		Nodes:       g.NumNodes(),
		Edges:       g.NumEdges(),
		K:           k,
		Epsilon:     eps,
		Workers:     workers,
		Passes:      []remotePassResult{localPass, coldPass, warmPass},
		CachedRows:  st.CachedRows,
	}
	if probes := warmPass.CacheHits + warmPass.CacheMisses; probes > 0 {
		report.WarmHitRate = float64(warmPass.CacheHits) / float64(probes)
	}
	if localPass.P50Us > 0 {
		report.SlowdownCold = float64(coldPass.P50Us) / float64(localPass.P50Us)
		report.SlowdownWarm = float64(warmPass.P50Us) / float64(localPass.P50Us)
	}
	for _, p := range report.Passes {
		fmt.Printf("  %-12s %4d queries  %8.1f q/s  p50 %7d µs  rows %6d  rpcs %5d  hits %6d  misses %6d\n",
			p.Pass, p.Queries, p.QPS, p.P50Us, p.RowsFetched, p.RowRPCs, p.CacheHits, p.CacheMisses)
	}
	fmt.Printf("  warm cache hit rate %.3f, %d rows cached, remote/local p50: cold %.2fx warm %.2fx\n",
		report.WarmHitRate, report.CachedRows, report.SlowdownCold, report.SlowdownWarm)

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

func (r *runner) fig12and13() error {
	for _, ds := range []string{"BibNet", "QLog"} {
		var snaps []*graph.Subgraph
		var err error
		if ds == "BibNet" {
			net, gerr := r.efficiencyGraph()
			if gerr != nil {
				return gerr
			}
			snaps, err = net.Snapshots(5)
		} else {
			qlog, gerr := datasets.GenerateQLog(datasets.ScaledQLogConfig(r.effScale))
			if gerr != nil {
				return gerr
			}
			snaps, err = qlog.Snapshots(5)
		}
		if err != nil {
			return err
		}
		labels := []string{"t1", "t2", "t3", "t4", "t5"}
		rows, err := eval.EvaluateScalability(r.ctx, snaps, labels, r.effQueries, 0.01, 10, r.seed)
		if err != nil {
			return err
		}
		fmt.Print(eval.RenderSnapshotTable(ds, rows))
		gr, err := eval.ComputeGrowthRates(rows)
		if err != nil {
			return err
		}
		fmt.Print(eval.RenderGrowthRates(ds, gr))
		fmt.Println()
	}
	return nil
}
