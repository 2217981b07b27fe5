package roundtriprank

// Benchmark harness: one benchmark per table/figure of the paper's evaluation
// (Sect. VI). Each benchmark runs a laptop-scale version of the corresponding
// experiment and reports its headline quantities via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the shape of every figure. cmd/benchrunner runs the same
// experiments at larger scale and prints the full tables.

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roundtriprank/internal/baselines"
	"roundtriprank/internal/core"
	"roundtriprank/internal/datasets"
	"roundtriprank/internal/eval"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/tasks"
	"roundtriprank/internal/testgraphs"
	"roundtriprank/internal/topk"
	"roundtriprank/internal/walk"
)

var (
	benchOnce   sync.Once
	benchBibNet *datasets.BibNet
	benchQLog   *datasets.QLog
	benchWalk   = walk.Params{Alpha: 0.25, Tol: 1e-8, MaxIter: 120}
)

const (
	benchScale      = 0.12
	benchQueries    = 24
	benchEffQueries = 6
)

func benchData(b *testing.B) (*datasets.BibNet, *datasets.QLog) {
	b.Helper()
	benchOnce.Do(func() {
		net, err := datasets.GenerateBibNet(datasets.ScaledBibNetConfig(benchScale))
		if err != nil {
			b.Fatalf("GenerateBibNet: %v", err)
		}
		qlog, err := datasets.GenerateQLog(datasets.ScaledQLogConfig(benchScale))
		if err != nil {
			b.Fatalf("GenerateQLog: %v", err)
		}
		benchBibNet, benchQLog = net, qlog
	})
	return benchBibNet, benchQLog
}

func benchInstances(b *testing.B, task tasks.Task, n int) (*graph.Graph, []tasks.Instance) {
	b.Helper()
	net, qlog := benchData(b)
	switch task {
	case tasks.TaskAuthor, tasks.TaskVenue:
		inst, err := tasks.SampleBibNet(net, task, n, 42+int64(task))
		if err != nil {
			b.Fatalf("SampleBibNet: %v", err)
		}
		return net.Graph, inst
	default:
		inst, err := tasks.SampleQLog(qlog, task, n, 42+int64(task))
		if err != nil {
			b.Fatalf("SampleQLog: %v", err)
		}
		return qlog.Graph, inst
	}
}

func reportTaskNDCG(b *testing.B, task tasks.Task, measures []baselines.Measure, n int) {
	g, inst := benchInstances(b, task, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.EvaluateTask(context.Background(), g, inst, measures, []int{5}, benchWalk, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range res {
				b.ReportMetric(r.MeanNDCG[5], "NDCG@5_"+sanitize(r.Name))
			}
		}
	}
}

func sanitize(name string) string {
	out := make([]rune, 0, len(name))
	for _, c := range name {
		switch {
		case c == ' ' || c == '/' || c == '+':
			out = append(out, '_')
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

// BenchmarkFig4Toy regenerates Fig. 4: the exact round-trip probabilities on
// the toy graph of Fig. 2 with constant L = L' = 2.
func BenchmarkFig4Toy(b *testing.B) {
	toy := testgraphs.NewToy()
	var probs []float64
	for i := 0; i < b.N; i++ {
		var err error
		probs, err = core.EnumerateRoundTrips(context.Background(), toy.Graph, toy.T1, 2, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(probs[toy.V1], "p_v1")
	b.ReportMetric(probs[toy.V2], "p_v2")
	b.ReportMetric(probs[toy.V3], "p_v3")
	b.ReportMetric(probs[toy.T1], "p_t1")
}

// monoMeasures are the Fig. 5 competitors.
func monoMeasures() []baselines.Measure {
	return []baselines.Measure{
		baselines.NewRoundTripRank(),
		baselines.NewFRank(),
		baselines.NewTRank(),
		baselines.NewSimRank(),
		baselines.NewAdamicAdar(),
	}
}

// dualMeasures are the Fig. 9 competitors (fixed trade-off baselines).
func dualMeasures(beta float64) []baselines.Measure {
	return []baselines.Measure{
		baselines.NewRoundTripRankPlus(beta),
		baselines.NewTCommute(10),
		baselines.NewObjSqrtInv(0.25),
		baselines.NewHarmonic(),
		baselines.NewArithmetic(),
	}
}

// BenchmarkFig5 regenerates Fig. 5 (one sub-benchmark per task): NDCG@5 of
// RoundTripRank against the mono-sensed baselines.
func BenchmarkFig5(b *testing.B) {
	for _, task := range tasks.AllTasks() {
		b.Run(sanitize(task.String()), func(b *testing.B) {
			reportTaskNDCG(b, task, monoMeasures(), benchQueries)
		})
	}
}

// BenchmarkFig6 and BenchmarkFig7 regenerate the illustrative venue rankings
// for the two topic queries; the reported metric is the rank position (1-based)
// of the topic's specific venue under RoundTripRank.
func BenchmarkFig6(b *testing.B) {
	benchIllustrative(b, "spatio temporal data", "Spatio-Temporal Databases")
}

// BenchmarkFig7 is the "semantic web" counterpart of Fig. 7.
func BenchmarkFig7(b *testing.B) {
	benchIllustrative(b, "semantic web", "International Semantic Web Conference")
}

func benchIllustrative(b *testing.B, topic, specificVenue string) {
	net, _ := benchData(b)
	terms := net.QueryTermsFor(topic)
	if len(terms) == 0 {
		b.Fatalf("unknown topic %q", topic)
	}
	var venues []string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		venues, err = eval.IllustrativeRanking(context.Background(), net.Graph, terms, baselines.NewRoundTripRank(), datasets.TypeVenue, 10, benchWalk)
		if err != nil {
			b.Fatal(err)
		}
	}
	rank := 0.0
	for i, v := range venues {
		if v == specificVenue {
			rank = float64(i + 1)
			break
		}
	}
	b.ReportMetric(rank, "specific_venue_rank")
}

// BenchmarkFig8 regenerates the specificity-bias sweep: NDCG@5 of
// RoundTripRank+ at β = 0, 0.5 and 1 per task. The paper's claim is that the
// extremes underperform the interior.
func BenchmarkFig8(b *testing.B) {
	betas := []float64{0, 0.25, 0.5, 0.75, 1}
	for _, task := range tasks.AllTasks() {
		b.Run(sanitize(task.String()), func(b *testing.B) {
			g, inst := benchInstances(b, task, benchQueries)
			var sweep map[float64]float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				sweep, err = eval.SweepBeta(context.Background(), g, inst, betas, 5, benchWalk)
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, beta := range betas {
				b.ReportMetric(sweep[beta], "NDCG@5_beta_"+sanitize(floatLabel(beta)))
			}
		})
	}
}

func floatLabel(f float64) string {
	switch f {
	case 0:
		return "0.00"
	case 0.25:
		return "0.25"
	case 0.5:
		return "0.50"
	case 0.75:
		return "0.75"
	case 1:
		return "1.00"
	default:
		return "x"
	}
}

// BenchmarkFig9 regenerates Fig. 9: RoundTripRank+ (balanced β, the default
// fallback) against the fixed dual-sensed baselines.
func BenchmarkFig9(b *testing.B) {
	for _, task := range tasks.AllTasks() {
		b.Run(sanitize(task.String()), func(b *testing.B) {
			reportTaskNDCG(b, task, dualMeasures(0.5), benchQueries)
		})
	}
}

// BenchmarkFig10 regenerates Fig. 10: RoundTripRank+ against the β-customized
// dual-sensed baselines (all tuned to the same β here, the benchmark-scale
// stand-in for per-family dev-query tuning done by cmd/benchrunner -fig 10).
func BenchmarkFig10(b *testing.B) {
	customized := func(beta float64) []baselines.Measure {
		return []baselines.Measure{
			baselines.NewRoundTripRankPlus(beta),
			baselines.NewTCommutePlus(10, beta),
			baselines.NewObjSqrtInvPlus(0.25, beta),
			baselines.NewHarmonicPlus(beta),
			baselines.NewArithmeticPlus(beta),
		}
	}
	for _, task := range tasks.AllTasks() {
		b.Run(sanitize(task.String()), func(b *testing.B) {
			reportTaskNDCG(b, task, customized(0.5), benchQueries)
		})
	}
}

// BenchmarkFig11a regenerates the query-time comparison of Fig. 11(a): Naive
// versus the four online schemes at slack ε = 0.01. The per-op time of each
// sub-benchmark is the figure's y-axis.
func BenchmarkFig11a(b *testing.B) {
	net, _ := benchData(b)
	g := net.Graph
	queries := benchEffQueryNodes(net)
	b.Run("Naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			if _, _, err := topk.Naive(context.Background(), g, walk.SingleNode(q), topk.Options{K: 10, Alpha: 0.25, Beta: 0.5}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, scheme := range []topk.Scheme{topk.Scheme2SBound, topk.SchemeGS, topk.SchemeGupta, topk.SchemeSarkar} {
		b.Run(sanitize(scheme.String()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				opt := topk.Options{K: 10, Epsilon: 0.01, Alpha: 0.25, Beta: 0.5, Scheme: scheme}
				if _, err := topk.TopK(context.Background(), g, walk.SingleNode(q), opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchEffQueryNodes(net *datasets.BibNet) []graph.NodeID {
	queries := make([]graph.NodeID, 0, benchEffQueries)
	for i := 0; i < benchEffQueries; i++ {
		queries = append(queries, net.Papers[(i*7919)%len(net.Papers)])
	}
	return queries
}

// BenchmarkFig11b regenerates the approximation-quality side of Fig. 11(b):
// NDCG, precision and Kendall's tau of 2SBound against the exact ranking at
// each slack.
func BenchmarkFig11b(b *testing.B) {
	net, _ := benchData(b)
	queries := benchEffQueryNodes(net)
	for _, eps := range []float64{0.01, 0.02, 0.03} {
		b.Run("eps="+floatEps(eps), func(b *testing.B) {
			var rows []eval.EfficiencyResult
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = eval.EvaluateEfficiency(context.Background(), net.Graph, eval.EfficiencyConfig{
					K: 10, Queries: queries, Epsilons: []float64{eps},
					Schemes: []topk.Scheme{topk.Scheme2SBound},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rows[0].NDCG, "NDCG")
			b.ReportMetric(rows[0].Precision, "precision")
			b.ReportMetric(rows[0].KendallTau, "kendall_tau")
			b.ReportMetric(rows[0].MeanTimeMS, "query_ms")
		})
	}
}

// BenchmarkFig12 regenerates the snapshot study of Fig. 12: active-set size
// and query time on five cumulative snapshots of each graph.
func BenchmarkFig12(b *testing.B) {
	net, qlog := benchData(b)
	run := func(b *testing.B, snaps []*graph.Subgraph) {
		var rows []eval.SnapshotResult
		for i := 0; i < b.N; i++ {
			var err error
			rows, err = eval.EvaluateScalability(context.Background(), snaps, []string{"t1", "t2", "t3", "t4", "t5"}, benchEffQueries, 0.01, 10, 7)
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.SnapshotBytes)/1024, "snapshot_kb_"+r.Label)
			b.ReportMetric(r.ActiveSetBytes/1024, "active_kb_"+r.Label)
			b.ReportMetric(r.QueryTimeMS, "query_ms_"+r.Label)
		}
	}
	b.Run("BibNet", func(b *testing.B) {
		snaps, err := net.Snapshots(5)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		run(b, snaps)
	})
	b.Run("QLog", func(b *testing.B) {
		snaps, err := qlog.Snapshots(5)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		run(b, snaps)
	})
}

// BenchmarkFig13 regenerates the rate-of-growth comparison of Fig. 13: the
// snapshot grows much faster than the active set and the query time.
func BenchmarkFig13(b *testing.B) {
	net, _ := benchData(b)
	snaps, err := net.Snapshots(5)
	if err != nil {
		b.Fatal(err)
	}
	var gr *eval.GrowthRates
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := eval.EvaluateScalability(context.Background(), snaps, nil, benchEffQueries, 0.01, 10, 7)
		if err != nil {
			b.Fatal(err)
		}
		gr, err = eval.ComputeGrowthRates(rows)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(gr.Snapshot) - 1
	b.ReportMetric(gr.Snapshot[last], "snapshot_growth")
	b.ReportMetric(gr.Active[last], "active_set_growth")
	b.ReportMetric(gr.Time[last], "query_time_growth")
}

func floatEps(e float64) string {
	switch e {
	case 0.01:
		return "0.01"
	case 0.02:
		return "0.02"
	case 0.03:
		return "0.03"
	default:
		return "x"
	}
}

// BenchmarkExactRoundTripRank measures the cost of one exact RoundTripRank
// computation (both solvers) on the benchmark BibNet, the unit of work the
// effectiveness experiments repeat per query and per measure.
func BenchmarkExactRoundTripRank(b *testing.B) {
	net, _ := benchData(b)
	q := walk.SingleNode(net.Papers[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compute(context.Background(), net.Graph, q, core.Params{Walk: benchWalk, Beta: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactSolveConcurrent runs four exact solves at once on the R-MAT
// 10^4 graph, the way a serving process does (core.Solve itself runs F ∥ T):
// gathers that share workers queue behind each other's chunks, and this is
// where the developer inner loop shows it (the spine's exact workloads run
// GOMAXPROCS clients).
func BenchmarkExactSolveConcurrent(b *testing.B) {
	cfg := datasets.DefaultRMATConfig(10_000)
	cfg.Seed = 42
	r, err := datasets.GenerateRMAT(cfg)
	if err != nil {
		b.Fatalf("GenerateRMAT: %v", err)
	}
	const solvers = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for s := 0; s < solvers; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				q := walk.SingleNode(graph.NodeID(s))
				if _, err := core.Compute(context.Background(), r.Graph, q, core.Params{Walk: benchWalk, Beta: 0.5}); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
}

// BenchmarkExactSolveMemory measures what exact solves hold while they run:
// core.Compute (both legs, on the hub node) over the bench spine's R-MAT 10^5,
// flat and graph.Pack of it, with one solve and with GOMAXPROCS solves at
// once. It reports the bytes allocated per solve (alloc-MB/solve) and the peak
// of the heap's object bytes above their level before the solves (peak-MB),
// read every 100 µs from runtime/metrics under a GC target of 10 %, so that
// the peak is what the solves hold rather than garbage awaiting collection. A
// packed solve decodes its support into arrays it holds until it returns, so
// its peak grows by that much with each solve running at once; a flat one
// holds its vectors alone.
func BenchmarkExactSolveMemory(b *testing.B) {
	cfg := datasets.DefaultRMATConfig(100_000)
	cfg.Seed = -42
	rmat, err := datasets.GenerateRMAT(cfg)
	if err != nil {
		b.Fatal(err)
	}
	_, hub := rmatTailAndHub(rmat.Graph)
	p := core.Params{Walk: walk.DefaultParams(), Beta: 0.5}
	for _, layout := range []struct {
		name string
		view graph.View
	}{{"flat", rmat.Graph}, {"packed", graph.Pack(rmat.Graph)}} {
		for _, solves := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("%s/solves=%d", layout.name, solves), func(b *testing.B) {
				defer debug.SetGCPercent(debug.SetGCPercent(10))
				runtime.GC()
				sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
				metrics.Read(sample)
				base, peak := sample[0].Value.Uint64(), uint64(0)
				stop, sampled := make(chan struct{}), make(chan struct{})
				go func() {
					defer close(sampled)
					tick := time.NewTicker(100 * time.Microsecond)
					defer tick.Stop()
					for {
						metrics.Read(sample)
						peak = max(peak, sample[0].Value.Uint64())
						select {
						case <-stop:
							return
						case <-tick.C:
						}
					}
				}()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					for range solves {
						wg.Add(1)
						go func() {
							defer wg.Done()
							if _, err := core.Compute(context.Background(), layout.view, walk.SingleNode(hub), p); err != nil {
								b.Error(err)
							}
						}()
					}
					wg.Wait()
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				close(stop)
				<-sampled
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/1e6/float64(b.N*solves), "alloc-MB/solve")
				b.ReportMetric(float64(peak-min(peak, base))/1e6, "peak-MB")
			})
		}
	}
}

// BenchmarkWalkKernels measures each iterative solver on the benchmark BibNet
// through the flat-array kernels, and F-Rank and T-Rank on the bench spine's
// R-MAT 10^5 for a tail and a hub query node, over its flat rows (the spine
// reports those solves as walk.frank_ms / walk.trank_ms of the rmat-exact
// workload) and over graph.Pack of them (walk.frank_packed_ms /
// walk.trank_packed_ms of rmat-packed). The R-MAT solves report the rows a
// gather reduces — the solve's support, about half the graph there — and the
// gathers a solve takes.
func BenchmarkWalkKernels(b *testing.B) {
	net, _ := benchData(b)
	cfg := datasets.DefaultRMATConfig(100_000)
	cfg.Seed = -42
	rmat, err := datasets.GenerateRMAT(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tail, hub := rmatTailAndHub(rmat.Graph)
	for _, layout := range []struct {
		name string
		view graph.View
	}{{"RMAT", rmat.Graph}, {"RMATPacked", graph.Pack(rmat.Graph)}} {
		for _, solver := range []struct {
			name  string
			solve func(context.Context, walk.Gatherer, walk.Query, walk.Params) ([]float64, walk.Bound, error)
		}{{"FRank", walk.FRankOver}, {"TRank", walk.TRankOver}} {
			for _, q := range []struct {
				name string
				node graph.NodeID
			}{{"tail", tail}, {"hub", hub}} {
				b.Run(layout.name+"/"+solver.name+"/"+q.name, func(b *testing.B) {
					p := walk.DefaultParams()
					counter := &rowCounter{Gatherer: walk.Local(layout.view, 0)}
					for i := 0; i < b.N; i++ {
						if _, _, err := solver.solve(context.Background(), counter, walk.SingleNode(q.node), p); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(counter.rows)/float64(counter.gathers), "rows/gather")
					b.ReportMetric(float64(counter.gathers)/float64(b.N), "gathers/op")
				})
			}
		}
	}
	q := walk.SingleNode(net.Papers[0])
	b.Run("FRank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := walk.FRank(context.Background(), net.Graph, q, benchWalk); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("TRank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := walk.TRank(context.Background(), net.Graph, q, benchWalk); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("GlobalPageRank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := walk.GlobalPageRank(context.Background(), net.Graph, 0.15, benchWalk.Tol, benchWalk.MaxIter); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// rmatTailAndHub returns the bench spine's two query kinds on g: the first
// tail node (in- and out-edges, total degree at most 16) and the hub, the
// node of highest total degree.
func rmatTailAndHub(g *graph.Graph) (tail, hub graph.NodeID) {
	tail, hub = graph.NoNode, 0
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		out, in := g.OutDegree(v), g.InCSR().Degree(v)
		if tail == graph.NoNode && out > 0 && in > 0 && out+in <= 16 {
			tail = v
		}
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	return tail, hub
}

// rowCounter is a walk.Gatherer that counts the gathers of its solves and the
// rows they reduce.
type rowCounter struct {
	walk.Gatherer
	gathers, rows int
}

func (c *rowCounter) Gather(ctx context.Context, dir graph.Dir, x, dst []float64, rows []graph.NodeID) error {
	c.count(rows, dst)
	return c.Gatherer.Gather(ctx, dir, x, dst, rows)
}

func (c *rowCounter) count(rows []graph.NodeID, dst []float64) {
	c.gathers++
	if rows == nil {
		c.rows += len(dst)
	} else {
		c.rows += len(rows)
	}
}

// BenchmarkRankBatch measures the engine's concurrent batch path with the
// vector cache: the same 8 query nodes ranked twice, so the second batch is
// answered entirely from cached single-node vectors.
func BenchmarkRankBatch(b *testing.B) {
	net, _ := benchData(b)
	engine, err := NewEngine(net.Graph)
	if err != nil {
		b.Fatal(err)
	}
	var reqs []Request
	for i := 0; i < 8; i++ {
		reqs = append(reqs, Request{
			Query:  SingleNode(net.Papers[(i*7919)%len(net.Papers)]),
			K:      10,
			Method: Exact,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.RankBatch(context.Background(), reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnline2SBound measures one online top-10 query with the default
// slack, the unit of work behind Fig. 11-13, on the pooled searcher over CSR
// arrays (the serving default).
func BenchmarkOnline2SBound(b *testing.B) {
	net, _ := benchData(b)
	queries := benchEffQueryNodes(net)
	opt := topk.Options{K: 10, Epsilon: 0.01, Alpha: 0.25, Beta: 0.5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, err := topk.TopK(context.Background(), net.Graph, walk.SingleNode(q), opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlineEngineRank measures the full serving path of one online
// query — request planning, the pooled 2SBound search, response assembly —
// through Engine.Rank, serially and with GOMAXPROCS goroutines sharing the
// engine (RunParallel).
func BenchmarkOnlineEngineRank(b *testing.B) {
	net, _ := benchData(b)
	engine, err := NewEngine(net.Graph)
	if err != nil {
		b.Fatal(err)
	}
	queries := benchEffQueryNodes(net)
	req := func(i int) Request {
		return Request{
			Query:   SingleNode(queries[i%len(queries)]),
			K:       10,
			Epsilon: 0.01,
			Method:  TwoSBound,
		}
	}
	b.Run("Serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Rank(context.Background(), req(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Parallel", func(b *testing.B) {
		b.ReportAllocs()
		var next atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(next.Add(1))
				if _, err := engine.Rank(context.Background(), req(i)); err != nil {
					// b.Fatal must not run on a RunParallel worker goroutine.
					b.Error(err)
					return
				}
			}
		})
	})
}
