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
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"roundtriprank/internal/baselines"
	"roundtriprank/internal/core"
	"roundtriprank/internal/datasets"
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
	r := &runner{wp: walk.Params{Alpha: 0.25, Tol: 1e-8, MaxIter: 150}}
	// One entry per experiment. Figs. 11a/11b and 12/13 are two views of one
	// run each, so either name selects it and -fig all runs it once.
	figures := []struct {
		names []string
		fn    func() error
	}{
		{[]string{"4"}, r.fig4},
		{[]string{"5"}, r.fig5},
		{[]string{"6"}, func() error { return r.illustrative("spatio temporal data") }},
		{[]string{"7"}, func() error { return r.illustrative("semantic web") }},
		{[]string{"8"}, r.fig8},
		{[]string{"9"}, r.fig9},
		{[]string{"10"}, r.fig10},
		{[]string{"11a", "11b"}, r.fig11},
		{[]string{"12", "13"}, r.fig12and13},
	}
	var accepted []string
	for _, f := range figures {
		accepted = append(accepted, f.names...)
	}
	accepted = append(accepted, "all")

	fig := flag.String("fig", "all", "figure to regenerate: "+strings.Join(accepted, ", "))
	flag.Float64Var(&r.scale, "scale", 0.5, "effectiveness dataset scale (1.0 = paper-subgraph scale)")
	flag.IntVar(&r.queries, "queries", 120, "test queries per task (paper: 1000)")
	flag.IntVar(&r.devQueries, "dev-queries", 60, "development queries per task for beta tuning (paper: 1000)")
	flag.Float64Var(&r.effScale, "eff-scale", 1.0, "efficiency dataset scale (Fig. 11-13)")
	flag.IntVar(&r.effQueries, "eff-queries", 15, "queries per setting for the efficiency study (paper: 1000)")
	flag.Int64Var(&r.seed, "seed", 42, "random seed for query sampling")
	flag.Parse()
	want := strings.ToLower(*fig)
	if !slices.Contains(accepted, want) {
		fmt.Fprintf(os.Stderr, "benchrunner: unknown -fig %q; accepted: %s\n", *fig, strings.Join(accepted, " "))
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	r.ctx = ctx

	for _, f := range figures {
		if want != "all" && !slices.Contains(f.names, want) {
			continue
		}
		name := strings.Join(f.names, "/")
		start := time.Now()
		fmt.Printf("==== Figure %s ====\n", name)
		if err := f.fn(); err != nil {
			log.Fatalf("figure %s: %v", name, err)
		}
		fmt.Printf("(figure %s done in %s)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
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
