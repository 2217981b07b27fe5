// Package eval is the experiment harness: it runs the paper's effectiveness
// evaluation (NDCG@K over the four tasks, Fig. 5 / 9 / 10), the specificity
// bias sweep (Fig. 8), the efficiency study of the online top-K schemes
// (Fig. 11) and the scalability study over growing snapshots (Fig. 12 / 13),
// and renders the results as the text tables cmd/benchrunner prints.
package eval

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"roundtriprank/internal/baselines"
	"roundtriprank/internal/core"
	"roundtriprank/internal/fan"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/metrics"
	"roundtriprank/internal/tasks"
	"roundtriprank/internal/topk"
	"roundtriprank/internal/walk"
)

// KValues are the ranking cutoffs reported by the paper.
var KValues = []int{5, 10, 20}

// MeasureResult holds one measure's per-query and aggregate NDCG for a task.
type MeasureResult struct {
	Name string
	// PerQuery maps K to the per-query NDCG@K values (aligned with the
	// instance order), used for paired significance tests.
	PerQuery map[int][]float64
	// MeanNDCG maps K to the mean NDCG@K.
	MeanNDCG map[int]float64
}

// EvaluateTask runs every measure on every instance and reports NDCG@K.
// The global PageRank of the underlying graph may be passed to avoid
// recomputing it for ObjSqrtInv; it may be nil.
func EvaluateTask(ctx context.Context, g *graph.Graph, instances []tasks.Instance, measures []baselines.Measure,
	ks []int, wp walk.Params, globalPR []float64) ([]MeasureResult, error) {
	if len(instances) == 0 {
		return nil, fmt.Errorf("eval: no instances")
	}
	if len(ks) == 0 {
		ks = KValues
	}
	results := make([]MeasureResult, len(measures))
	for mi, m := range measures {
		results[mi] = MeasureResult{
			Name:     m.Name(),
			PerQuery: make(map[int][]float64, len(ks)),
			MeanNDCG: make(map[int]float64, len(ks)),
		}
		for _, k := range ks {
			results[mi].PerQuery[k] = make([]float64, len(instances))
		}
	}

	// Each instance writes its own index of the per-query slices, so the
	// tasks share nothing they write.
	err := fan.Do(ctx, len(instances), runtime.GOMAXPROCS(0), func(ctx context.Context, idx int) error {
		inst := instances[idx]
		mctx := &baselines.Context{
			Ctx:      ctx,
			View:     inst.View,
			Query:    inst.Query,
			Walk:     wp,
			GlobalPR: globalPR,
			Rand:     rand.New(rand.NewSource(int64(idx) + 1)),
		}
		keep := core.TypeFilter(g, inst.TargetType, inst.QueryNode)
		for mi, m := range measures {
			scores, err := m.Score(mctx)
			if err != nil {
				return fmt.Errorf("eval: %s: %w", m.Name(), err)
			}
			ranked := core.Rank(scores, keep)
			ids := make([]graph.NodeID, len(ranked))
			for i, r := range ranked {
				ids[i] = r.Node
			}
			for _, k := range ks {
				results[mi].PerQuery[k][idx] = metrics.NDCGAtK(ids, inst.GroundTruth, k)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for mi := range results {
		for _, k := range ks {
			results[mi].MeanNDCG[k] = metrics.Mean(results[mi].PerQuery[k])
		}
	}
	return results, nil
}

// SignificanceP returns the two-tailed paired t-test p-value comparing measure
// a and b on the same task at cutoff k.
func SignificanceP(a, b MeasureResult, k int) (float64, error) {
	_, p, err := metrics.PairedTTest(a.PerQuery[k], b.PerQuery[k])
	return p, err
}

// SweepBeta evaluates RoundTripRank+ over a grid of specificity biases and
// returns mean NDCG@k per β (Fig. 8).
func SweepBeta(ctx context.Context, g *graph.Graph, instances []tasks.Instance, betas []float64, k int, wp walk.Params) (map[float64]float64, error) {
	if len(betas) == 0 {
		betas = DefaultBetaGrid()
	}
	measures := make([]baselines.Measure, len(betas))
	for i, b := range betas {
		measures[i] = baselines.NewRoundTripRankPlus(b)
	}
	res, err := EvaluateTask(ctx, g, instances, measures, []int{k}, wp, nil)
	if err != nil {
		return nil, err
	}
	out := make(map[float64]float64, len(betas))
	for i, b := range betas {
		out[b] = res[i].MeanNDCG[k]
	}
	return out, nil
}

// TuneBeta returns the β with the highest mean NDCG@k on the development
// instances, emulating the paper's per-task tuning with development queries.
func TuneBeta(ctx context.Context, g *graph.Graph, dev []tasks.Instance, betas []float64, k int, wp walk.Params) (float64, error) {
	sweep, err := SweepBeta(ctx, g, dev, betas, k, wp)
	if err != nil {
		return 0, err
	}
	best, bestScore := core.BalancedBeta, -1.0
	keys := make([]float64, 0, len(sweep))
	for b := range sweep {
		keys = append(keys, b)
	}
	sort.Float64s(keys)
	for _, b := range keys {
		if sweep[b] > bestScore {
			best, bestScore = b, sweep[b]
		}
	}
	return best, nil
}

// DefaultBetaGrid returns the β grid of Fig. 8.
func DefaultBetaGrid() []float64 {
	return []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
}

// EfficiencyResult aggregates query time and, for approximate schemes, the
// quality of the approximation against the exact ranking (Fig. 11).
type EfficiencyResult struct {
	Scheme     string
	Epsilon    float64
	MeanTimeMS float64
	CITimeMS   float64 // 99% confidence half-width
	NDCG       float64
	Precision  float64
	KendallTau float64
	// ActiveSetBytes is the mean active-set size (Fig. 12).
	ActiveSetBytes   float64
	CIActiveSetBytes float64
}

// EfficiencyConfig controls the efficiency experiments.
type EfficiencyConfig struct {
	K        int
	Alpha    float64
	Queries  []graph.NodeID
	Epsilons []float64
	Schemes  []topk.Scheme
	// IncludeNaive adds the exact iterative baseline timing.
	IncludeNaive bool
}

// EvaluateEfficiency measures the query time of the online top-K schemes at
// each slack and the approximation quality of 2SBound against the exact
// ranking (Fig. 11a and 11b).
func EvaluateEfficiency(ctx context.Context, g *graph.Graph, cfg EfficiencyConfig) ([]EfficiencyResult, error) {
	if len(cfg.Queries) == 0 {
		return nil, fmt.Errorf("eval: no queries")
	}
	if cfg.K <= 0 {
		cfg.K = 10
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = walk.DefaultAlpha
	}
	if len(cfg.Epsilons) == 0 {
		cfg.Epsilons = []float64{0.01, 0.02, 0.03}
	}
	if len(cfg.Schemes) == 0 {
		cfg.Schemes = []topk.Scheme{topk.Scheme2SBound, topk.SchemeGS, topk.SchemeGupta, topk.SchemeSarkar}
	}
	var results []EfficiencyResult

	// Exact rankings (shared by the quality metrics and the Naive timing).
	exactTop := make([][]graph.NodeID, len(cfg.Queries))
	naiveTimes := make([]float64, len(cfg.Queries))
	for i, q := range cfg.Queries {
		start := time.Now()
		ranked, _, err := topk.Naive(ctx, g, walk.SingleNode(q), topk.Options{K: cfg.K, Alpha: cfg.Alpha, Beta: core.BalancedBeta})
		if err != nil {
			return nil, err
		}
		naiveTimes[i] = float64(time.Since(start).Microseconds()) / 1000.0
		ids := make([]graph.NodeID, len(ranked))
		for j, r := range ranked {
			ids[j] = r.Node
		}
		exactTop[i] = ids
	}
	if cfg.IncludeNaive {
		results = append(results, EfficiencyResult{
			Scheme:     "Naive",
			MeanTimeMS: metrics.Mean(naiveTimes),
			CITimeMS:   metrics.ConfidenceInterval(naiveTimes, 0.99),
			NDCG:       1, Precision: 1, KendallTau: 1,
		})
	}

	for _, scheme := range cfg.Schemes {
		for _, eps := range cfg.Epsilons {
			times := make([]float64, len(cfg.Queries))
			activeBytes := make([]float64, len(cfg.Queries))
			ndcgs := make([]float64, 0, len(cfg.Queries))
			precisions := make([]float64, 0, len(cfg.Queries))
			taus := make([]float64, 0, len(cfg.Queries))
			for i, q := range cfg.Queries {
				tracking := graph.NewCountingRows(g)
				opt := topk.Options{K: cfg.K, Epsilon: eps, Alpha: cfg.Alpha, Beta: core.BalancedBeta, Scheme: scheme}
				start := time.Now()
				res, err := topk.TopKRows(ctx, tracking, walk.SingleNode(q), opt)
				if err != nil {
					return nil, err
				}
				times[i] = float64(time.Since(start).Microseconds()) / 1000.0
				activeBytes[i] = float64(tracking.ActiveSetBytes())

				approx := make([]graph.NodeID, len(res.TopK))
				for j, r := range res.TopK {
					approx[j] = r.Node
				}
				truth := make(map[graph.NodeID]bool, len(exactTop[i]))
				for _, v := range exactTop[i] {
					truth[v] = true
				}
				ndcgs = append(ndcgs, metrics.NDCGAtK(approx, truth, cfg.K))
				precisions = append(precisions, metrics.PrecisionAtK(approx, truth, cfg.K))
				if tau, err := metrics.KendallTau(approx, exactTop[i]); err == nil {
					taus = append(taus, tau)
				}
			}
			results = append(results, EfficiencyResult{
				Scheme:           scheme.String(),
				Epsilon:          eps,
				MeanTimeMS:       metrics.Mean(times),
				CITimeMS:         metrics.ConfidenceInterval(times, 0.99),
				NDCG:             metrics.Mean(ndcgs),
				Precision:        metrics.Mean(precisions),
				KendallTau:       metrics.Mean(taus),
				ActiveSetBytes:   metrics.Mean(activeBytes),
				CIActiveSetBytes: metrics.ConfidenceInterval(activeBytes, 0.99),
			})
		}
	}
	return results, nil
}

// SnapshotResult reports one growth snapshot (one row of Fig. 12).
type SnapshotResult struct {
	Label            string
	SnapshotBytes    int64
	ActiveSetBytes   float64
	CIActiveSetBytes float64
	QueryTimeMS      float64
	CIQueryTimeMS    float64
}

// EvaluateScalability runs 2SBound on each snapshot with the given slack and
// reports snapshot size, active-set size and query time (Fig. 12). Queries are
// sampled per snapshot from the provided seed.
func EvaluateScalability(ctx context.Context, snapshots []*graph.Subgraph, labels []string, queriesPerSnapshot int,
	epsilon float64, k int, seed int64) ([]SnapshotResult, error) {
	if len(snapshots) == 0 {
		return nil, fmt.Errorf("eval: no snapshots")
	}
	if queriesPerSnapshot <= 0 {
		queriesPerSnapshot = 20
	}
	if k <= 0 {
		k = 10
	}
	out := make([]SnapshotResult, 0, len(snapshots))
	for si, snap := range snapshots {
		g := snap.Graph
		rng := rand.New(rand.NewSource(seed + int64(si)))
		times := make([]float64, 0, queriesPerSnapshot)
		active := make([]float64, 0, queriesPerSnapshot)
		for qi := 0; qi < queriesPerSnapshot; qi++ {
			q := graph.NodeID(rng.Intn(g.NumNodes()))
			tracking := graph.NewCountingRows(g)
			opt := topk.Options{K: k, Epsilon: epsilon, Alpha: walk.DefaultAlpha, Beta: core.BalancedBeta}
			start := time.Now()
			if _, err := topk.TopKRows(ctx, tracking, walk.SingleNode(q), opt); err != nil {
				return nil, err
			}
			times = append(times, float64(time.Since(start).Microseconds())/1000.0)
			active = append(active, float64(tracking.ActiveSetBytes()))
		}
		label := fmt.Sprintf("snapshot-%d", si+1)
		if si < len(labels) {
			label = labels[si]
		}
		out = append(out, SnapshotResult{
			Label:            label,
			SnapshotBytes:    g.SizeBytes(),
			ActiveSetBytes:   metrics.Mean(active),
			CIActiveSetBytes: metrics.ConfidenceInterval(active, 0.99),
			QueryTimeMS:      metrics.Mean(times),
			CIQueryTimeMS:    metrics.ConfidenceInterval(times, 0.99),
		})
	}
	return out, nil
}

// GrowthRates normalizes snapshot size, active-set size and query time by the
// first snapshot's values (Fig. 13).
type GrowthRates struct {
	Labels   []string
	Snapshot []float64
	Active   []float64
	Time     []float64
}

// ComputeGrowthRates derives Fig. 13 from the Fig. 12 rows.
func ComputeGrowthRates(rows []SnapshotResult) (*GrowthRates, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("eval: no snapshot rows")
	}
	base := rows[0]
	if base.SnapshotBytes == 0 || base.ActiveSetBytes == 0 || base.QueryTimeMS == 0 {
		return nil, fmt.Errorf("eval: first snapshot has zero baselines")
	}
	gr := &GrowthRates{}
	for _, r := range rows {
		gr.Labels = append(gr.Labels, r.Label)
		gr.Snapshot = append(gr.Snapshot, float64(r.SnapshotBytes)/float64(base.SnapshotBytes))
		gr.Active = append(gr.Active, r.ActiveSetBytes/base.ActiveSetBytes)
		gr.Time = append(gr.Time, r.QueryTimeMS/base.QueryTimeMS)
	}
	return gr, nil
}

// IllustrativeRanking returns the top-k labels of a given node type for a
// multi-term topic query under a measure — the qualitative venue rankings of
// Fig. 1, 6 and 7.
func IllustrativeRanking(ctx context.Context, g *graph.Graph, queryNodes []graph.NodeID, m baselines.Measure,
	targetType graph.Type, k int, wp walk.Params) ([]string, error) {
	if len(queryNodes) == 0 {
		return nil, fmt.Errorf("eval: empty query")
	}
	mctx := &baselines.Context{Ctx: ctx, View: g, Query: walk.MultiNode(queryNodes...), Walk: wp,
		Rand: rand.New(rand.NewSource(1))}
	scores, err := m.Score(mctx)
	if err != nil {
		return nil, err
	}
	keep := core.TypeFilter(g, targetType, queryNodes...)
	top := core.TopN(scores, k, keep)
	out := make([]string, len(top))
	for i, r := range top {
		out[i] = strings.TrimPrefix(g.Label(r.Node), "venue:")
	}
	return out, nil
}
