package baselines

import (
	"fmt"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/walk"
)

// Default SimRank parameters: the decay factor recommended by Jeh & Widom and
// used in the paper's experiments, plus Monte-Carlo settings sized for the
// evaluation subgraphs.
const (
	DefaultSimRankC       = 0.85
	DefaultSimRankSamples = 120
	DefaultSimRankDepth   = 6
)

// SimRankMeasure is the structural-context similarity of Jeh & Widom [8], a
// mono-sensed "closeness" baseline in Fig. 5.
//
// The exact all-pairs iteration is quadratic in the number of nodes, which the
// paper itself notes is too expensive beyond small subgraphs; the single-source
// scores needed for ranking are therefore estimated with the first-meeting
// Monte-Carlo interpretation: s(a, b) = E[C^τ] where τ is the first time two
// independent backward random walks from a and b meet. ExactSimRank (below)
// provides the reference implementation used to validate the estimator in
// tests.
type SimRankMeasure struct {
	// C is the decay factor (paper: 0.85).
	C float64
	// Samples is the number of walk pairs per target node.
	Samples int
	// Depth is the walk truncation depth; C^Depth bounds the truncation error.
	Depth int
}

// NewSimRank returns the SimRank baseline with the paper's settings.
func NewSimRank() SimRankMeasure {
	return SimRankMeasure{C: DefaultSimRankC, Samples: DefaultSimRankSamples, Depth: DefaultSimRankDepth}
}

// Name implements Measure.
func (SimRankMeasure) Name() string { return "SimRank" }

// Score implements Measure.
func (m SimRankMeasure) Score(ctx *Context) ([]float64, error) {
	if m.C <= 0 || m.C >= 1 {
		return nil, fmt.Errorf("baselines: SimRank C %g out of range", m.C)
	}
	if m.Samples <= 0 || m.Depth <= 0 {
		return nil, fmt.Errorf("baselines: SimRank needs positive samples and depth")
	}
	nq, err := ctx.Query.Normalize()
	if err != nil {
		return nil, err
	}
	n := ctx.View.NumNodes()
	out := make([]float64, n)
	rng := ctx.rng()
	sampler := walk.NewSampler(ctx.View, rng)

	// Pre-sample the query-side backward walks once per sample index so every
	// target is compared against the same query trajectories (common random
	// numbers reduce variance across targets).
	queryPaths := make([][]graph.NodeID, m.Samples)
	for s := 0; s < m.Samples; s++ {
		start := pickQueryNode(nq, rng.Float64())
		queryPaths[s] = backwardPath(sampler, start, m.Depth)
	}
	powC := make([]float64, m.Depth+1)
	powC[0] = 1
	for i := 1; i <= m.Depth; i++ {
		powC[i] = powC[i-1] * m.C
	}
	for v := 0; v < n; v++ {
		node := graph.NodeID(v)
		if ctx.Query.Contains(node) {
			out[v] = 1 // s(a, a) = 1
			continue
		}
		total := 0.0
		for s := 0; s < m.Samples; s++ {
			vPath := backwardPath(sampler, node, m.Depth)
			qPath := queryPaths[s]
			limit := len(vPath)
			if len(qPath) < limit {
				limit = len(qPath)
			}
			for step := 1; step < limit; step++ {
				if vPath[step] == qPath[step] {
					total += powC[step]
					break
				}
			}
		}
		out[v] = total / float64(m.Samples)
	}
	return out, nil
}

func pickQueryNode(q walk.Query, u float64) graph.NodeID {
	acc := 0.0
	for i, w := range q.Weights {
		acc += w
		if u <= acc {
			return q.Nodes[i]
		}
	}
	return q.Nodes[len(q.Nodes)-1]
}

// backwardPath samples a backward walk of the given depth starting at v and
// returns the visited nodes (position 0 is v). The walk stops early at nodes
// without in-neighbors.
func backwardPath(s *walk.Sampler, v graph.NodeID, depth int) []graph.NodeID {
	path := make([]graph.NodeID, 1, depth+1)
	path[0] = v
	cur := v
	for i := 0; i < depth; i++ {
		next, ok := s.StepBack(cur)
		if !ok {
			break
		}
		cur = next
		path = append(path, cur)
	}
	return path
}

// ExactSimRank computes the full SimRank matrix by the standard fixed-point
// iteration s(a,b) = C/(|In(a)||In(b)|) Σ Σ s(i_a, i_b). It is quadratic in
// memory and intended only for small validation graphs and tests.
func ExactSimRank(view graph.View, c float64, iterations int) ([][]float64, error) {
	if c <= 0 || c >= 1 {
		return nil, fmt.Errorf("baselines: SimRank C %g out of range", c)
	}
	n := view.NumNodes()
	if n > 2000 {
		return nil, fmt.Errorf("baselines: ExactSimRank limited to small graphs, got %d nodes", n)
	}
	if iterations <= 0 {
		iterations = 10
	}
	cur := make([][]float64, n)
	next := make([][]float64, n)
	for i := 0; i < n; i++ {
		cur[i] = make([]float64, n)
		next[i] = make([]float64, n)
		cur[i][i] = 1
	}
	// Every in-row is held for the whole iteration, longer than a row of
	// View.NewRows lives, so they are read once as flat arrays.
	in := view.FlatRows(graph.In, nil)
	ins := make([][]graph.NodeID, n)
	for v := 0; v < n; v++ {
		ins[v], _ = in.Row(graph.NodeID(v))
	}
	for iter := 0; iter < iterations; iter++ {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a == b {
					next[a][b] = 1
					continue
				}
				if len(ins[a]) == 0 || len(ins[b]) == 0 {
					next[a][b] = 0
					continue
				}
				sum := 0.0
				for _, ia := range ins[a] {
					for _, ib := range ins[b] {
						sum += cur[ia][ib]
					}
				}
				next[a][b] = c * sum / float64(len(ins[a])*len(ins[b]))
			}
		}
		cur, next = next, cur
	}
	return cur, nil
}
