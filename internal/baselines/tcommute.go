package baselines

import (
	"fmt"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/walk"
)

// DefaultCommuteSamples is the Monte-Carlo sample count of the outbound
// hitting-time estimate of the truncated commute time baselines.
const DefaultCommuteSamples = 400

// TCommuteMeasure is the truncated commute time baseline [11], [14]:
// C_T(q, v) = h_T(q, v) + h_T(v, q), where h_T is the truncated hitting time
// (walks that do not hit the target within T steps are counted as T). Smaller
// commute times mean closer nodes, so the returned score is the negated,
// weighted combination; Beta = 0.5 is the fixed baseline of Fig. 9 and other
// values give the customized "TCommute+" of Fig. 10.
//
// h_T(·, q) — hitting the query — is computed exactly with the T-step dynamic
// program over out-edges. h_T(q, ·) — hitting each target from the query —
// would need one dynamic program per target, so it is estimated from sampled
// forward walks (first-visit times), a substitution documented in DESIGN.md.
type TCommuteMeasure struct {
	// T is the truncation horizon.
	T int
	// Samples is the number of forward walks used to estimate h_T(q, ·).
	Samples int
	// Beta weights the two directions: (1−β)·h_T(q,v) + β·h_T(v,q).
	Beta       float64
	customized bool
}

// NewTCommute returns the fixed truncated-commute-time baseline.
func NewTCommute(t int) TCommuteMeasure {
	return TCommuteMeasure{T: t, Samples: DefaultCommuteSamples, Beta: 0.5}
}

// NewTCommutePlus returns the β-customized variant of Fig. 10.
func NewTCommutePlus(t int, beta float64) TCommuteMeasure {
	return TCommuteMeasure{T: t, Samples: DefaultCommuteSamples, Beta: beta, customized: true}
}

// Name implements Measure.
func (m TCommuteMeasure) Name() string {
	if m.customized {
		return "TCommute+"
	}
	return "TCommute"
}

// Score implements Measure.
func (m TCommuteMeasure) Score(ctx *Context) ([]float64, error) {
	if m.T <= 0 {
		return nil, fmt.Errorf("baselines: TCommute horizon must be positive, got %d", m.T)
	}
	if m.Samples <= 0 {
		return nil, fmt.Errorf("baselines: TCommute needs positive sample count")
	}
	nq, err := ctx.Query.Normalize()
	if err != nil {
		return nil, err
	}
	rows := ctx.View.NewRows()
	n := rows.NumNodes()

	// Exact truncated hitting time to the query set, h_T(v, Q), by dynamic
	// programming: h^0 = 0 everywhere; h^τ(v) = 0 for v in Q, otherwise
	// 1 + Σ_u M[v][u] h^{τ-1}(u).
	inQuery := make([]bool, n)
	for _, qv := range nq.Nodes {
		inQuery[qv] = true
	}
	hToQ := make([]float64, n)
	next := make([]float64, n)
	for step := 0; step < m.T; step++ {
		for v := 0; v < n; v++ {
			if inQuery[v] {
				next[v] = 0
				continue
			}
			outSum := rows.OutSum(graph.NodeID(v))
			if outSum <= 0 {
				// Dangling node: it can never hit the query.
				next[v] = float64(m.T)
				continue
			}
			exp := 0.0
			cols, ws := rows.OutRow(graph.NodeID(v))
			for i, to := range cols {
				exp += (ws[i] / outSum) * hToQ[to]
			}
			val := 1 + exp
			if val > float64(m.T) {
				val = float64(m.T)
			}
			next[v] = val
		}
		hToQ, next = next, hToQ
	}

	// Monte-Carlo estimate of h_T(Q, v): sample forward walks of length T from
	// the query distribution and record first-visit times; unvisited targets
	// count as T.
	rng := ctx.rng()
	sampler := walk.NewSampler(ctx.View, rng)
	sumFirstVisit := make([]float64, n)
	for i := range sumFirstVisit {
		sumFirstVisit[i] = float64(m.T) * float64(m.Samples)
	}
	for s := 0; s < m.Samples; s++ {
		start := pickQueryNode(nq, rng.Float64())
		visited := map[graph.NodeID]bool{}
		cur := start
		for step := 1; step <= m.T; step++ {
			nxt, ok := sampler.Step(cur)
			if !ok {
				break
			}
			cur = nxt
			if !visited[cur] {
				visited[cur] = true
				sumFirstVisit[cur] -= float64(m.T) - float64(step)
			}
		}
	}
	hFromQ := make([]float64, n)
	for v := range hFromQ {
		hFromQ[v] = sumFirstVisit[v] / float64(m.Samples)
	}
	for _, qv := range nq.Nodes {
		hFromQ[qv] = 0
	}

	// Combine: smaller commute time = higher score. The score is normalized to
	// [0, 1] by T so it is comparable across graphs.
	out := make([]float64, n)
	for v := 0; v < n; v++ {
		commute := (1-m.Beta)*hFromQ[v] + m.Beta*hToQ[v]
		out[v] = 1 - commute/float64(m.T)
	}
	return out, nil
}
