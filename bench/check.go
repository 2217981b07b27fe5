package main

import (
	"context"
	"fmt"
	"math"

	"roundtriprank"
	"roundtriprank/internal/core"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/walk"
)

// The query parameters every workload uses: the paper's efficiency-study
// defaults, which are also the engine's.
const (
	topK    = 10
	epsilon = 0.01
)

// reference is the exact answer to one query, solved directly on the flat
// graph: the full score vector and the top-K ranking the filter admits.
type reference struct {
	scores []float64
	top    []core.Ranked
}

func exactReference(g *graph.Graph, q walk.Query, keep func(graph.NodeID) bool) (*reference, error) {
	s, err := core.Compute(context.Background(), g, q, core.DefaultParams())
	if err != nil {
		return nil, err
	}
	top := core.TopN(s.R, topK, keep)
	for i, r := range top {
		if r.Score <= 0 {
			top = top[:i]
			break
		}
	}
	return &reference{scores: s.R, top: top}, nil
}

// checkShape: results are sorted best first and carry no zero scores.
func checkShape(c *checker, what string, res []roundtriprank.Result) {
	ok := len(res) <= topK
	for i, r := range res {
		if !(r.Score > 0) || (i > 0 && r.Score > res[i-1].Score) {
			ok = false
		}
	}
	c.check(ok, "%s: results are not sorted and zero-score-free: %v", what, res)
}

// checkCertified: the prefix the response certifies is the exact ranking's.
func checkCertified(c *checker, what string, resp *roundtriprank.Response, ref *reference) {
	ok := resp.CertifiedK <= len(resp.Results) && resp.CertifiedK <= len(ref.top)
	for i := 0; ok && i < resp.CertifiedK; i++ {
		ok = resp.Results[i].Node == ref.top[i].Node
	}
	c.check(ok, "%s: certified prefix of %d differs from the exact ranking", what, resp.CertifiedK)
}

// scoreRecall counts the returned nodes whose exact score reaches the exact
// K-th score (within 1e-9 relative): tie-aware, since any node tied with the
// K-th is as good an answer. want is the size of the exact answer.
func scoreRecall(res []roundtriprank.Result, ref *reference) (hits, want int) {
	want = len(ref.top)
	if want == 0 {
		return 0, 0
	}
	floor := ref.top[want-1].Score * (1 - 1e-9)
	for _, r := range res {
		if ref.scores[r.Node] >= floor {
			hits++
		}
	}
	return min(hits, want), want
}

// sameResponse reports how two responses differ in nodes, score bits, rounds
// or certificate; nil when they are bit-identical.
func sameResponse(got, want *roundtriprank.Response) error {
	if len(got.Results) != len(want.Results) {
		return fmt.Errorf("%d results, want %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		g, w := got.Results[i], want.Results[i]
		if g.Node != w.Node || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Errorf("rank %d: %+v, want %+v", i, g, w)
		}
	}
	if got.Rounds != want.Rounds || got.Converged != want.Converged || got.CertifiedK != want.CertifiedK ||
		math.Float64bits(got.AchievedEpsilon) != math.Float64bits(want.AchievedEpsilon) {
		return fmt.Errorf("rounds/converged/certified/achieved %d/%v/%d/%g, want %d/%v/%d/%g",
			got.Rounds, got.Converged, got.CertifiedK, got.AchievedEpsilon,
			want.Rounds, want.Converged, want.CertifiedK, want.AchievedEpsilon)
	}
	return nil
}

// sameRanking checks an exact-family response against the reference ranking
// bit for bit.
func sameRanking(res []roundtriprank.Result, ref *reference) error {
	if len(res) != len(ref.top) {
		return fmt.Errorf("%d results, want %d", len(res), len(ref.top))
	}
	for i, r := range ref.top {
		if res[i].Node != r.Node || math.Float64bits(res[i].Score) != math.Float64bits(r.Score) {
			return fmt.Errorf("rank %d: %+v, want %+v", i, res[i], r)
		}
	}
	return nil
}

// quality accumulates the output-quality ratios over a verification subset:
// score recall over every checked op, convergence and certified share over
// the online ones. The subset and the budgets are fixed, so the ratios repeat
// exactly for a fixed seed.
type quality struct {
	hits, want        int
	online, converged int
	certified         float64
}

func (q *quality) add(res []roundtriprank.Result, ref *reference) {
	h, w := scoreRecall(res, ref)
	q.hits += h
	q.want += w
}

func (q *quality) addOnline(converged bool, certifiedK int) {
	q.online++
	if converged {
		q.converged++
	}
	q.certified += float64(certifiedK) / topK
}

func (q *quality) report(m metrics) {
	m.set("score_recall_at_k", ratio(float64(q.hits), float64(q.want)))
	m.set("converged_ratio", ratio(float64(q.converged), float64(q.online)))
	m.set("certified_ratio", ratio(q.certified, float64(q.online)))
}
