// Package topk implements online approximate top-K processing for
// RoundTripRank: the 2SBound algorithm of Sect. V-A (Algorithm 1) with the
// ε-relaxed top-K conditions of Eq. 13–14, the weaker bound schemes used as
// efficiency baselines in Sect. VI-B (G+S, Gupta, Sarkar), and the naive
// iterative baseline that computes the exact ranking.
package topk

import (
	"context"
	"fmt"
	"math"
	"time"

	"roundtriprank/internal/bounds"
	"roundtriprank/internal/core"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/walk"
)

// Scheme selects the bound-updating machinery used for each side of the
// decomposition, mirroring the efficiency baselines of Fig. 11(a).
type Scheme int

const (
	// Scheme2SBound uses the paper's two-stage framework for both F-Rank and
	// T-Rank (Proposition 4 bounds + Stage II refinement).
	Scheme2SBound Scheme = iota
	// SchemeGS uses the weaker Gupta bounds for F-Rank and the Sarkar
	// expansion-only bounds for T-Rank.
	SchemeGS
	// SchemeGupta uses the weaker Gupta bounds for F-Rank but the two-stage
	// framework for T-Rank.
	SchemeGupta
	// SchemeSarkar uses the two-stage framework for F-Rank but the Sarkar
	// expansion-only bounds for T-Rank.
	SchemeSarkar
)

// String returns the scheme name used in the paper's figures.
func (s Scheme) String() string {
	switch s {
	case Scheme2SBound:
		return "2SBound"
	case SchemeGS:
		return "G+S"
	case SchemeGupta:
		return "Gupta"
	case SchemeSarkar:
		return "Sarkar"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Options configures a top-K query.
type Options struct {
	// K is the number of results to return.
	K int
	// Epsilon is the approximation slack ε of the relaxed top-K conditions;
	// zero demands the exact top K.
	Epsilon float64
	// Alpha is the teleport probability (default walk.DefaultAlpha).
	Alpha float64
	// Beta is the specificity bias; 0.5 gives RoundTripRank. Bounds are
	// combined as f^(2(1−β))·t^(2β), which equals the paper's f·t scale at
	// β = 0.5 and remains rank-equivalent to Eq. 12 otherwise.
	Beta float64
	// Scheme selects the bound machinery (default Scheme2SBound).
	Scheme Scheme
	// Keep, when non-nil, restricts the result set: only nodes for which it
	// returns true are admitted as top-K candidates (use it to filter by node
	// type and to exclude the query itself, the paper's Sect. VI-A protocol).
	// Filtered-out nodes still participate in the expansions — they carry
	// probability mass — but never appear in the ranking.
	Keep func(graph.NodeID) bool
	// FExpansion and TExpansion override the per-round expansion widths m for
	// the two neighborhoods (defaults 100 and 5).
	FExpansion int
	// TExpansion is the border-node expansion width.
	TExpansion int
	// Budget, when non-nil, bounds the query's work (rounds, touched nodes,
	// flush margin, per-round frontier cap) and switches the searcher into
	// anytime mode: on exhaustion it stops cleanly and returns the best
	// candidate ranking with a quality certificate (Result.CertifiedK,
	// Result.AchievedEpsilon) instead of burning until convergence.
	Budget *Budget
}

// DefaultOptions returns the configuration used in the paper's efficiency
// study: K = 10, ε = 0.01, α = 0.25, balanced β.
func DefaultOptions() Options {
	return Options{
		K:       10,
		Epsilon: 0.01,
		Alpha:   walk.DefaultAlpha,
		Beta:    core.BalancedBeta,
		Scheme:  Scheme2SBound,
	}
}

// normalized validates the options and fills the defaults. TopK is called
// directly by more than the Engine (internal/eval, cmd/benchrunner, the bench
// probes), so the range checks are written, like Engine.plan's, to fail on NaN.
func (o Options) normalized() (Options, error) {
	if o.K <= 0 {
		return o, fmt.Errorf("topk: K must be positive, got %d", o.K)
	}
	if !(o.Epsilon >= 0) || math.IsInf(o.Epsilon, 1) {
		return o, fmt.Errorf("topk: epsilon must be finite and non-negative, got %g", o.Epsilon)
	}
	if o.Alpha == 0 {
		o.Alpha = walk.DefaultAlpha
	}
	if err := walk.CheckAlpha(o.Alpha); err != nil {
		return o, fmt.Errorf("topk: %w", err)
	}
	if !(o.Beta >= 0 && o.Beta <= 1) {
		return o, fmt.Errorf("topk: beta must be in [0,1], got %g", o.Beta)
	}
	return o, nil
}

// maxRounds is the backstop on rounds when no Budget sets a tighter cap; a
// search it stops is marked not converged (and degraded). A search ends on its
// own once it converges or both neighborhoods close (StopExhausted): only a
// tie at ε = 0 in a component too large to close runs into this.
const maxRounds = 100000

// Result is the outcome of an online top-K query.
type Result struct {
	// TopK lists the selected nodes in ranked order; Score is the node's
	// lower bound at termination (the quantity the candidate ranking is built
	// from in Algorithm 1).
	TopK []core.Ranked
	// Converged reports whether the ε-relaxed top-K conditions were met; false
	// means a budget or the round backstop stopped the search, or both
	// neighborhoods closed first, and the ranking was returned best-effort.
	Converged bool
	// Degraded reports the search stopped on a budget or the round backstop
	// with certifiable work still remaining — as opposed to converging or
	// closing both neighborhoods (Stop distinguishes the cases). A degraded
	// result is never Converged.
	Degraded bool
	// CertifiedK is the length of the leading prefix of TopK proven exact by
	// the live bounds at termination: each certified position's lower bound
	// strictly beats every other candidate's and every unseen node's upper
	// bound, so the certified prefix is bit-identical to the exact ranking.
	CertifiedK int
	// AchievedEpsilon is the residual bound gap: the smallest ε under which
	// the returned ranking would satisfy Eq. 13–14 at termination. Converged
	// results report at most the requested ε; degraded ones report how far
	// the budget let them get.
	AchievedEpsilon float64
	// Stop records why the search stopped.
	Stop StopReason
	// Rounds is the number of expansion rounds executed.
	Rounds int
	// Sweeps is the number of Stage-II refinement sweeps the query ran, over
	// both neighborhoods: the unit its refinement time is proportional to.
	Sweeps int
	// FSeen, TSeen and RSeen are the final sizes of the f-, t- and
	// r-neighborhoods (|Sf|, |St|, |S| = |Sf ∩ St|).
	FSeen, TSeen, RSeen int
	// Touched is the number of distinct rows the searcher's working set could
	// reach: the length of the query's one index, which holds every node that
	// ever held BCA residual and every t-neighborhood member. It upper-bounds
	// the rows a row session materializes for the query — the O(touched)
	// property the row-serving layer asserts.
	Touched int
}

// TopK runs the online top-K algorithm for the query and returns the
// approximate top-K ranking by RoundTripRank+. Cancelling the context aborts
// the search within one expansion round and returns ctx.Err().
//
// There is one searcher (Algorithm 1 over pooled scratch state, near-zero
// allocation per query) and it always reads a graph.Rows: TopK is TopKRows
// over the view's own rows — a flat layout itself, a per-query session of a
// packed one. Arithmetic and expansion order are the same on every layout, so
// for the same graph content the results are bit-identical.
func TopK(ctx context.Context, view graph.View, q walk.Query, opt Options) (*Result, error) {
	return TopKRows(ctx, view.NewRows(), q, opt)
}

// boundOptions derives both sides' bound options from the query options:
// expansion-width overrides plus the scheme selection. The weaker baseline
// schemes keep the refinement loop (so that every scheme still converges to a
// correct answer) but swap in the looser bound rules the paper attributes to
// the prior works: Gupta's first-arrival unseen bound for F-Rank, and
// expansion-time-only unseen tightening (Sarkar-style) for T-Rank. Looser
// bounds force more expansions and therefore longer query times (Fig. 11a).
func boundOptions(opt Options) (bounds.FOptions, bounds.TOptions, error) {
	fOpt := bounds.DefaultFOptions(opt.Alpha)
	tOpt := bounds.DefaultTOptions(opt.Alpha)
	if opt.FExpansion > 0 {
		fOpt.M = opt.FExpansion
	}
	if opt.TExpansion > 0 {
		tOpt.M = opt.TExpansion
	}
	switch opt.Scheme {
	case Scheme2SBound:
	case SchemeGS:
		fOpt.ImprovedBound = false
		tOpt.TightenUnseenInRefine = false
	case SchemeGupta:
		fOpt.ImprovedBound = false
	case SchemeSarkar:
		tOpt.TightenUnseenInRefine = false
	default:
		return fOpt, tOpt, fmt.Errorf("topk: unknown scheme %d", int(opt.Scheme))
	}
	if opt.Budget != nil && opt.Budget.FrontierCap > 0 {
		tOpt.FrontierCap = opt.Budget.FrontierCap
	}
	return fOpt, tOpt, nil
}

// overTouched reports whether the budget's working-set cap is exhausted.
func overTouched(b *Budget, fSeen, tSeen int) bool {
	return b != nil && b.MaxTouched > 0 && fSeen+tSeen >= b.MaxTouched
}

// softStop returns when the budget's flush margin stops the search — the
// context's deadline minus the margin — and whether it does at all.
func softStop(ctx context.Context, b *Budget) (time.Time, bool) {
	if b == nil || b.FlushMargin <= 0 {
		return time.Time{}, false
	}
	dl, ok := ctx.Deadline()
	return dl.Add(-b.FlushMargin), ok
}

// combineBounds combines one F-side and one T-side bound with the β
// exponents (Eq. 15).
func combineBounds(f, t, expF, expT float64) float64 {
	if f < 0 {
		f = 0
	}
	if t < 0 {
		t = 0
	}
	switch {
	case expF == 1 && expT == 1:
		return f * t
	case expT == 0:
		return math.Pow(f, expF)
	case expF == 0:
		return math.Pow(t, expT)
	default:
		return math.Pow(f, expF) * math.Pow(t, expT)
	}
}

// member is a node of the r-neighborhood with its combined bounds.
type member struct {
	node         graph.NodeID
	lower, upper float64
}

// CertifyExact is certify on an exact solve's ranking top of the nodes keep
// admits (nil: all), on the search's squared scale: every entry of f and t is
// within fErr and tErr of the exact value (walk.Bound), so a node's interval
// combines its entries less and plus those, and outside is the largest upper
// bound of the other kept nodes, found in one pass.
func CertifyExact(top []core.Ranked, f, t []float64, fErr, tErr, beta float64, keep func(graph.NodeID) bool) (certK int, achieved float64) {
	expF, expT := 2*(1-beta), 2*beta
	list, in := make([]member, len(top)), make(map[graph.NodeID]bool, len(top))
	for i, r := range top {
		list[i] = member{r.Node, combineBounds(f[r.Node]-fErr, t[r.Node]-tErr, expF, expT), combineBounds(f[r.Node]+fErr, t[r.Node]+tErr, expF, expT)}
		in[r.Node] = true
	}
	outside := 0.0
	for v := range f {
		// x^(1−β)·y^β ≤ (1−β)·x + β·y: a node whose mean, squared and doubled
		// against rounding, cannot beat outside skips combineBounds' powers.
		fUp, tUp := f[v]+fErr, t[v]+tErr
		if am := (1-beta)*fUp + beta*tUp; 2*am*am > outside {
			if up := combineBounds(fUp, tUp, expF, expT); up > outside && !in[graph.NodeID(v)] && (keep == nil || keep(graph.NodeID(v))) {
				outside = up
			}
		}
	}
	return certify(list, outside)
}

// Naive computes the exact top-K ranking with the iterative solvers (Eq. 5 and
// 8), the baseline labelled "Naive" in Fig. 11(a). It also returns the full
// exact score vector so that callers can evaluate approximation quality. The
// Keep filter is honored exactly as in TopK.
func Naive(ctx context.Context, view graph.View, q walk.Query, opt Options) ([]core.Ranked, []float64, error) {
	opt, err := opt.normalized()
	if err != nil {
		return nil, nil, err
	}
	scores, err := core.Compute(ctx, view, q, core.Params{
		Walk: walk.Params{Alpha: opt.Alpha},
		Beta: opt.Beta,
	})
	if err != nil {
		return nil, nil, err
	}
	// Rescale to the same 2(1−β)/2β exponent scale used by the bound
	// combination so scores are comparable across implementations.
	rescaled := make([]float64, len(scores.R))
	for i := range rescaled {
		rescaled[i] = math.Pow(scores.F[i], 2*(1-opt.Beta)) * math.Pow(scores.T[i], 2*opt.Beta)
	}
	return core.TopN(rescaled, opt.K, opt.Keep), rescaled, nil
}
