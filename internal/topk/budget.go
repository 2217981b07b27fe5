package topk

import (
	"fmt"
	"time"
)

// Budget bounds the work an online top-K query may spend before returning a
// best-effort, certified partial result — the anytime execution contract for
// hub queries whose active set grows every round. A nil Budget runs until
// the search converges, exhausts both neighborhoods, or is cancelled; with
// one, a cancelled query still finalizes the rounds it completed into a
// certificate. Zero-valued fields are unset.
//
// Rounds- and touched-capped budgets are deterministic: the same budget on
// the same graph stops at the same round with the same bounds, so the result
// and its certificate are bit-identical whichever way the searcher reads the
// graph (CSR arrays, packed, or remote row session). A FlushMargin stop
// depends on the wall clock and carries no such guarantee.
type Budget struct {
	// MaxRounds caps expansion rounds, below the package's 100 000-round
	// backstop (maxRounds).
	MaxRounds int
	// MaxTouched stops the search once |Sf| + |St| reaches this many nodes —
	// a direct cap on working-set size (and, on the remote path, on rows
	// fetched over the wire).
	MaxTouched int
	// FlushMargin, when positive and the query's context carries a deadline,
	// is a soft wall-clock stop at (deadline − margin), checked between
	// rounds: the search finishes its current round, certifies what it has,
	// and leaves the margin for normalization and response flushing — a
	// degraded answer instead of one that runs into the deadline and errors.
	// At least one round always runs.
	FlushMargin time.Duration
	// FrontierCap bounds the T-side node admissions per expansion round.
	// Deferred nodes stay outside St under the (monotone) unseen upper bound,
	// so every certificate computed under a cap remains sound; hub queries
	// trade rounds for bounded per-round cost. The F side is never capped:
	// BCA must spread each processed node's residual to all its out-neighbors
	// or mass conservation (and with it every F bound) breaks.
	FrontierCap int
}

// StopReason records why the search stopped.
type StopReason int

const (
	// StopNone is the zero value (no search ran).
	StopNone StopReason = iota
	// StopConverged: the ε-relaxed top-K conditions (Eq. 13–14) were met.
	StopConverged
	// StopExhausted: neither neighborhood has a border left, so the bounds
	// are as tight as they get; a query whose component scores fewer than K
	// nodes ends so.
	StopExhausted
	// StopRounds: Budget.MaxRounds hit, or without one the round backstop,
	// which only a tie at ε = 0 in a component too large to close hits.
	StopRounds
	// StopTouched: Budget.MaxTouched hit.
	StopTouched
	// StopDeadline: the soft stop Budget.FlushMargin derives passed between
	// rounds.
	StopDeadline
	// StopCanceled: the context was cancelled with a budget present, so the
	// previous round's bounds were finalized into a certificate instead of
	// discarding the completed work.
	StopCanceled
)

// String names the stop reason for logs and wire responses.
func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "none"
	case StopConverged:
		return "converged"
	case StopExhausted:
		return "exhausted"
	case StopRounds:
		return "rounds"
	case StopTouched:
		return "touched"
	case StopDeadline:
		return "deadline"
	case StopCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// degraded reports whether the reason means the search was cut off with
// certifiable work still remaining (as opposed to converging or exhausting
// the graph).
func (r StopReason) degraded() bool {
	switch r {
	case StopRounds, StopTouched, StopDeadline, StopCanceled:
		return true
	default:
		return false
	}
}

// certify computes the quality certificate of a ranking, the one rule for
// every method: top holds the returned nodes' [lower, upper] score intervals
// in rank order, and outside bounds every other node's score from above —
// the search's candidates below the cut and Eq. 16's bound, or an exact
// solve's other kept nodes (CertifyExact).
//
// The certified prefix length is the largest c such that every position
// j < c has a lower bound STRICTLY above the upper bound of every position
// below it and of outside. By induction position 0 is then the exact top-1,
// position 1 the exact top-2, …: the certified prefix is the exact top-K
// prefix. A tie stops the count: strictness makes the guarantee sound.
//
// The achieved epsilon is the residual bound gap: the smallest ε under which
// the returned ranking would satisfy Eq. 13–14 right now. A converged search
// therefore reports achieved ≤ its requested ε; a degraded one reports how
// far it got.
func certify(top []member, outside float64) (certK int, achieved float64) {
	// Reverse suffix-max sweep: suff holds the max upper bound over every
	// node ranked strictly below j, seeded with outside.
	certK, suff := len(top), outside
	for j := len(top) - 1; j >= 0; j-- {
		if !(top[j].lower > suff) {
			certK = j
		}
		suff = max(suff, top[j].upper)
	}
	if len(top) == 0 {
		return 0, outside
	}
	return certK, max(0, gap(top, outside))
}

// gap returns the largest violation of the ε-relaxed top-K conditions by a
// non-empty ranking top, read as certify reads it: Eq. 13, the last lower
// bound against outside, and Eq. 14, each lower bound against the next one's
// upper bound. The ranking satisfies the conditions at ε exactly when
// gap < ε; it is negative when they hold strictly at ε = 0.
func gap(top []member, outside float64) float64 {
	g := outside - top[len(top)-1].lower
	for i := 0; i+1 < len(top); i++ {
		g = max(g, top[i+1].upper-top[i].lower)
	}
	return g
}
