// Package bounds implements the two-stage bounds-updating framework of
// Sect. V-A of the RoundTripRank paper: per-node lower/upper bounds and an
// unseen upper bound for F-Rank (driven by Bookmark-Coloring expansion,
// Proposition 4) and for T-Rank (driven by border-node expansion, Eq. 22),
// each refined iteratively over the current neighborhood (Stage II,
// Eq. 17–18). The weaker Stage-I bound rules used by the paper's efficiency
// baselines (Gupta et al. for F-Rank, Sarkar et al. for T-Rank) are provided
// as options; every scheme runs Stage II.
//
// Both neighborhoods have one shape (neighborhood.go): a stamped index —
// FFlat's is the BCA engine's, TFlat's its own — that a node enters before it
// joins, and the Stage-II kernel (refiner, refine.go), which holds the bounds
// and everything else known of a seen node by its slot. Stage II reads no
// rows: both trackers log the subgraph their neighborhood induces into the
// kernel as Stage I grows it — a node's rows are scanned once, when it joins —
// and every refinement iterates on that log, so the sweeps touch |E(S)| local
// entries however large the degrees of the seen nodes are and however many
// rounds there are.
package bounds

// Default expansion granularities from Sect. V-A3.
const (
	DefaultFExpansion = 100 // m for the f-neighborhood (BCA benefit selection)
	DefaultTExpansion = 5   // m for the t-neighborhood (border-node selection)
)

// Stage II (refiner.refine) stops after a sweep that moved no bound by more
// than max(refineTol, refineRel·its new value), or after refineMaxIter sweeps:
// bounds span 10⁻⁹ to 10⁻¹, and refineTol is the floor for those near zero.
// The rule reads the last sweep's moves; a sweep closes the distance to the
// fixed point by 1−α, so up to (1−α)/α times the last move may remain. Either
// side's Expand stops on refineTol alone in the round its border is gone.
const (
	refineTol     = 1e-12
	refineRel     = 1e-4
	refineMaxIter = 60
)

// expandRel is the relative part of the stop rule Expand refines under.
func expandRel(closed bool) float64 {
	if closed {
		return 0
	}
	return refineRel
}

// FOptions configures an FFlat computation.
type FOptions struct {
	// Alpha is the teleport probability.
	Alpha float64
	// M is the number of best-benefit nodes processed per expansion
	// (default DefaultFExpansion).
	M int
	// ImprovedBound selects the Proposition 4 unseen bound with the 1/(2−α)
	// tightening (true, used by 2SBound) or the weaker first-arrival-only
	// bound attributed to Gupta et al. [16] (false, used by the G+S and Gupta
	// baselines).
	ImprovedBound bool
}

// DefaultFOptions returns the 2SBound configuration for the F-Rank side.
func DefaultFOptions(alpha float64) FOptions {
	return FOptions{Alpha: alpha, M: DefaultFExpansion, ImprovedBound: true}
}

func (o FOptions) normalized() FOptions {
	if o.M <= 0 {
		o.M = DefaultFExpansion
	}
	return o
}
