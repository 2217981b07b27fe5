package bounds

// TOptions configures a TFlat computation.
type TOptions struct {
	// Alpha is the teleport probability.
	Alpha float64
	// M is the number of border nodes whose in-neighborhoods are pulled into
	// the t-neighborhood per expansion (default DefaultTExpansion).
	M int
	// StageII enables the iterative refinement of Eq. 17–18 over the
	// t-neighborhood (true for 2SBound). When false, seen-node bounds are
	// updated with a single local application of the recursion at expansion
	// time only.
	StageII bool
	// TightenUnseenInRefine re-applies the Eq. 22 unseen bound after every
	// refinement sweep (true for 2SBound). The Sarkar-style baseline scheme
	// disables it, so the unseen bound is only updated at expansion time,
	// which is strictly looser and forces more expansions.
	TightenUnseenInRefine bool
	// RefineTol and RefineMaxIter control Stage II convergence.
	RefineTol     float64
	RefineMaxIter int
	// FrontierCap, when positive, bounds the number of nodes admitted into
	// St per expansion (the anytime budget's per-round frontier cap). Picked
	// border nodes whose in-neighborhoods are only partially admitted keep a
	// positive outside-in count, so they stay border nodes and the Eq. 22
	// unseen bound — computed over all border nodes — remains sound for every
	// deferred node; the cap trades rounds for bounded per-round cost.
	FrontierCap int
}

// DefaultTOptions returns the 2SBound configuration for the T-Rank side.
func DefaultTOptions(alpha float64) TOptions {
	return TOptions{
		Alpha:                 alpha,
		M:                     DefaultTExpansion,
		StageII:               true,
		TightenUnseenInRefine: true,
		RefineTol:             DefaultRefineTol,
		RefineMaxIter:         DefaultRefineMaxIter,
	}
}

func (o TOptions) normalized() TOptions {
	if o.M <= 0 {
		o.M = DefaultTExpansion
	}
	if o.RefineTol <= 0 {
		o.RefineTol = DefaultRefineTol
	}
	if o.RefineMaxIter <= 0 {
		o.RefineMaxIter = DefaultRefineMaxIter
	}
	return o
}
