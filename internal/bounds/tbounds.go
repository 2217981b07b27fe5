package bounds

// TOptions configures a TFlat computation.
type TOptions struct {
	// Alpha is the teleport probability.
	Alpha float64
	// M is the number of border nodes whose in-neighborhoods are pulled into
	// the t-neighborhood per expansion (default DefaultTExpansion).
	M int
	// TightenUnseenInRefine re-applies the Eq. 22 unseen bound after every
	// refinement sweep (true for 2SBound). The Sarkar-style baseline scheme
	// disables it, so the unseen bound is only updated at expansion time,
	// which is strictly looser and forces more expansions.
	TightenUnseenInRefine bool
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
	return TOptions{Alpha: alpha, M: DefaultTExpansion, TightenUnseenInRefine: true}
}

func (o TOptions) normalized() TOptions {
	if o.M <= 0 {
		o.M = DefaultTExpansion
	}
	return o
}
