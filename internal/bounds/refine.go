package bounds

import "slices"

// refiner is the Stage-II kernel both trackers share: the iteration of
// Eq. 17–18 over the subgraph the neighborhood induces, held as a per-query
// append-only edge log; a refinement reads nothing from the graph.
//
// A slot is a node's position in the tracker's index (insertion order), and
// everything known about a seen node is keyed by it, in one place each, here:
// its bounds, which the sweeps update in place, its restart weight and its row
// mass. The tracker calls join for every node entering the neighborhood, in
// that order — an index member whose slot the kernel does not hold yet is
// unseen — and add for every induced edge: (src, dst, m) says the recursion at
// slot src sums the bounds of slot dst with transition probability m. The
// trackers keep one invariant: an induced edge is appended exactly once, when
// the later of its two endpoints joins — the newcomer's rows, scanned then
// against the membership, yield every induced edge it closes (both trackers
// scan both rows and take a self-loop from the in-row). All neighbors of a row
// that are still unseen contribute the same m·unseen and fold into one scalar:
// the row's total transition mass, fixed at join, minus the mass logged for the
// row so far — being logged is all it takes to move a newcomer out of that
// scalar.
//
// load counting-sorts the log by source slot into the sweep copy — O(|E(S)|),
// stable, so a row sums its entries in the order they were logged — and refine
// sweeps the rows in slot order, the order Stage I reached the nodes from the
// query outward. The arrays are resliced per query and grow once, so a pooled
// tracker refines without allocating.
type refiner struct {
	log []logged

	// maxIter caps the sweeps of one refinement: refineMaxIter, set by reset;
	// a field only so that the in-package tests can vary it.
	maxIter int

	// Per slot, appended by join.
	lo, up  []float64 // the bounds
	restart []float64 // restart weight
	mass    []float64 // total transition mass of the row

	// The sweep copy, rebuilt by load: row r's entries are
	// col/m[end[r]:end[r+1]], out[r] its transition mass into unseen neighbors.
	end []int32
	col []int32
	m   []float64
	out []float64

	// lowered marks, per slot and for the whole query, the rows the recursion
	// has lowered at least once; sens is a tightening refinement's lower
	// estimate of ∂up[r]/∂unseen, zero outside them. See refine.
	lowered []bool
	sens    []float64
	// border lists the slots of the border nodes, for a refinement that
	// re-tightens the unseen bound (TFlat only, which fills it).
	border []int32

	sweeps int // sweeps run since reset
}

// logged is one entry of the edge log.
type logged struct {
	src, dst int32
	m        float64
}

// reset empties the kernel for a new query.
func (k *refiner) reset() {
	k.log, k.lo, k.up = k.log[:0], k.lo[:0], k.up[:0]
	k.restart, k.mass, k.lowered = k.restart[:0], k.mass[:0], k.lowered[:0]
	k.maxIter = refineMaxIter
	k.sweeps = 0
}

// join opens the next slot, with the given bounds, and returns it: the row of a
// node with the given restart weight whose transition probabilities, to seen
// and unseen neighbors alike, sum to mass.
func (k *refiner) join(restart, mass, lo, up float64) int32 {
	k.lo, k.up = append(k.lo, lo), append(k.up, up)
	k.restart, k.mass, k.lowered = append(k.restart, restart), append(k.mass, mass), append(k.lowered, false)
	return int32(len(k.lo) - 1)
}

// add logs one induced edge.
func (k *refiner) add(src, dst int32, m float64) {
	k.log = append(k.log, logged{src, dst, m})
}

// load sorts the log into the sweep copy and folds every row's unseen mass.
func (k *refiner) load() {
	n, edges := len(k.restart), len(k.log)
	// Count into end[src+2], so that after the prefix sum end[r+1] is where
	// row r starts; scattering advances it to where row r ends, which leaves
	// end[r] the start of row r.
	k.end = slices.Grow(k.end[:0], n+2)[:n+2]
	clear(k.end)
	for _, e := range k.log {
		k.end[e.src+2]++
	}
	for r := 2; r < n+2; r++ {
		k.end[r] += k.end[r-1]
	}
	k.col, k.m = slices.Grow(k.col[:0], edges)[:edges], slices.Grow(k.m[:0], edges)[:edges]
	k.out = append(k.out[:0], k.mass...)
	for _, e := range k.log {
		at := k.end[e.src+1]
		k.end[e.src+1]++
		k.col[at], k.m[at] = e.dst, e.m
		k.out[e.src] -= e.m
	}
	for r, out := range k.out {
		k.out[r] = max(0, out) // rounding may leave a sliver below zero
	}
}

// refine performs up to maxIter Gauss–Seidel sweeps of Eq. 17–18 in slot
// order over the bounds, in place, keeping every bound monotone (lower
// bounds only rise, upper bounds only fall), and stops early after a sweep
// that moved no bound by more than max(refineTol, rel·its new value); see
// refineRel. An unseen neighbor contributes lower bound zero and the unseen
// upper bound as it stands at sweep time. It returns the unseen bound.
//
// With tighten set, Eq. 22 over the border slots re-tightens the unseen bound
// after every sweep, and the rows follow it at once. Merely iterated, unseen →
// out[r]·unseen in every row → the border's upper bounds → unseen is a
// rank-one loop contracting at about one half per sweep, twenty sweeps after
// all else has converged. So the sweep also relaxes, on the lowered rows,
// sens[r] = (1−α)(out[r] + Σ m·sens[j]), a lower estimate of ∂up[r]/∂unseen.
// A row is lowered once the recursion has lowered it at least once this query:
// from then on it sits at or above its own recursion value, because all that
// value reads only falls; a row still held by its Stage-I value does not follow
// unseen and keeps sens 0. The step solves the loop along that estimate: the
// least x with x ≥ (1−α)(up[b] − sens[b]·(unseen − x)) for every border slot b
// (one Newton step, never above the plain Eq. 22 value) becomes the unseen
// bound, and every up[r] drops by sens[r] times the decrease.
//
// It is sound for the reason the plain sweep is. Let H be Eq. 18 per row and
// Eq. 22 for the scalar, each clamped by the value the refinement started
// from. H is monotone and a (1−α)-contraction; the true T-Rank values are a
// sub-solution (both equations hold for them with ≤, under sound starting
// bounds), so H's fixed point dominates them, and every super-solution
// (x ≥ H(x)) dominates the fixed point. A sweep maps super-solutions to
// super-solutions, and so does the step: (i) sens is relaxed Gauss–Seidel from
// zero over a set of rows that only grows, so it only rises and ends with
// sens[r] ≤ (1−α)(out[r] + Σ m·sens[j]); lowering unseen by d and every up[j]
// by sens[j]·d thus lowers a lowered row's recursion value by at least
// sens[r]·d, leaving the row at or above it; (ii) the new unseen bound is by
// construction at least (1−α)(up[b] − sens[b]·d) for every border slot b,
// Eq. 22 over the shifted rows. The step moves row r by sens[r]·d ≤ d and is
// judged against the unseen bound it lowers. Every prefix of sweeps keeps the
// super-solution, so stopping early only leaves looser sound bounds. Never
// warm-start sens: a newcomer moves mass from out[r] into a logged entry whose
// own sens starts at zero, so last round's values over-estimate and (i) fails,
// where an under-estimate only costs sweeps. The fixed point approached is the
// plain iteration's.
func (k *refiner) refine(alpha, unseen float64, tighten bool, rel float64) float64 {
	k.load()
	// The reslices here and in the row loop tell the compiler the paired
	// arrays are equally long, which drops all but one bounds check from the
	// per-entry loop.
	lo, up := k.lo, k.up[:len(k.lo)]
	ends := k.end[1 : len(lo)+1]
	lowered := k.lowered[:len(lo)]
	// Without tighten sens stays zero and the gather below reads zeros: one
	// row loop serves both kinds of caller.
	k.sens = slices.Grow(k.sens[:0], len(lo))[:len(lo)]
	clear(k.sens)
	sens := k.sens
	for iter := 0; iter < k.maxIter; iter++ {
		k.sweeps++
		moved := false
		begin := int32(0)
		for r, end := range ends {
			sumLo, sumUp, sumSens := 0.0, k.out[r]*unseen, k.out[r]
			ms := k.m[begin:end]
			col := k.col[begin:end][:len(ms)]
			for e, m := range ms {
				j := col[e]
				sumLo += m * lo[j]
				sumUp += m * up[j]
				sumSens += m * sens[j]
			}
			begin = end
			newLo := alpha*k.restart[r] + (1-alpha)*sumLo
			newUp := alpha*k.restart[r] + (1-alpha)*sumUp
			if newLo > lo[r] {
				if d := newLo - lo[r]; d > refineTol && d > rel*newLo {
					moved = true
				}
				lo[r] = newLo
			}
			if newUp < up[r] {
				if d := up[r] - newUp; d > refineTol && d > rel*newUp {
					moved = true
				}
				up[r] = newUp
				lowered[r] = true
			}
			if tighten && lowered[r] {
				sens[r] = (1 - alpha) * sumSens
			}
		}
		if tighten {
			maxBorder, newton := 0.0, 0.0
			for _, j := range k.border {
				maxBorder = max(maxBorder, up[j])
				newton = max(newton, (1-alpha)*(up[j]-sens[j]*unseen)/(1-(1-alpha)*sens[j]))
			}
			next := min(unseen, (1-alpha)*maxBorder, newton)
			if step := unseen - next; step > 0 {
				maxSens := 0.0
				for r, s := range sens {
					up[r] -= s * step
					if s > maxSens { // the builtin max is ten cycles a row here
						maxSens = s
					}
				}
				if d := maxSens * step; d > refineTol && d > rel*next {
					moved = true
				}
			}
			unseen = next
		}
		if !moved {
			break
		}
	}
	return unseen
}
