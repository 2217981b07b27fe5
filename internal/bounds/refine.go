package bounds

import (
	"slices"

	"roundtriprank/internal/scratch"
)

// refiner is the Stage-II kernel both trackers share: the iteration of
// Eq. 17–18 over the subgraph the neighborhood induces, held as a per-query
// append-only edge log; a refinement reads nothing from the graph.
//
// A slot is a node's position in scratch.Bounds.Touched (insertion order). The
// tracker calls join for every node entering the neighborhood, in that order,
// and add for every induced edge: (src, dst, m) says the recursion at slot
// src sums the bounds of slot dst with transition probability m. The trackers
// keep one invariant: an induced edge is appended exactly once, when the later
// of its two endpoints joins — the newcomer's rows, scanned then against the
// membership, yield every induced edge it closes (TFlat scans both rows and
// takes a self-loop from one; FFlat scans the in-row and parks what it cannot
// log yet under the missing endpoint). All neighbors of a row that are still
// unseen contribute the same m·unseen and fold into one scalar: the row's
// total transition mass, fixed at join, minus the mass logged for the row so
// far — being logged is all it takes to move a newcomer out of that scalar.
//
// load counting-sorts the log by source slot into the sweep copy — O(|E(S)|),
// stable, so a row sums its entries in the order they were logged — and refine
// sweeps the rows in slot order, the order Stage I reached the nodes from the
// query outward. The arrays are resliced per query and grow once, so a pooled
// tracker refines without allocating.
type refiner struct {
	log []logged

	// Per slot, appended by join.
	restart []float64 // restart weight
	mass    []float64 // total transition mass of the row

	// The sweep copy, rebuilt by load: row r's entries are
	// col/m[end[r]:end[r+1]], out[r] its transition mass into unseen neighbors.
	end []int32
	col []int32
	m   []float64
	out []float64

	lo, up []float64 // bounds by slot
	// border lists the slots of the border nodes, for a refinement that
	// re-tightens the unseen bound (TFlat only, which fills it).
	border []int32
}

// logged is one entry of the edge log.
type logged struct {
	src, dst int32
	m        float64
}

// reset empties the log for a new query.
func (k *refiner) reset() {
	k.log, k.restart, k.mass = k.log[:0], k.restart[:0], k.mass[:0]
}

// join opens the next slot: the row of a node with the given restart weight
// whose transition probabilities, to seen and unseen neighbors alike, sum to
// mass.
func (k *refiner) join(restart, mass float64) {
	k.restart, k.mass = append(k.restart, restart), append(k.mass, mass)
}

// add logs one induced edge.
func (k *refiner) add(src, dst int32, m float64) {
	k.log = append(k.log, logged{src, dst, m})
}

// load sorts the log into the sweep copy, folds every row's unseen mass and
// copies the bounds of b into the slot arrays.
func (k *refiner) load(b *scratch.Bounds) {
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
	k.lo, k.up = k.lo[:0], k.up[:0]
	for r, v := range b.Touched() {
		lo, up, _ := b.Get(v)
		k.lo, k.up = append(k.lo, lo), append(k.up, up)
		k.out[r] = max(0, k.out[r]) // rounding may leave a sliver below zero
	}
}

// refine performs up to maxIter Gauss–Seidel sweeps of Eq. 17–18 over b in
// slot order, keeping every bound monotone (lower bounds only rise, upper
// bounds only fall), and stops early once no bound moved by tol. An unseen
// neighbor contributes lower bound zero and the unseen upper bound as it
// stands at sweep time: with tighten set, Eq. 22 over the border slots
// re-tightens it after every sweep. It returns the unseen bound.
func (k *refiner) refine(b *scratch.Bounds, alpha float64, maxIter int, tol, unseen float64, tighten bool) float64 {
	k.load(b)
	// The reslices here and in the row loop tell the compiler the paired
	// arrays are equally long, which drops all but one bounds check from the
	// per-entry loop.
	lo := k.lo
	up := k.up[:len(lo)]
	ends := k.end[1 : len(lo)+1]
	for iter := 0; iter < maxIter; iter++ {
		maxChange := 0.0
		begin := int32(0)
		for r, end := range ends {
			sumLo, sumUp := 0.0, k.out[r]*unseen
			ms := k.m[begin:end]
			col := k.col[begin:end][:len(ms)]
			for e, m := range ms {
				j := col[e]
				sumLo += m * lo[j]
				sumUp += m * up[j]
			}
			begin = end
			newLo := alpha*k.restart[r] + (1-alpha)*sumLo
			newUp := alpha*k.restart[r] + (1-alpha)*sumUp
			if newLo > lo[r] {
				maxChange = max(maxChange, newLo-lo[r])
				lo[r] = newLo
			}
			if newUp < up[r] {
				maxChange = max(maxChange, up[r]-newUp)
				up[r] = newUp
			}
		}
		if tighten {
			maxBorder := 0.0
			for _, j := range k.border {
				maxBorder = max(maxBorder, up[j])
			}
			unseen = min(unseen, (1-alpha)*maxBorder)
		}
		if maxChange < tol {
			break
		}
	}
	for r, v := range b.Touched() {
		b.Set(v, lo[r], up[r])
	}
	return unseen
}
