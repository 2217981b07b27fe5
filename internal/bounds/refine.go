package bounds

import (
	"slices"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/scratch"
)

// refiner is the Stage-II kernel both trackers share: the iteration of
// Eq. 17–18 over a compact copy of the subgraph the neighborhood induces.
//
// A tracker builds the copy once per refinement — begin, then for every seen
// node in ascending ID order its row through edge/endRow — which is the only
// time Stage II reads the graph: one row per seen node. A seen neighbor
// becomes a local entry (slot, m); all unseen neighbors of a row collapse
// into one scalar, the transition mass Σm that leaves the neighborhood, since
// each of them contributes the same m·unseen. run then sweeps the |E(S)| local
// entries, sequential and cache-resident, as often as the stop rule asks, and
// commit writes the bounds back.
//
// A slot is a node's position in scratch.Bounds.Touched (insertion order), so
// the bounds arrays need no translation on the way in or out; rows are laid
// out in sweep order. The arrays are resliced per build and grow once, so a
// pooled tracker refines without allocating.
type refiner struct {
	nodes []graph.NodeID // the neighborhood in sweep order (ascending ID)

	// Per row r (the row of nodes[r]):
	self    []int32   // slot of nodes[r]
	restart []float64 // restart weight of nodes[r]
	out     []float64 // transition mass into unseen neighbors
	end     []int32   // row r's entries are col/m[end[r-1]:end[r]]

	col []int32   // slot of a seen neighbor
	m   []float64 // its transition probability

	lo, up []float64 // bounds by slot
	// border lists the slots of the border nodes, for a run that re-tightens
	// the unseen bound (TFlat only).
	border []int32
}

// begin starts a build over the current neighborhood of b: it fixes the sweep
// order and copies the bounds into the slot arrays.
func (k *refiner) begin(b *scratch.Bounds) {
	k.nodes = append(k.nodes[:0], b.Touched()...)
	slices.Sort(k.nodes)
	k.self, k.restart, k.out, k.end = k.self[:0], k.restart[:0], k.out[:0], k.end[:0]
	k.col, k.m = k.col[:0], k.m[:0]
	k.lo, k.up = k.lo[:0], k.up[:0]
	k.border = k.border[:0]
	b.Each(func(_ graph.NodeID, lo, up float64) {
		k.lo, k.up = append(k.lo, lo), append(k.up, up)
	})
}

// edge records one neighbor of the row under construction, reached with
// transition probability m, and reports whether it is seen; the caller sums
// the m of the unseen ones into endRow's out.
func (k *refiner) edge(b *scratch.Bounds, to graph.NodeID, m float64) bool {
	slot, seen := b.Index(to)
	if seen {
		k.col, k.m = append(k.col, slot), append(k.m, m)
	}
	return seen
}

// endRow closes the row of v.
func (k *refiner) endRow(b *scratch.Bounds, v graph.NodeID, restart, out float64) {
	slot, _ := b.Index(v)
	k.self = append(k.self, slot)
	k.restart = append(k.restart, restart)
	k.out = append(k.out, out)
	k.end = append(k.end, int32(len(k.col)))
}

// run performs up to maxIter Gauss–Seidel sweeps of Eq. 17–18 in sweep order,
// keeping every bound monotone (lower bounds only rise, upper bounds only
// fall), and stops early once no bound moved by tol. An unseen neighbor
// contributes lower bound zero and the unseen upper bound as it stands at
// sweep time: with tighten set, Eq. 22 over the border slots re-tightens it
// after every sweep. It returns the unseen bound.
func (k *refiner) run(alpha float64, maxIter int, tol, unseen float64, tighten bool) float64 {
	// The reslices here and in the row loop tell the compiler the paired
	// arrays are equally long, which drops all but one bounds check from the
	// per-entry loop.
	lo := k.lo
	up := k.up[:len(lo)]
	for iter := 0; iter < maxIter; iter++ {
		maxChange := 0.0
		begin := int32(0)
		for r, self := range k.self {
			sumLo, sumUp := 0.0, k.out[r]*unseen
			end := k.end[r]
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
			if newLo > lo[self] {
				maxChange = max(maxChange, newLo-lo[self])
				lo[self] = newLo
			}
			if newUp < up[self] {
				maxChange = max(maxChange, up[self]-newUp)
				up[self] = newUp
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
	return unseen
}

// commit writes the refined bounds back to b.
func (k *refiner) commit(b *scratch.Bounds) {
	for slot, v := range b.Touched() {
		b.Set(v, k.lo[slot], k.up[slot])
	}
}
