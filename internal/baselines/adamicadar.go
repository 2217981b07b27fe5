package baselines

import (
	"math"

	"roundtriprank/internal/graph"
)

// AdamicAdarMeasure is the common-neighbor measure of Adamic & Adar [7]:
// AA(q, v) = Σ_{z ∈ N(q) ∩ N(v)} 1/log(deg(z)), where N is the undirected
// neighborhood (union of in- and out-neighbors) and deg the undirected degree.
// It is a mono-sensed "closeness" baseline in Fig. 5; nodes more than two hops
// from the query all score zero, which is why it trails the random-walk
// measures in the paper.
type AdamicAdarMeasure struct{}

// NewAdamicAdar returns the AdamicAdar baseline.
func NewAdamicAdar() AdamicAdarMeasure { return AdamicAdarMeasure{} }

// Name implements Measure.
func (AdamicAdarMeasure) Name() string { return "AdamicAdar" }

// Score implements Measure.
func (AdamicAdarMeasure) Score(ctx *Context) ([]float64, error) {
	nq, err := ctx.Query.Normalize()
	if err != nil {
		return nil, err
	}
	rows := ctx.View.NewRows()
	out := make([]float64, rows.NumNodes())
	for qi, qNode := range nq.Nodes {
		weight := nq.Weights[qi]
		for _, z := range undirectedNeighbors(rows, qNode) {
			zNeighbors := undirectedNeighbors(rows, z)
			deg := float64(len(zNeighbors))
			if deg < 2 {
				deg = 2 // avoid log(1) = 0 for leaves
			}
			credit := weight / math.Log(deg)
			for _, v := range zNeighbors {
				if v == qNode {
					continue
				}
				out[v] += credit
			}
		}
	}
	return out, nil
}

// undirectedNeighbors returns the distinct union of in- and out-neighbors.
func undirectedNeighbors(rows graph.Rows, v graph.NodeID) []graph.NodeID {
	seen := make(map[graph.NodeID]bool)
	var out []graph.NodeID
	outs, _ := rows.OutRow(v)
	ins, _ := rows.InRow(v)
	for _, row := range [][]graph.NodeID{outs, ins} {
		for _, u := range row {
			if u != v && !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	return out
}
