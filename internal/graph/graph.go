// This file defines the core Graph structure and View interfaces; the
// package documentation lives in doc.go.
package graph

import (
	"fmt"
	"math"
	"sync"
)

// NodeID identifies a node in a Graph. IDs are dense indices in [0, NumNodes).
type NodeID int32

// NoNode is returned by lookups that fail.
const NoNode NodeID = -1

// Type is a small integer node type. Types are registered on the Builder and
// carried over to the Graph; the zero value is "untyped".
type Type uint8

// Untyped is the default node type.
const Untyped Type = 0

// View is the read interface consumed by walk engines, bounds frameworks and
// top-K algorithms. *Graph, *CompactedView and *Packed implement it.
type View interface {
	// NumNodes returns the number of nodes. Node IDs are 0..NumNodes-1.
	NumNodes() int
	// OutDegree returns the number of outgoing edges of v.
	OutDegree(v NodeID) int
	// InDegree returns the number of incoming edges of v.
	InDegree(v NodeID) int
	// OutWeightSum returns the total weight of v's outgoing edges.
	OutWeightSum(v NodeID) float64
	// InWeightSum returns the total weight of v's incoming edges.
	InWeightSum(v NodeID) float64
	// EachOut calls fn for every outgoing edge v->to with weight w, until fn
	// returns false.
	EachOut(v NodeID, fn func(to NodeID, w float64) bool)
	// EachIn calls fn for every incoming edge from->v with weight w, until fn
	// returns false.
	EachIn(v NodeID, fn func(from NodeID, w float64) bool)
}

// CSR is one adjacency direction in compressed-sparse-row form: the neighbors
// of row v are Col[RowPtr[v]:RowPtr[v+1]] with matching Weight entries, and
// Sum[v] caches the total edge weight of the row. The slices alias the owning
// view's storage and must be treated as read-only.
type CSR struct {
	RowPtr []int64
	Col    []NodeID
	Weight []float64
	Sum    []float64
}

// Row returns the neighbor and weight slices of row v, backed by the CSR
// arrays.
func (c CSR) Row(v NodeID) ([]NodeID, []float64) {
	lo, hi := c.RowPtr[v], c.RowPtr[v+1]
	return c.Col[lo:hi], c.Weight[lo:hi]
}

// Degree returns the number of entries in row v.
func (c CSR) Degree(v NodeID) int {
	return int(c.RowPtr[v+1] - c.RowPtr[v])
}

// Gather is the flat row reduction of every exact solve: it fills
// dst[r] = Σ_i Weight[i]·x[Col[i]] over row r's entries, for lo ≤ r < hi. Each
// row is reduced sequentially in stored entry order, so however callers split
// [lo, hi) across goroutines the result is bit-identical — and equal to
// PackedCSR.Gather on the packed form of the same rows.
func (c CSR) Gather(x, dst []float64, lo, hi int) {
	for r := lo; r < hi; r++ {
		sum := 0.0
		rowLo, rowHi := c.RowPtr[r], c.RowPtr[r+1]
		for i := rowLo; i < rowHi; i++ {
			sum += c.Weight[i] * x[c.Col[i]]
		}
		dst[r] = sum
	}
}

// CSRView is implemented by views that expose their adjacency as flat CSR
// arrays, the layout the flat walk kernels run on; a view that cannot provide
// it (an ad-hoc wrapper) is flattened with Compact first.
// Implementations must return immutable arrays: the kernels read them
// concurrently from multiple goroutines.
type CSRView interface {
	View
	// OutCSR returns the forward adjacency: row v lists the edges v->to.
	OutCSR() CSR
	// InCSR returns the transposed adjacency used by reverse walks: row v
	// lists the edges from->v.
	InCSR() CSR
}

// Graph is an immutable CSR graph. Construct with a Builder, or derive a new
// snapshot from an existing Graph with Commit. Mutation never happens in
// place: Commit merges a Delta into a fresh Graph one epoch later, so every
// *Graph ever handed out keeps serving its own consistent adjacency.
type Graph struct {
	numNodes int
	numEdges int
	epoch    uint64

	// fp lazily caches GraphFingerprint: the CSR arrays are immutable, and
	// serving endpoints poll the fingerprint far more often than it changes.
	fpOnce sync.Once
	fp     uint32

	types  []Type
	labels []string

	// Forward adjacency and its transposed copy, so forward walks (F-Rank),
	// backward walks (T-Rank) and border-node expansions all stream flat
	// arrays.
	out CSR
	in  CSR

	typeNames map[Type]string
	byLabel   map[string]NodeID
}

// OutCSR implements CSRView.
func (g *Graph) OutCSR() CSR { return g.out }

// InCSR implements CSRView.
func (g *Graph) InCSR() CSR { return g.in }

// Epoch returns the graph's snapshot version: zero for a freshly built graph,
// incremented by every Commit. The epoch is stamped into GraphFingerprint, so
// two snapshots of an evolving graph never alias even when a sequence of
// commits happens to restore an earlier adjacency.
func (g *Graph) Epoch() uint64 { return g.epoch }

// NumNodes returns the number of nodes in the graph.
func (g *Graph) NumNodes() int { return g.numNodes }

// NumEdges returns the number of directed edges in the graph.
func (g *Graph) NumEdges() int { return g.numEdges }

// Type returns the type of node v.
func (g *Graph) Type(v NodeID) Type { return g.types[v] }

// Label returns the label of node v.
func (g *Graph) Label(v NodeID) string { return g.labels[v] }

// TypeName returns the registered human-readable name of a node type, or a
// numeric fallback when the type was never named.
func (g *Graph) TypeName(t Type) string {
	if name, ok := g.typeNames[t]; ok {
		return name
	}
	return fmt.Sprintf("type-%d", t)
}

// NodeByLabel returns the node with the given label, or NoNode.
func (g *Graph) NodeByLabel(label string) NodeID {
	if v, ok := g.byLabel[label]; ok {
		return v
	}
	return NoNode
}

// NodesOfType returns all node IDs with the given type, in increasing order.
func (g *Graph) NodesOfType(t Type) []NodeID {
	var out []NodeID
	for v := 0; v < g.numNodes; v++ {
		if g.types[v] == t {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// CountOfType returns the number of nodes with the given type.
func (g *Graph) CountOfType(t Type) int {
	n := 0
	for v := 0; v < g.numNodes; v++ {
		if g.types[v] == t {
			n++
		}
	}
	return n
}

// OutDegree returns the number of outgoing edges of v.
func (g *Graph) OutDegree(v NodeID) int { return g.out.Degree(v) }

// InDegree returns the number of incoming edges of v.
func (g *Graph) InDegree(v NodeID) int { return g.in.Degree(v) }

// Degree returns the total (in + out) degree of v.
func (g *Graph) Degree(v NodeID) int {
	return g.OutDegree(v) + g.InDegree(v)
}

// OutWeightSum returns the total outgoing edge weight of v.
func (g *Graph) OutWeightSum(v NodeID) float64 { return g.out.Sum[v] }

// InWeightSum returns the total incoming edge weight of v.
func (g *Graph) InWeightSum(v NodeID) float64 { return g.in.Sum[v] }

// EachOut iterates v's outgoing edges.
func (g *Graph) EachOut(v NodeID, fn func(to NodeID, w float64) bool) {
	lo, hi := g.out.RowPtr[v], g.out.RowPtr[v+1]
	for i := lo; i < hi; i++ {
		if !fn(g.out.Col[i], g.out.Weight[i]) {
			return
		}
	}
}

// EachIn iterates v's incoming edges.
func (g *Graph) EachIn(v NodeID, fn func(from NodeID, w float64) bool) {
	lo, hi := g.in.RowPtr[v], g.in.RowPtr[v+1]
	for i := lo; i < hi; i++ {
		if !fn(g.in.Col[i], g.in.Weight[i]) {
			return
		}
	}
}

// OutNeighbors returns the out-neighbor IDs and weights of v as slices backed
// by the graph's internal arrays; callers must not modify them.
func (g *Graph) OutNeighbors(v NodeID) ([]NodeID, []float64) {
	return g.out.Row(v)
}

// InNeighbors returns the in-neighbor IDs and weights of v as slices backed by
// the graph's internal arrays; callers must not modify them.
func (g *Graph) InNeighbors(v NodeID) ([]NodeID, []float64) {
	return g.in.Row(v)
}

// OutSum implements Rows. With OutRow, InRow and Err (and NumNodes and
// OutDegree above) it makes a *Graph a Rows: the online searcher reads the CSR
// arrays through the same seam as every other representation, with no
// per-query session object.
func (g *Graph) OutSum(v NodeID) float64 { return g.out.Sum[v] }

// OutRow implements Rows.
func (g *Graph) OutRow(v NodeID) ([]NodeID, []float64) { return g.out.Row(v) }

// InRow implements Rows.
func (g *Graph) InRow(v NodeID) ([]NodeID, []float64) { return g.in.Row(v) }

// Err implements Rows: reading the arrays cannot fail.
func (g *Graph) Err() error { return nil }

// EdgeWeight returns the weight of the directed edge from->to and whether it
// exists. If parallel edges were merged at build time there is at most one.
func (g *Graph) EdgeWeight(from, to NodeID) (float64, bool) {
	w := 0.0
	found := false
	g.EachOut(from, func(t NodeID, ew float64) bool {
		if t == to {
			w = ew
			found = true
			return false
		}
		return true
	})
	return w, found
}

// HasEdge reports whether a directed edge from->to exists.
func (g *Graph) HasEdge(from, to NodeID) bool {
	_, ok := g.EdgeWeight(from, to)
	return ok
}

// TransitionProb returns the one-step random-walk transition probability
// M[from][to] = w(from,to) / OutWeightSum(from). It is zero when the edge does
// not exist or when from has no outgoing weight.
func (g *Graph) TransitionProb(from, to NodeID) float64 {
	return TransitionProb(g, from, to)
}

// AverageDegree returns the average out-degree of the graph.
func (g *Graph) AverageDegree() float64 {
	if g.numNodes == 0 {
		return 0
	}
	return float64(g.numEdges) / float64(g.numNodes)
}

// SizeBytes returns an estimate of the in-memory size of the CSR structure
// (adjacency arrays and per-node metadata; label strings excluded). It is used
// by the scalability experiments to report snapshot sizes.
func (g *Graph) SizeBytes() int64 {
	perNode := int64(1 + 8 + 8 + 8 + 8 + 8) // type + 2 offsets + 2 weight sums (approx)
	perEdge := int64(4+8) * 2               // target + weight, both directions
	return int64(g.numNodes)*perNode + int64(g.numEdges)*perEdge
}

// Validate checks internal CSR invariants. It is primarily used in tests.
func (g *Graph) Validate() error {
	if len(g.out.RowPtr) != g.numNodes+1 || len(g.in.RowPtr) != g.numNodes+1 {
		return fmt.Errorf("graph: offset arrays have wrong length")
	}
	if g.out.RowPtr[g.numNodes] != int64(len(g.out.Col)) {
		return fmt.Errorf("graph: out offsets do not cover edge array")
	}
	if g.in.RowPtr[g.numNodes] != int64(len(g.in.Col)) {
		return fmt.Errorf("graph: in offsets do not cover edge array")
	}
	if len(g.out.Col) != len(g.in.Col) {
		return fmt.Errorf("graph: out edge count %d != in edge count %d", len(g.out.Col), len(g.in.Col))
	}
	for v := 0; v < g.numNodes; v++ {
		sum := 0.0
		g.EachOut(NodeID(v), func(to NodeID, w float64) bool {
			if to < 0 || int(to) >= g.numNodes {
				sum = math.NaN()
				return false
			}
			if w <= 0 {
				sum = math.NaN()
				return false
			}
			sum += w
			return true
		})
		if math.IsNaN(sum) {
			return fmt.Errorf("graph: node %d has an invalid outgoing edge", v)
		}
		if math.Abs(sum-g.out.Sum[v]) > 1e-9*(1+sum) {
			return fmt.Errorf("graph: node %d out weight sum mismatch: %g vs %g", v, sum, g.out.Sum[v])
		}
		sum = 0.0
		g.EachIn(NodeID(v), func(from NodeID, w float64) bool {
			sum += w
			return true
		})
		if math.Abs(sum-g.in.Sum[v]) > 1e-9*(1+sum) {
			return fmt.Errorf("graph: node %d in weight sum mismatch: %g vs %g", v, sum, g.in.Sum[v])
		}
	}
	return nil
}

// TransitionProb returns the one-step transition probability M[from][to] on an
// arbitrary View.
func TransitionProb(v View, from, to NodeID) float64 {
	sum := v.OutWeightSum(from)
	if sum <= 0 {
		return 0
	}
	p := 0.0
	v.EachOut(from, func(t NodeID, w float64) bool {
		if t == to {
			p = w / sum
			return false
		}
		return true
	})
	return p
}

// IsStronglyReachable reports whether every node in the view can reach node q
// and be reached from node q (a cheap proxy for irreducibility with respect to
// a query). It runs two BFS traversals.
func IsStronglyReachable(v View, q NodeID) bool {
	n := v.NumNodes()
	reachFwd := bfs(v, q, true)
	reachBwd := bfs(v, q, false)
	for i := 0; i < n; i++ {
		if !reachFwd[i] || !reachBwd[i] {
			return false
		}
	}
	return true
}

func bfs(v View, start NodeID, forward bool) []bool {
	n := v.NumNodes()
	seen := make([]bool, n)
	seen[start] = true
	queue := []NodeID{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		visit := func(next NodeID, _ float64) bool {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
			return true
		}
		if forward {
			v.EachOut(cur, visit)
		} else {
			v.EachIn(cur, visit)
		}
	}
	return seen
}
