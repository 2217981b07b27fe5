package graph

// CompactedView is adjacency in immutable flat CSR arrays and nothing else — no
// labels, no types. It is what any view without flat or packed arrays of its
// own becomes at the door of a solver (Compact), and what a graph with some
// edges taken out is (Graph.Without). Like *Graph it is both a CSRView, the
// layout the walk kernels require, and a Rows.
//
// A compaction is a snapshot: later changes to the source view are not
// reflected.
type CompactedView struct {
	n   int
	out CSR
	in  CSR
}

// Compact flattens view into a CompactedView with one pass over its out- and
// in-adjacency. If view is already a CSRView it is returned wrapped without
// copying. Otherwise the cost is O(nodes + edges), so flatten once and solve
// against the result repeatedly.
func Compact(view View) *CompactedView {
	if cv, ok := view.(CSRView); ok {
		return &CompactedView{n: cv.NumNodes(), out: cv.OutCSR(), in: cv.InCSR()}
	}
	n := view.NumNodes()
	return &CompactedView{
		n:   n,
		out: compactSide(n, view.EachOut),
		in:  compactSide(n, view.EachIn),
	}
}

func compactSide(n int, each func(NodeID, func(NodeID, float64) bool)) CSR {
	c := CSR{
		RowPtr: make([]int64, n+1),
		Sum:    make([]float64, n),
	}
	for v := 0; v < n; v++ {
		each(NodeID(v), func(to NodeID, w float64) bool {
			c.Col = append(c.Col, to)
			c.Weight = append(c.Weight, w)
			c.Sum[v] += w
			return true
		})
		c.RowPtr[v+1] = int64(len(c.Col))
	}
	return c
}

// EdgeKey identifies a directed edge by its endpoints.
type EdgeKey struct {
	From NodeID
	To   NodeID
}

// Without returns g's adjacency with the given directed edges taken out, as
// the evaluation tasks need it: the direct edges between a query node and its
// ground-truth nodes removed. Edges g does not have are ignored; to take out
// an undirected edge pass both directions. Both CSR directions are filtered in
// stored order and the row sums re-accumulated over the survivors, so the
// arrays are bit-identical to a Builder's for the same graph built without
// those edges, and transition probabilities renormalize over what remains.
func (g *Graph) Without(hide []EdgeKey) *CompactedView {
	hidden := make(map[EdgeKey]bool, len(hide))
	for _, k := range hide {
		hidden[k] = true
	}
	return &CompactedView{
		n:   g.numNodes,
		out: g.out.filter(func(from, to NodeID) bool { return !hidden[EdgeKey{from, to}] }),
		in:  g.in.filter(func(to, from NodeID) bool { return !hidden[EdgeKey{from, to}] }),
	}
}

// filter copies the entries keep admits, row by row in stored order.
func (c CSR) filter(keep func(row, col NodeID) bool) CSR {
	n := len(c.Sum)
	f := CSR{RowPtr: make([]int64, n+1), Sum: make([]float64, n)}
	for v := 0; v < n; v++ {
		for i := c.RowPtr[v]; i < c.RowPtr[v+1]; i++ {
			if keep(NodeID(v), c.Col[i]) {
				f.Col = append(f.Col, c.Col[i])
				f.Weight = append(f.Weight, c.Weight[i])
				f.Sum[v] += c.Weight[i]
			}
		}
		f.RowPtr[v+1] = int64(len(f.Col))
	}
	return f
}

// NumNodes implements View.
func (c *CompactedView) NumNodes() int { return c.n }

// OutDegree implements View.
func (c *CompactedView) OutDegree(v NodeID) int { return c.out.Degree(v) }

// InDegree implements View.
func (c *CompactedView) InDegree(v NodeID) int { return c.in.Degree(v) }

// OutWeightSum implements View.
func (c *CompactedView) OutWeightSum(v NodeID) float64 { return c.out.Sum[v] }

// InWeightSum implements View.
func (c *CompactedView) InWeightSum(v NodeID) float64 { return c.in.Sum[v] }

// EachOut implements View.
func (c *CompactedView) EachOut(v NodeID, fn func(to NodeID, w float64) bool) {
	lo, hi := c.out.RowPtr[v], c.out.RowPtr[v+1]
	for i := lo; i < hi; i++ {
		if !fn(c.out.Col[i], c.out.Weight[i]) {
			return
		}
	}
}

// EachIn implements View.
func (c *CompactedView) EachIn(v NodeID, fn func(from NodeID, w float64) bool) {
	lo, hi := c.in.RowPtr[v], c.in.RowPtr[v+1]
	for i := lo; i < hi; i++ {
		if !fn(c.in.Col[i], c.in.Weight[i]) {
			return
		}
	}
}

// OutCSR implements CSRView.
func (c *CompactedView) OutCSR() CSR { return c.out }

// InCSR implements CSRView.
func (c *CompactedView) InCSR() CSR { return c.in }

// OutSum implements Rows.
func (c *CompactedView) OutSum(v NodeID) float64 { return c.out.Sum[v] }

// OutRow implements Rows.
func (c *CompactedView) OutRow(v NodeID) ([]NodeID, []float64) { return c.out.Row(v) }

// InRow implements Rows.
func (c *CompactedView) InRow(v NodeID) ([]NodeID, []float64) { return c.in.Row(v) }

// Err implements Rows: reading the arrays cannot fail.
func (c *CompactedView) Err() error { return nil }
