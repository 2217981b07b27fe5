package graph

// CompactedView is an arbitrary View flattened into immutable CSR arrays. It
// carries no labels or types — only the adjacency structure — and is how
// wrapped views (masked, tracking, overlay) reach the flat walk kernels, which
// require the CSRView layout. Like *Graph it is also a Rows.
//
// A compaction is a snapshot: later changes to the source view (e.g. a
// different edge mask) are not reflected.
type CompactedView struct {
	n   int
	out CSR
	in  CSR
}

// Compact flattens view into a CompactedView with one pass over its out- and
// in-adjacency. If view is already a CSRView it is returned wrapped without
// copying. The cost is O(nodes + edges); worth paying when the same view is
// solved against repeatedly, as in the evaluation sweeps that run many
// measures over one masked graph.
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
