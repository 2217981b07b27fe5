package graph

// CompactedView is the flat layout: adjacency in immutable CSR arrays and
// nothing else — no labels, no types, no epoch. It is what caller-owned arrays
// become under a solver (Compact), what a graph with some edges taken out is
// (Graph.Without), and the adjacency a *Graph embeds. It is a View, its own
// Rows — three accessors over the arrays it holds — and a CSRView.
type CompactedView struct {
	numNodes int
	out      CSR
	in       CSR
}

// Compact puts flat arrays under a solver: it wraps view's arrays in a
// CompactedView without copying them. It is how a caller with storage of its
// own — or a test with hand-made rows: self-loops, zero weights, dangling
// nodes — reaches the solvers, all of which take a View. It checks nothing:
// with Pack it is the unchecked door, the one way past the edge rule every
// other door applies (checkEdge), so the arrays are the caller's to keep
// valid. The wrapper is unversioned: it reports epoch zero and the
// fingerprint of the arrays alone.
func Compact(view CSRView) *CompactedView {
	return &CompactedView{numNodes: view.NumNodes(), out: view.OutCSR(), in: view.InCSR()}
}

// EdgeKey identifies a directed edge by its endpoints.
type EdgeKey struct {
	From NodeID
	To   NodeID
}

// Without returns g's adjacency with the given directed edges taken out, as
// the evaluation tasks need it: the direct edges between a query node and its
// ground-truth nodes removed. Edges g does not have are ignored; to take out
// an undirected edge pass both directions. The out-rows are filtered in stored
// order with their sums re-accumulated over the survivors, the unit form is
// decided afresh (unitForm) and the in-rows are their transpose, so the arrays
// are bit-identical to a Builder's for the same graph built without those
// edges, and transition probabilities renormalize over what remains.
func (g *Graph) Without(hide []EdgeKey) *CompactedView {
	hidden := make(map[EdgeKey]bool, len(hide))
	for _, k := range hide {
		hidden[k] = true
	}
	out := unitForm(g.out.filter(func(from, to NodeID) bool { return !hidden[EdgeKey{from, to}] }))
	return &CompactedView{numNodes: g.numNodes, out: out, in: out.transpose()}
}

// filter copies the entries keep admits, row by row in stored order, with one
// weight per column.
func (c CSR) filter(keep func(row, col NodeID) bool) CSR {
	n := len(c.Sum)
	f := CSR{RowPtr: make([]int64, n+1), Sum: make([]float64, n)}
	for v := 0; v < n; v++ {
		cols, ws := c.Row(NodeID(v))
		for i, col := range cols {
			if keep(NodeID(v), col) {
				f.Col = append(f.Col, col)
				f.Weight = append(f.Weight, ws[i])
				f.Sum[v] += ws[i]
			}
		}
		f.RowPtr[v+1] = int64(len(f.Col))
	}
	return f
}

// NumNodes implements View.
func (c *CompactedView) NumNodes() int { return c.numNodes }

// Epoch implements View: bare arrays are unversioned.
func (c *CompactedView) Epoch() uint64 { return 0 }

// Fingerprint implements View, hashing the arrays on every call.
func (c *CompactedView) Fingerprint() uint32 { return computeFingerprint(c.numNodes, 0, c.out) }

// NewRows implements View: a flat layout is its own Rows.
func (c *CompactedView) NewRows() Rows { return c }

// OutSums implements View.
func (c *CompactedView) OutSums() []float64 { return c.out.Sum }

// InSums implements View.
func (c *CompactedView) InSums() []float64 { return c.in.Sum }

// FlatRows implements View: its own arrays, every row whatever rows lists.
func (c *CompactedView) FlatRows(dir Dir, _ []NodeID) CSR {
	if dir == In {
		return c.in
	}
	return c.out
}

// OutCSR implements CSRView.
func (c *CompactedView) OutCSR() CSR { return c.out }

// InCSR implements CSRView.
func (c *CompactedView) InCSR() CSR { return c.in }

// OutDegree implements Rows.
func (c *CompactedView) OutDegree(v NodeID) int { return c.out.Degree(v) }

// OutSum implements Rows.
func (c *CompactedView) OutSum(v NodeID) float64 { return c.out.Sum[v] }

// OutRow implements Rows.
func (c *CompactedView) OutRow(v NodeID) ([]NodeID, []float64) { return c.out.Row(v) }

// InRow implements Rows.
func (c *CompactedView) InRow(v NodeID) ([]NodeID, []float64) { return c.in.Row(v) }

// Err implements Rows: reading the arrays cannot fail.
func (c *CompactedView) Err() error { return nil }
