// This file defines the core Graph structure and the View contract; the
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

// View is the closed contract of a graph layout: what a layout owes a solver
// and nothing else. The three layouts — *Graph, *CompactedView and *Packed —
// implement it here; nothing outside this package does. A solver reaches the
// adjacency through exactly two seams: NewRows, the row-streaming seam of the
// online searcher (Algorithm 1 reads the out- and in-rows of the nodes it
// touches), and OutSums/InSums with FlatRows, the rows the exact F-Rank/T-Rank
// iterations (Eq. 5 and 8) sweep: a solve fetches its support — the nodes a
// walk can reach, listed ascending — once per direction as flat arrays and
// reduces it every sweep with CSR.Gather, the one gather kernel, so a layout
// is a row decoder beneath it. Caller-owned arrays come in through Compact.
type View interface {
	// NumNodes returns the number of nodes. Node IDs are 0..NumNodes-1.
	NumNodes() int
	// Epoch returns the snapshot version, zero when the layout is unversioned.
	Epoch() uint64
	// Fingerprint identifies the content: GraphFingerprint of the flat arrays
	// the layout holds (or was packed from). Layouts of the same content at
	// the same epoch agree on it.
	Fingerprint() uint32
	// NewRows returns the layout's rows for one query. The flat layouts are
	// Rows themselves and return themselves, allocating nothing; *Packed
	// returns a session that is cheap, not safe for concurrent use, and must
	// not outlive the view. A row is valid until the next call for its
	// direction (Rows.OutRow).
	NewRows() Rows
	// OutSums returns every node's total out-weight, read-only.
	OutSums() []float64
	// InSums returns every node's total in-weight, read-only: a node whose
	// in-weight is zero has no in-row a gather could make non-zero.
	InSums() []float64
	// FlatRows returns one direction's rows as a read-only CSR over every
	// node that holds at least the rows listed, ascending, in rows (every
	// row when nil); an unlisted row may read as empty. The flat layouts
	// return their own arrays; *Packed decodes the listed rows into fresh
	// ones, in the unit form when each weighs 1. CSR.Gather over the result
	// with the same list is bit-identical across layouts of one content.
	FlatRows(dir Dir, rows []NodeID) CSR
}

// Dir selects one direction of a layout's adjacency: Out, each node's
// out-edges (the rows T-Rank sweeps), or In, its in-edges (F-Rank's).
type Dir uint8

const (
	Out Dir = iota
	In
)

// String returns the direction's wire spelling, "in" or "out" (the dir
// parameter of a worker's /v1/multiply).
func (d Dir) String() string {
	switch d {
	case Out:
		return "out"
	case In:
		return "in"
	}
	return fmt.Sprintf("Dir(%d)", uint8(d))
}

// RowsProvider is the old name of the part of View that mints row sessions.
// It survives only because bench/probes.go asserts it: ROADMAP item 1(h)
// drops that assertion and deletes this.
type RowsProvider = View

// CSR is one adjacency direction in compressed-sparse-row form: the neighbors
// of row v are Col[RowPtr[v]:RowPtr[v+1]] with matching Weight entries, and
// Sum[v] caches the total edge weight of the row. The slices alias the owning
// view's storage and must be treated as read-only.
//
// Weight is nil in the unit form, where every entry weighs 1: Row hands out
// its weights from a shared slice of ones, and Gather sums x[col] directly.
// Only this package creates the form (unitForm, which Build, Commit and
// Without call); arrays from outside — Compact's, a decoded stripe's, a
// fetched row — carry one weight per column, and the flat check refuses a nil
// Weight on them.
type CSR struct {
	RowPtr []int64
	Col    []NodeID
	Weight []float64
	Sum    []float64

	// ones is non-nil exactly in the unit form: as long as the longest row,
	// never written once made, so concurrent readers share it.
	ones []float64
}

// Row returns the neighbor and weight slices of row v, backed by the CSR
// arrays (by its ones in the unit form).
func (c CSR) Row(v NodeID) ([]NodeID, []float64) {
	lo, hi := c.RowPtr[v], c.RowPtr[v+1]
	if c.ones != nil {
		n := hi - lo
		return c.Col[lo:hi], c.ones[:n:n]
	}
	return c.Col[lo:hi], c.Weight[lo:hi]
}

// unitForm is the one place the unit form is decided: it returns c without
// its Weight array when every weight is exactly 1, and c unchanged otherwise.
// Build, Commit and Without pass their out-rows through it, and transpose
// carries the verdict to the in-rows, so a commit that sets a weight of 2
// keeps both arrays and one that restores all 1s drops them again.
func unitForm(c CSR) CSR {
	for _, w := range c.Weight {
		if w != 1 {
			return c
		}
	}
	return c.withOnes()
}

// withOnes drops c's weights for a ones slice as long as its longest row.
func (c CSR) withOnes() CSR {
	longest := int64(0)
	for v := 1; v < len(c.RowPtr); v++ {
		longest = max(longest, c.RowPtr[v]-c.RowPtr[v-1])
	}
	c.Weight, c.ones = nil, make([]float64, longest)
	for i := range c.ones {
		c.ones[i] = 1
	}
	return c
}

// Degree returns the number of entries in row v.
func (c CSR) Degree(v NodeID) int {
	return int(c.RowPtr[v+1] - c.RowPtr[v])
}

// Gather is the one row reduction of every exact solve: it fills
// dst[r] = Σ_i Weight[i]·x[Col[i]] over row r's entries, for every r in
// rows[lo:hi] — the support of a solve, ascending — or, when rows is nil, for
// lo ≤ r < hi. Each row is reduced sequentially in stored entry order, so
// however callers split the list or the range across goroutines the result is
// bit-identical, and equal on every layout's FlatRows of the same content.
// Weighted rows are reduced two at a time, consecutive in the range or the
// list (gatherPair), which overlaps their chains of adds and changes no row's
// order. The unit form has loops of its own that stream no weights and take
// one row at a time; their result is the same bit for bit, since 1·x == x
// exactly, fused multiply-add or not.
func (c CSR) Gather(x, dst []float64, rows []NodeID, lo, hi int) {
	if rows != nil {
		c.gatherListed(x, dst, rows[lo:hi])
		return
	}
	c.gatherRange(x, dst, lo, hi)
}

// gatherRange is Gather over the rows lo ≤ r < hi.
func (c CSR) gatherRange(x, dst []float64, lo, hi int) {
	if c.ones != nil {
		start := c.RowPtr[lo]
		for r, end := range c.RowPtr[lo+1 : hi+1] {
			sum := 0.0
			for _, col := range c.Col[start:end] {
				sum += x[col]
			}
			dst[lo+r] = sum
			start = end
		}
		return
	}
	r := lo
	for ; r+1 < hi; r += 2 {
		mid := c.RowPtr[r+1]
		dst[r], dst[r+1] = gatherPair(x, c.Col, c.Weight, c.RowPtr[r], mid, mid, c.RowPtr[r+2])
	}
	if r < hi {
		dst[r] = gatherRow(x, c.Col, c.Weight, c.RowPtr[r], c.RowPtr[r+1])
	}
}

// gatherListed is Gather over the listed rows alone: a row it skips costs
// nothing, not even the row exit and the store a range loop spends on an
// empty row.
func (c CSR) gatherListed(x, dst []float64, rows []NodeID) {
	if c.ones != nil {
		for _, r := range rows {
			sum := 0.0
			for _, col := range c.Col[c.RowPtr[r]:c.RowPtr[r+1]] {
				sum += x[col]
			}
			dst[r] = sum
		}
		return
	}
	k := 0
	for ; k+1 < len(rows); k += 2 {
		a, b := rows[k], rows[k+1]
		dst[a], dst[b] = gatherPair(x, c.Col, c.Weight, c.RowPtr[a], c.RowPtr[a+1], c.RowPtr[b], c.RowPtr[b+1])
	}
	if k < len(rows) {
		r := rows[k]
		dst[r] = gatherRow(x, c.Col, c.Weight, c.RowPtr[r], c.RowPtr[r+1])
	}
}

// gatherPair reduces two weighted rows, entries aLo ≤ i < aHi and
// bLo ≤ i < bHi, with one chain each. The two chains advance one entry apiece
// up to the shorter row's length, then the longer row finishes alone: each
// row is still summed sequentially in stored entry order — the result is
// gatherRow's bit for bit. A weighted row whose entries are in cache is bound
// by its chain of adds, each waiting on the last, and two chains overlap
// those waits: on one core, BibNet 0.12 gathers in 0.58 ns/edge, against 0.82
// one row at a time (BenchmarkCSRGather). The unit loops stay one row at a
// time: their rows are memory-bound, and pairing R-MAT 10^5's measured 4 %
// slower. It takes the three slices, not the CSR, so that a call copies no
// struct.
func gatherPair(x []float64, col []NodeID, w []float64, aLo, aHi, bLo, bHi int64) (float64, float64) {
	ac, aw := col[aLo:aHi], w[aLo:aHi]
	bc, bw := col[bLo:bHi], w[bLo:bHi]
	n := min(len(ac), len(bc))
	pac, paw, pbc, pbw := ac[:n], aw[:n], bc[:n], bw[:n]
	s0, s1 := 0.0, 0.0
	for i, ca := range pac {
		s0 += paw[i] * x[ca]
		s1 += pbw[i] * x[pbc[i]]
	}
	for i := n; i < len(ac); i++ {
		s0 += aw[i] * x[ac[i]]
	}
	for i := n; i < len(bc); i++ {
		s1 += bw[i] * x[bc[i]]
	}
	return s0, s1
}

// gatherRow reduces one weighted row, entries lo ≤ i < hi, in stored order.
func gatherRow(x []float64, col []NodeID, w []float64, lo, hi int64) float64 {
	sum := 0.0
	rc, rw := col[lo:hi], w[lo:hi]
	for i, cc := range rc {
		sum += rw[i] * x[cc]
	}
	return sum
}

// transpose is the one place the in-row layout is written: it returns the
// transposed CSR of c by counting sort. Rows of c are visited in ascending
// order, so each in-row lists its sources ascending and its sum accumulates in
// that order. Build, Commit and Without all call it, which is why their
// arrays are bit-identical for the same edges. The transpose of a unit-form
// CSR is in the unit form too.
func (c CSR) transpose() CSR {
	n := len(c.RowPtr) - 1
	t := CSR{RowPtr: make([]int64, n+1), Col: make([]NodeID, len(c.Col)), Sum: make([]float64, n)}
	if c.ones == nil {
		t.Weight = make([]float64, len(c.Col))
	}
	for _, to := range c.Col {
		t.RowPtr[to+1]++
	}
	for v := 0; v < n; v++ {
		t.RowPtr[v+1] += t.RowPtr[v]
	}
	cursor := make([]int64, n)
	copy(cursor, t.RowPtr[:n])
	for v := 0; v < n; v++ {
		cols, ws := c.Row(NodeID(v))
		for i, to := range cols {
			t.Col[cursor[to]] = NodeID(v)
			if t.Weight != nil {
				t.Weight[cursor[to]] = ws[i]
			}
			t.Sum[to] += ws[i]
			cursor[to]++
		}
	}
	if c.ones != nil {
		return t.withOnes()
	}
	return t
}

// check is the one flat-CSR check, which graphs and stripes are held to:
// rows+1 offsets from zero that never decrease and cover the columns exactly,
// one weight per column (or the unit form, which only this package makes) and
// one cached sum per row, every row valid under CheckRow and its cached sum
// equal to the sum of its weights. Row r holds the adjacency of node
// first + r·step: of every node for a graph (0, 1), of Index + r·Count for a
// stripe.
func (c CSR) check(rows, numNodes, first, step int) error {
	switch {
	case len(c.RowPtr) != rows+1:
		return fmt.Errorf("%d offsets for %d rows", len(c.RowPtr), rows)
	case c.RowPtr[0] != 0:
		return fmt.Errorf("offsets must start at zero")
	case c.ones == nil && len(c.Weight) != len(c.Col):
		return fmt.Errorf("%d weights for %d columns", len(c.Weight), len(c.Col))
	case len(c.Sum) != rows:
		return fmt.Errorf("%d row sums for %d rows", len(c.Sum), rows)
	case c.RowPtr[rows] != int64(len(c.Col)):
		return fmt.Errorf("offsets cover %d of %d columns", c.RowPtr[rows], len(c.Col))
	}
	for r := 0; r < rows; r++ {
		lo, hi := c.RowPtr[r], c.RowPtr[r+1]
		if hi < lo || hi > int64(len(c.Col)) {
			return fmt.Errorf("row %d offsets [%d,%d) invalid", r, lo, hi)
		}
		cols, ws := c.Row(NodeID(r))
		sum, err := CheckRow(NodeID(first+r*step), cols, ws, numNodes)
		if err != nil {
			return fmt.Errorf("row %d: %w", r, err)
		}
		if math.IsNaN(c.Sum[r]) || math.Abs(sum-c.Sum[r]) > 1e-9*(1+sum) {
			return fmt.Errorf("row %d cached sum %g != %g", r, c.Sum[r], sum)
		}
	}
	return nil
}

// CheckRow is the row half of the flat-CSR check, and what a row fetched from
// a worker is held to: one weight per column, and every entry, read as an edge
// between the row's own node and the column, valid under the edge rule. Either
// half of a node's adjacency is checked the same way, the rule being
// symmetric. It returns the row's weight sum, accumulated in stored order.
func CheckRow(node NodeID, cols []NodeID, weights []float64, numNodes int) (float64, error) {
	if len(weights) != len(cols) {
		return 0, fmt.Errorf("%d weights for %d columns", len(weights), len(cols))
	}
	sum := 0.0
	for i, col := range cols {
		if err := checkEdge(node, col, weights[i], numNodes); err != nil {
			return 0, err
		}
		sum += weights[i]
	}
	return sum, nil
}

// checkEdge is the edge rule, the one check every door an edge comes through
// applies — Builder.AddEdge, Delta.SetEdge and, through CheckRow, stripes and
// fetched rows: both endpoints inside [0, numNodes), no self-loop, a weight
// positive and finite. Self-loops are refused because the neighborhood bounds
// of Sect. V-A (Prop. 4 and the border-node bound of Eq. 22) assume a random
// surfer cannot stay in place, which holds for the paper's bibliographic and
// query-log graphs; an infinite weight would pass through every solver as NaN
// products.
func checkEdge(from, to NodeID, w float64, numNodes int) error {
	for _, v := range [2]NodeID{from, to} {
		if v < 0 || int(v) >= numNodes {
			return fmt.Errorf("node %d out of range [0,%d)", v, numNodes)
		}
	}
	if from == to {
		return fmt.Errorf("self-loop on node %d is not supported", from)
	}
	// The comparison is written so NaN fails it too.
	if !(w > 0) || math.IsInf(w, 0) {
		return fmt.Errorf("edge weight must be positive and finite, got %g", w)
	}
	return nil
}

// CSRView is "has flat arrays": what Compact wraps and what Pack,
// BuildStripeData and GraphFingerprint read. *Graph and *CompactedView
// implement it; a caller (or a test) that owns adjacency arrays implements
// these three methods and puts them under a solver with Compact.
// Implementations must return immutable arrays: the kernels read them
// concurrently from multiple goroutines.
type CSRView interface {
	// NumNodes returns the number of nodes.
	NumNodes() int
	// OutCSR returns the forward adjacency: row v lists the edges v->to.
	OutCSR() CSR
	// InCSR returns the transposed adjacency used by reverse walks: row v
	// lists the edges from->v.
	InCSR() CSR
}

// The three layouts implement the closed contract; the flat ones are also
// their own Rows and CSRView.
var (
	_ View    = (*Graph)(nil)
	_ View    = (*CompactedView)(nil)
	_ View    = (*Packed)(nil)
	_ Rows    = (*Graph)(nil)
	_ Rows    = (*CompactedView)(nil)
	_ CSRView = (*Graph)(nil)
)

// Graph is an immutable CSR graph. Construct with a Builder, or derive a new
// snapshot from an existing Graph with Commit. Mutation never happens in
// place: Commit merges a Delta into a fresh Graph one epoch later, so every
// *Graph ever handed out keeps serving its own consistent adjacency.
//
// Its adjacency is the embedded flat layout — the forward arrays and their
// transposed copy, so forward walks (F-Rank), backward walks (T-Rank) and
// border-node expansions all stream flat arrays — which is where the View,
// Rows and CSRView accessors are written, once for both flat layouts. On top
// of it a Graph carries what only a built graph has: labels, types, an epoch
// and a cached fingerprint — so hand a solver, Pack or BuildStripeData the
// *Graph, never the embedded layout, which on its own is unversioned.
type Graph struct {
	CompactedView
	numEdges int
	epoch    uint64

	// fp lazily caches Fingerprint: the CSR arrays are immutable, and
	// serving endpoints poll the fingerprint far more often than it changes.
	fpOnce sync.Once
	fp     uint32

	types  []Type
	labels []string

	typeNames map[Type]string
	byLabel   map[string]NodeID
}

// Epoch returns the graph's snapshot version: zero for a freshly built graph,
// incremented by every Commit. The epoch is stamped into the fingerprint, so
// two snapshots of an evolving graph never alias even when a sequence of
// commits happens to restore an earlier adjacency.
func (g *Graph) Epoch() uint64 { return g.epoch }

// Fingerprint implements View: the epoch-stamped content hash, computed once.
func (g *Graph) Fingerprint() uint32 {
	g.fpOnce.Do(func() { g.fp = computeFingerprint(g.numNodes, g.epoch, g.out) })
	return g.fp
}

// NewRows implements View: a *Graph is its own Rows.
func (g *Graph) NewRows() Rows { return g }

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

// Degree returns the total (in + out) degree of v.
func (g *Graph) Degree(v NodeID) int { return g.out.Degree(v) + g.in.Degree(v) }

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

// EdgeWeight returns the weight of the directed edge from->to and whether it
// exists. If parallel edges were merged at build time there is at most one.
func (g *Graph) EdgeWeight(from, to NodeID) (float64, bool) {
	cols, ws := g.out.Row(from)
	for i, t := range cols {
		if t == to {
			return ws[i], true
		}
	}
	return 0, false
}

// HasEdge reports whether a directed edge from->to exists.
func (g *Graph) HasEdge(from, to NodeID) bool {
	_, ok := g.EdgeWeight(from, to)
	return ok
}

// TransitionProb returns the one-step random-walk transition probability
// M[from][to] = w(from,to) / OutSum(from). It is zero when the edge does
// not exist or when from has no outgoing weight.
func (g *Graph) TransitionProb(from, to NodeID) float64 {
	return TransitionProb(g, from, to)
}

// SizeBytes returns the in-memory size of the adjacency — both directions'
// arrays, as CSR.SizeBytes counts them — plus one type byte per node; label
// strings are excluded. It is used by the scalability experiments to report
// snapshot sizes.
func (g *Graph) SizeBytes() int64 {
	return g.out.SizeBytes() + g.in.SizeBytes() + int64(len(g.types))
}

// Validate holds both directions to the one flat-CSR check and checks they
// carry the same edge count. It is primarily used in tests.
func (g *Graph) Validate() error {
	if err := checkPair(g.out, g.in, g.numNodes, g.numNodes, 0, 1); err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	if len(g.out.Col) != g.numEdges || len(g.in.Col) != g.numEdges {
		return fmt.Errorf("graph: %d out and %d in edges, want %d", len(g.out.Col), len(g.in.Col), g.numEdges)
	}
	return nil
}

// checkPair runs the flat-CSR check on the two directions of one adjacency.
func checkPair(out, in CSR, rows, numNodes, first, step int) error {
	if err := out.check(rows, numNodes, first, step); err != nil {
		return fmt.Errorf("out: %w", err)
	}
	if err := in.check(rows, numNodes, first, step); err != nil {
		return fmt.Errorf("in: %w", err)
	}
	return nil
}

// TransitionProb returns the one-step transition probability M[from][to] on
// any layout.
func TransitionProb(v View, from, to NodeID) float64 {
	rows := v.NewRows()
	sum := rows.OutSum(from)
	if sum <= 0 {
		return 0
	}
	cols, ws := rows.OutRow(from)
	for i, t := range cols {
		if t == to {
			return ws[i] / sum
		}
	}
	return 0
}
