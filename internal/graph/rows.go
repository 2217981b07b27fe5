package graph

// Rows is the row-streaming access pattern of the online top-K searcher: the
// exact set of reads bca.Flat and bounds.FFlat/TFlat perform against a graph,
// expressed per row. It is the one seam under the searcher — everything the
// searcher knows about a graph. Flat CSR views (*Graph, *CompactedView) are
// Rows themselves, three accessors over the arrays they hold; graph.Packed
// hands out per-query sessions that decode rows; the remote implementation
// (internal/rowserve.Session) serves OutRow/InRow from a row cache filled by
// batched worker RPCs with OutSum/OutDegree in small dense per-node arrays
// assembled once at connect time; and ViewRows adapts any other View. The
// remote split mirrors the paper's AP/GP architecture: the searcher's working
// set is O(rows touched), never the full adjacency.
type Rows interface {
	// NumNodes returns the number of nodes; node IDs are in [0, NumNodes).
	NumNodes() int
	// OutDegree returns the number of out-edges of v.
	OutDegree(v NodeID) int
	// OutSum returns the total out-weight of v.
	OutSum(v NodeID) float64
	// OutRow returns the out-edge targets and weights of v. The slices are
	// read-only and must stay valid while the caller keeps issuing calls on
	// the provider: the searcher's expansion waves iterate one row while
	// fetching the rows of its neighbors (see bounds.TFlat), so a provider
	// cannot serve every row from one reused buffer. CSR-backed providers
	// return slices of the underlying arrays; rowserve pins cached rows;
	// graph.Packed and ViewRows sessions keep each materialized row for the
	// session lifetime.
	OutRow(v NodeID) (cols []NodeID, weights []float64)
	// InRow returns the in-edge sources and weights of v, same contract.
	InRow(v NodeID) (cols []NodeID, weights []float64)
	// Err returns the first failure a row read ran into, nil if none (the
	// bufio.Scanner idiom: the accessors have no error result). The error is
	// sticky: from the first failure on every row reads as empty, so whatever
	// was computed since is unusable and the caller must return Err instead.
	// In-memory providers always return nil.
	Err() error
}

// ViewRows returns a per-query Rows session over an arbitrary View: the route
// by which views with neither flat CSR arrays (CSRView) nor sessions of their
// own (RowsProvider) — MaskedView, TrackingView, DeltaView, ad-hoc wrappers —
// reach the online searcher. A row is materialized through EachOut/EachIn on
// first touch and kept for the session, and OutDegree/OutSum are asked of the
// view once per touched node (on a DeltaView every such call merges a row, and
// Stage II asks once per in-edge of a seen node per round). The session holds
// O(rows touched) memory, is not safe for concurrent use and must not outlive
// the view.
func ViewRows(v View) Rows { return &viewRows{view: v, nodes: make(map[NodeID]*viewNode)} }

type viewRows struct {
	view  View
	nodes map[NodeID]*viewNode
}

// viewNode is what a session has learned about one node so far.
type viewNode struct {
	hasDeg, hasSum bool
	deg            int
	sum            float64
	out, in        *sessionRow // nil until first touch
}

// sessionRow is one row a session (viewRows, packedRows) has materialized.
type sessionRow struct {
	cols []NodeID
	wts  []float64
}

func (r *viewRows) node(v NodeID) *viewNode {
	n := r.nodes[v]
	if n == nil {
		n = new(viewNode)
		r.nodes[v] = n
	}
	return n
}

// NumNodes implements Rows.
func (r *viewRows) NumNodes() int { return r.view.NumNodes() }

// OutDegree implements Rows.
func (r *viewRows) OutDegree(v NodeID) int {
	n := r.node(v)
	if !n.hasDeg {
		n.deg, n.hasDeg = r.view.OutDegree(v), true
	}
	return n.deg
}

// OutSum implements Rows.
func (r *viewRows) OutSum(v NodeID) float64 {
	n := r.node(v)
	if !n.hasSum {
		n.sum, n.hasSum = r.view.OutWeightSum(v), true
	}
	return n.sum
}

// OutRow implements Rows.
func (r *viewRows) OutRow(v NodeID) ([]NodeID, []float64) {
	return materialize(&r.node(v).out, r.view.EachOut, v)
}

// InRow implements Rows.
func (r *viewRows) InRow(v NodeID) ([]NodeID, []float64) {
	return materialize(&r.node(v).in, r.view.EachIn, v)
}

// Err implements Rows: reading a View cannot fail.
func (r *viewRows) Err() error { return nil }

func materialize(slot **sessionRow, each func(NodeID, func(NodeID, float64) bool), v NodeID) ([]NodeID, []float64) {
	if *slot == nil {
		row := new(sessionRow)
		each(v, func(u NodeID, w float64) bool {
			row.cols, row.wts = append(row.cols, u), append(row.wts, w)
			return true
		})
		*slot = row
	}
	return (*slot).cols, (*slot).wts
}

// RowPrefetcher is optionally implemented by a Rows provider that can
// materialize many rows in one round trip. The searcher hands it the frontier
// of each expansion wave before streaming the rows one by one, so a remote
// provider coalesces the wave's misses into one RPC per stripe. Prefetch is
// advisory: duplicates and already-cached nodes are fine, and the provider
// may satisfy the hint partially.
type RowPrefetcher interface {
	Prefetch(nodes []NodeID)
}
