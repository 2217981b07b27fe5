package graph

// Rows is the row-streaming access pattern of the online top-K searcher: the
// exact set of reads bca.Flat and bounds.FFlat/TFlat perform against a graph,
// expressed per row. It is the one seam under the searcher — everything the
// searcher knows about a graph — and every View hands it out (View.NewRows).
// The flat layouts (*Graph, *CompactedView) are Rows themselves, three
// accessors over the arrays they hold; *Packed hands out per-query sessions
// that decode rows; the remote implementation (internal/rowserve.Session)
// serves OutRow/InRow from a row cache filled by batched worker RPCs with
// OutSum/OutDegree in small dense per-node arrays assembled once at connect
// time. The remote split mirrors the paper's AP/GP architecture: the
// searcher's working set is O(rows touched), never the full adjacency.
type Rows interface {
	// NumNodes returns the number of nodes; node IDs are in [0, NumNodes).
	NumNodes() int
	// OutDegree returns the number of out-edges of v.
	OutDegree(v NodeID) int
	// OutSum returns the total out-weight of v.
	OutSum(v NodeID) float64
	// OutRow returns the out-edge targets and weights of v: read-only, and
	// valid until the next OutRow call on the same Rows, so a caller that
	// keeps a row longer copies it. graph.Packed sessions decode each row
	// into one reused buffer per direction; the flat layouts and rowserve
	// hand out slices that live longer, as the contract allows.
	OutRow(v NodeID) (cols []NodeID, weights []float64)
	// InRow returns the in-edge sources and weights of v, same contract: valid
	// until the next InRow call on the same Rows.
	InRow(v NodeID) (cols []NodeID, weights []float64)
	// Err returns the first failure a row read ran into, nil if none (the
	// bufio.Scanner idiom: the accessors have no error result). The error is
	// sticky: from the first failure on every row reads as empty, so whatever
	// was computed since is unusable and the caller must return Err instead.
	// In-memory providers always return nil.
	Err() error
}

// CountingRows decorates a Rows with a record of which rows were read: the
// "active set" of Sect. V-B — the nodes and edges a top-K query actually needs
// in memory — which the scalability experiments (Fig. 12, Fig. 13) report.
// Everything else passes through to the decorated Rows untouched, so the
// searcher runs on it exactly as it runs in production. It does not forward
// RowPrefetcher hints; it is meant for in-memory rows. Not safe for concurrent
// use: one per query.
type CountingRows struct {
	Rows
	read map[NodeID]struct{}
}

// NewCountingRows wraps base with read counting.
func NewCountingRows(base Rows) *CountingRows {
	return &CountingRows{Rows: base, read: make(map[NodeID]struct{})}
}

// OutRow implements Rows, recording the read.
func (c *CountingRows) OutRow(v NodeID) ([]NodeID, []float64) {
	c.read[v] = struct{}{}
	return c.Rows.OutRow(v)
}

// InRow implements Rows, recording the read.
func (c *CountingRows) InRow(v NodeID) ([]NodeID, []float64) {
	c.read[v] = struct{}{}
	return c.Rows.InRow(v)
}

// ActiveNodes returns the number of distinct nodes whose rows were read.
func (c *CountingRows) ActiveNodes() int { return len(c.read) }

// ActiveSetBytes estimates the in-memory size of the active set: per-node
// metadata plus both adjacency rows of every node read, at a fixed cost of a
// column and a weight per row entry whichever form the layout stores.
func (c *CountingRows) ActiveSetBytes() int64 {
	perNode := int64(1 + 8 + 8 + 8 + 8 + 8)
	perEdge := int64(4 + 8)
	var edgeEntries int64
	for v := range c.read {
		out, _ := c.Rows.OutRow(v)
		in, _ := c.Rows.InRow(v)
		edgeEntries += int64(len(out) + len(in))
	}
	return int64(len(c.read))*perNode + edgeEntries*perEdge
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
