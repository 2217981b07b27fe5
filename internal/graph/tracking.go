package graph

// TrackingView wraps a View and records which nodes' adjacency lists have been
// accessed. The recorded set approximates the "active set" of Sect. V-B — the
// nodes and edges a top-K query actually needs in memory — and is used by the
// scalability experiments (Fig. 12, Fig. 13) to report active-set sizes.
type TrackingView struct {
	base View

	accessed map[NodeID]bool
}

// NewTrackingView wraps base with access tracking.
func NewTrackingView(base View) *TrackingView {
	return &TrackingView{base: base, accessed: make(map[NodeID]bool)}
}

// NumNodes implements View.
func (t *TrackingView) NumNodes() int { return t.base.NumNodes() }

// OutDegree implements View.
func (t *TrackingView) OutDegree(v NodeID) int { return t.base.OutDegree(v) }

// InDegree implements View.
func (t *TrackingView) InDegree(v NodeID) int { return t.base.InDegree(v) }

// OutWeightSum implements View.
func (t *TrackingView) OutWeightSum(v NodeID) float64 { return t.base.OutWeightSum(v) }

// InWeightSum implements View.
func (t *TrackingView) InWeightSum(v NodeID) float64 { return t.base.InWeightSum(v) }

// EachOut implements View, recording the access.
func (t *TrackingView) EachOut(v NodeID, fn func(to NodeID, w float64) bool) {
	t.accessed[v] = true
	t.base.EachOut(v, fn)
}

// EachIn implements View, recording the access.
func (t *TrackingView) EachIn(v NodeID, fn func(from NodeID, w float64) bool) {
	t.accessed[v] = true
	t.base.EachIn(v, fn)
}

// ActiveNodes returns the number of distinct nodes whose adjacency was read.
func (t *TrackingView) ActiveNodes() int { return len(t.accessed) }

// ActiveSetBytes estimates the in-memory size of the active set: per-node
// metadata plus the adjacency entries of every accessed node, using the same
// per-entry cost model as Graph.SizeBytes.
func (t *TrackingView) ActiveSetBytes() int64 {
	perNode := int64(1 + 8 + 8 + 8 + 8 + 8)
	perEdge := int64(4 + 8)
	var edgeEntries int64
	for v := range t.accessed {
		edgeEntries += int64(t.base.OutDegree(v) + t.base.InDegree(v))
	}
	return int64(len(t.accessed))*perNode + edgeEntries*perEdge
}

// Reset clears the recorded accesses.
func (t *TrackingView) Reset() {
	t.accessed = make(map[NodeID]bool)
}
