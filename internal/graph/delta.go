package graph

import (
	"fmt"
	"sort"
)

// Delta is a staged batch of mutations against one base Graph snapshot: node
// additions, edge upserts (add or reweight), edge removals and node removals.
// Nothing is applied until Commit merges the delta into a fresh Graph one
// epoch later; until then the base graph keeps serving unchanged. To preview
// the staged state, Commit it: the base is untouched either way.
//
// Node IDs are stable across commits: added nodes extend the ID space and
// removed nodes keep their ID, type and label but lose every incident edge
// (they become isolated, so no round trip passes through them and they drop
// out of all rankings). This is what lets epochs roll over under live traffic
// without renumbering anything a client might be holding.
//
// Ops are idempotent set-semantics, not an op log: the staged state always
// describes the final desired adjacency, with later calls overriding earlier
// ones (SetEdge after RemoveEdge re-adds the edge; RemoveNode discards staged
// edges touching the node). A Delta is not safe for concurrent use.
type Delta struct {
	base *Graph

	// staged node additions, IDs base.NumNodes()..base.NumNodes()+len-1
	newTypes   []Type
	newLabels  []string
	newByLabel map[string]NodeID

	set          map[edgeKey]float64 // final weights of added/reweighted edges
	removed      map[edgeKey]bool    // base edges to drop
	removedNodes map[NodeID]bool     // nodes to isolate
}

type edgeKey struct{ from, to NodeID }

// NewDelta returns an empty mutation batch against base.
func NewDelta(base *Graph) *Delta {
	return &Delta{
		base:         base,
		newByLabel:   make(map[string]NodeID),
		set:          make(map[edgeKey]float64),
		removed:      make(map[edgeKey]bool),
		removedNodes: make(map[NodeID]bool),
	}
}

// NumNodes returns the node count the committed graph will have.
func (d *Delta) NumNodes() int { return d.base.numNodes + len(d.newTypes) }

// Empty reports whether the delta stages no mutations. Committing an empty
// delta still produces a new epoch (useful for forcing a rollover).
func (d *Delta) Empty() bool {
	return len(d.newTypes) == 0 && len(d.set) == 0 && len(d.removed) == 0 && len(d.removedNodes) == 0
}

// Ops returns the staged mutation counts, for logging and ingestion replies.
func (d *Delta) Ops() (addedNodes, setEdges, removedEdges, removedNodes int) {
	return len(d.newTypes), len(d.set), len(d.removed), len(d.removedNodes)
}

// AddNode stages a new node with the given type and label and returns its ID
// (base.NumNodes() plus its position in the batch). Labels must be unique;
// adding a label the base graph or the batch already has returns the existing
// node's ID, mirroring Builder.AddNode.
func (d *Delta) AddNode(t Type, label string) NodeID {
	if v := d.base.NodeByLabel(label); v != NoNode {
		return v
	}
	if v, ok := d.newByLabel[label]; ok {
		return v
	}
	id := NodeID(d.base.numNodes + len(d.newTypes))
	d.newTypes = append(d.newTypes, t)
	d.newLabels = append(d.newLabels, label)
	d.newByLabel[label] = id
	return id
}

// NodeByLabel resolves a label against the base graph and the staged
// additions, or returns NoNode.
func (d *Delta) NodeByLabel(label string) NodeID {
	if v := d.base.NodeByLabel(label); v != NoNode {
		return v
	}
	if v, ok := d.newByLabel[label]; ok {
		return v
	}
	return NoNode
}

// checkNode validates that v exists in the base graph or the staged additions.
func (d *Delta) checkNode(v NodeID) error {
	if v < 0 || int(v) >= d.NumNodes() {
		return fmt.Errorf("graph: delta: node %d does not exist (have %d nodes)", v, d.NumNodes())
	}
	return nil
}

// SetEdge stages the directed edge from->to with the given positive weight:
// an insert when the edge does not exist, a reweight when it does. It undoes a
// staged removal of the same edge, and re-attaches edges to a node staged for
// removal (the staging order decides, matching operator intent).
func (d *Delta) SetEdge(from, to NodeID, w float64) error {
	if err := checkEdge(from, to, w, d.NumNodes()); err != nil {
		return fmt.Errorf("graph: delta: %w", err)
	}
	k := edgeKey{from, to}
	delete(d.removed, k)
	d.set[k] = w
	return nil
}

// SetUndirectedEdge stages an undirected edge as two directed edges of equal
// weight.
func (d *Delta) SetUndirectedEdge(a, b NodeID, w float64) error {
	if err := d.SetEdge(a, b, w); err != nil {
		return err
	}
	return d.SetEdge(b, a, w)
}

// RemoveEdge stages the removal of the directed edge from->to. The edge must
// exist — in the base graph or as a staged addition; removing a staged
// addition simply unstages it.
func (d *Delta) RemoveEdge(from, to NodeID) error {
	if err := d.checkNode(from); err != nil {
		return err
	}
	if err := d.checkNode(to); err != nil {
		return err
	}
	k := edgeKey{from, to}
	staged := false
	if _, ok := d.set[k]; ok {
		delete(d.set, k)
		staged = true
	}
	if int(from) < d.base.numNodes && d.base.HasEdge(from, to) {
		d.removed[k] = true
		return nil
	}
	if !staged {
		return fmt.Errorf("graph: delta: edge %d->%d does not exist", from, to)
	}
	return nil
}

// RemoveUndirectedEdge stages the removal of both directions of an undirected
// edge.
func (d *Delta) RemoveUndirectedEdge(a, b NodeID) error {
	if err := d.RemoveEdge(a, b); err != nil {
		return err
	}
	return d.RemoveEdge(b, a)
}

// RemoveNode stages the isolation of node v: every incident edge (in either
// direction, including staged ones) is dropped, while the node keeps its ID,
// type and label. Isolated nodes score zero under every round-trip measure
// and are never returned in rankings. A later SetEdge may re-attach the node.
func (d *Delta) RemoveNode(v NodeID) error {
	if err := d.checkNode(v); err != nil {
		return err
	}
	for k := range d.set {
		if k.from == v || k.to == v {
			delete(d.set, k)
		}
	}
	for k := range d.removed {
		if k.from == v || k.to == v {
			delete(d.removed, k)
		}
	}
	d.removedNodes[v] = true
	return nil
}

// stagedEdge is one staged addition/reweight, indexed per row for the merge.
type stagedEdge struct {
	other NodeID // the non-row endpoint
	w     float64
}

// rowAdds indexes the staged upserts by source node, each row sorted by target
// so merges against the (sorted) base CSR rows stay ordered.
func (d *Delta) rowAdds() map[NodeID][]stagedEdge {
	adds := make(map[NodeID][]stagedEdge)
	for k, w := range d.set {
		adds[k.from] = append(adds[k.from], stagedEdge{other: k.to, w: w})
	}
	for _, row := range adds {
		sort.Slice(row, func(i, j int) bool { return row[i].other < row[j].other })
	}
	return adds
}

// dropBase reports whether a base edge from->to is superseded by the staged
// state: removed explicitly, incident to a removed node, or shadowed by an
// upsert (the upsert is emitted from the staged side of the merge).
func (d *Delta) dropBase(from, to NodeID) bool {
	if d.removedNodes[from] || d.removedNodes[to] {
		return true
	}
	if d.removed[edgeKey{from, to}] {
		return true
	}
	_, shadowed := d.set[edgeKey{from, to}]
	return shadowed
}

// mergeRow yields the final adjacency of one row in ascending neighbor order:
// the surviving base entries merged with the staged upserts. base may be nil
// (a new or removed node's base row).
func mergeRow(baseCol []NodeID, baseW []float64, drop func(other NodeID) bool, adds []stagedEdge, yield func(other NodeID, w float64)) {
	ai := 0
	for i, to := range baseCol {
		if drop(to) {
			continue
		}
		for ai < len(adds) && adds[ai].other < to {
			yield(adds[ai].other, adds[ai].w)
			ai++
		}
		yield(to, baseW[i])
	}
	for ; ai < len(adds); ai++ {
		yield(adds[ai].other, adds[ai].w)
	}
}

// baseOutRow returns the base out-adjacency of v, or nil slices when v is new
// or staged for removal.
func (d *Delta) baseOutRow(v NodeID) ([]NodeID, []float64) {
	if int(v) >= d.base.numNodes || d.removedNodes[v] {
		return nil, nil
	}
	return d.base.OutNeighbors(v)
}

// Commit merges the delta into a fresh immutable Graph whose epoch is
// base.Epoch()+1 — the base graph is untouched and keeps serving its own
// snapshot. The merge streams each base CSR row once against the sorted
// staged upserts, so a commit costs O(nodes + edges + staged·log staged) and
// the resulting arrays are laid out exactly as a Builder would lay them out:
// committing a delta and rebuilding the equivalent graph from scratch produce
// bit-identical adjacency (only epoch and fingerprint differ), which the
// cross-epoch parity suite pins for every execution method.
//
// The delta must have been staged against base; committing it against any
// other snapshot is refused (stage a fresh delta instead).
func Commit(base *Graph, d *Delta) (*Graph, error) {
	if d == nil {
		return nil, fmt.Errorf("graph: commit: nil delta")
	}
	if d.base != base {
		return nil, fmt.Errorf("graph: commit: delta was staged against a different snapshot (epoch %d, committing against epoch %d)",
			d.base.epoch, base.epoch)
	}
	n := d.NumNodes()
	g := &Graph{
		epoch:     base.epoch + 1,
		types:     make([]Type, 0, n),
		labels:    make([]string, 0, n),
		typeNames: make(map[Type]string, len(base.typeNames)),
		byLabel:   make(map[string]NodeID, n),
	}
	g.numNodes = n
	g.types = append(append(g.types, base.types...), d.newTypes...)
	g.labels = append(append(g.labels, base.labels...), d.newLabels...)
	for t, name := range base.typeNames {
		g.typeNames[t] = name
	}
	for l, id := range base.byLabel {
		g.byLabel[l] = id
	}
	for l, id := range d.newByLabel {
		g.byLabel[l] = id
	}

	// Forward CSR: stream every row's merged adjacency in order.
	outAdds := d.rowAdds()
	g.out = CSR{RowPtr: make([]int64, n+1), Sum: make([]float64, n)}
	for v := 0; v < n; v++ {
		col, w := d.baseOutRow(NodeID(v))
		mergeRow(col, w, func(to NodeID) bool { return d.dropBase(NodeID(v), to) }, outAdds[NodeID(v)],
			func(to NodeID, ew float64) {
				g.out.Col = append(g.out.Col, to)
				g.out.Weight = append(g.out.Weight, ew)
				g.out.Sum[v] += ew
			})
		g.out.RowPtr[v+1] = int64(len(g.out.Col))
	}
	g.numEdges = len(g.out.Col)
	g.out = unitForm(g.out)
	g.in = g.out.transpose()
	return g, nil
}
