package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates nodes and edges and produces an immutable Graph.
// Builders are not safe for concurrent use.
type Builder struct {
	types     []Type
	labels    []string
	byLabel   map[string]NodeID
	typeNames map[Type]string

	// edge accumulation: parallel edges between the same ordered pair are
	// merged by summing weights at Build time.
	from    []NodeID
	to      []NodeID
	weights []float64
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		byLabel:   make(map[string]NodeID),
		typeNames: make(map[Type]string),
	}
}

// RegisterType gives a human-readable name to a node type.
func (b *Builder) RegisterType(t Type, name string) {
	b.typeNames[t] = name
}

// AddNode adds a node with the given type and label and returns its ID. Labels
// must be unique; adding a duplicate label returns the existing node's ID.
func (b *Builder) AddNode(t Type, label string) NodeID {
	if id, ok := b.byLabel[label]; ok {
		return id
	}
	id := NodeID(len(b.types))
	b.types = append(b.types, t)
	b.labels = append(b.labels, label)
	b.byLabel[label] = id
	return id
}

// AddNodes appends count label-less nodes in one call and returns the ID of
// the first; the block is contiguous, so node i of the batch is first+i.
// typeAt assigns each node's type by batch index (nil means Untyped for all).
// Unlike AddNode, the nodes carry no labels and are not registered for
// NodeByLabel lookup — the bulk path exists for synthetic generators at
// million-node scale, where per-node label strings and the dedup map would
// dominate the graph's own memory.
func (b *Builder) AddNodes(count int, typeAt func(i int) Type) NodeID {
	first := NodeID(len(b.types))
	if cap(b.types)-len(b.types) < count {
		types := make([]Type, len(b.types), len(b.types)+count)
		copy(types, b.types)
		b.types = types
		labels := make([]string, len(b.labels), len(b.labels)+count)
		copy(labels, b.labels)
		b.labels = labels
	}
	for i := 0; i < count; i++ {
		t := Untyped
		if typeAt != nil {
			t = typeAt(i)
		}
		b.types = append(b.types, t)
		b.labels = append(b.labels, "")
	}
	return first
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.types) }

// NodeByLabel returns the node previously added with the given label, or
// NoNode.
func (b *Builder) NodeByLabel(label string) NodeID {
	if id, ok := b.byLabel[label]; ok {
		return id
	}
	return NoNode
}

// AddEdge adds a directed edge from->to with the given positive weight. The
// edge must pass the edge rule (checkEdge): both nodes added already, no
// self-loop, a weight positive and finite.
func (b *Builder) AddEdge(from, to NodeID, w float64) error {
	if err := checkEdge(from, to, w, len(b.types)); err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	b.from = append(b.from, from)
	b.to = append(b.to, to)
	b.weights = append(b.weights, w)
	return nil
}

// AddUndirectedEdge adds an undirected edge as two directed edges of equal
// weight.
func (b *Builder) AddUndirectedEdge(a, bNode NodeID, w float64) error {
	if err := b.AddEdge(a, bNode, w); err != nil {
		return err
	}
	return b.AddEdge(bNode, a, w)
}

// MustAddEdge is AddEdge but panics on error; convenient for generators whose
// inputs are known valid.
func (b *Builder) MustAddEdge(from, to NodeID, w float64) {
	if err := b.AddEdge(from, to, w); err != nil {
		panic(err)
	}
}

// MustAddUndirectedEdge is AddUndirectedEdge but panics on error.
func (b *Builder) MustAddUndirectedEdge(a, bNode NodeID, w float64) {
	if err := b.AddUndirectedEdge(a, bNode, w); err != nil {
		panic(err)
	}
}

// Build produces the immutable CSR Graph. Parallel directed edges between the
// same ordered pair are merged by summing their weights; AddEdge has already
// rejected self-loops and weights that are not positive and finite. Out-rows
// list their targets ascending, and the in-rows are their transpose; when
// every merged weight is 1 both directions are in the unit form (see CSR).
func (b *Builder) Build() (*Graph, error) {
	n := len(b.types)
	// Merge parallel edges via a sort by (from, to).
	type edge struct {
		from, to NodeID
		w        float64
	}
	edges := make([]edge, len(b.from))
	for i := range b.from {
		edges[i] = edge{b.from[i], b.to[i], b.weights[i]}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	merged := edges[:0]
	for _, e := range edges {
		if len(merged) > 0 && merged[len(merged)-1].from == e.from && merged[len(merged)-1].to == e.to {
			merged[len(merged)-1].w += e.w
			continue
		}
		merged = append(merged, e)
	}
	m := len(merged)

	// merged is sorted by from: entry i is out-edge i, and row v ends after
	// its last entry — or, without one, where row v-1 ends.
	out := CSR{RowPtr: make([]int64, n+1), Col: make([]NodeID, m), Weight: make([]float64, m), Sum: make([]float64, n)}
	for i, e := range merged {
		out.RowPtr[e.from+1] = int64(i + 1)
		out.Col[i] = e.to
		out.Weight[i] = e.w
		out.Sum[e.from] += e.w
	}
	for v := 0; v < n; v++ {
		out.RowPtr[v+1] = max(out.RowPtr[v+1], out.RowPtr[v])
	}
	out = unitForm(out)
	g := &Graph{
		CompactedView: CompactedView{numNodes: n, out: out, in: out.transpose()},
		numEdges:      m,
		types:         append([]Type(nil), b.types...),
		labels:        append([]string(nil), b.labels...),
		typeNames:     make(map[Type]string, len(b.typeNames)),
		byLabel:       make(map[string]NodeID, len(b.byLabel)),
	}
	for t, name := range b.typeNames {
		g.typeNames[t] = name
	}
	for l, id := range b.byLabel {
		g.byLabel[l] = id
	}
	return g, nil
}

// MustBuild is Build but panics on error.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
