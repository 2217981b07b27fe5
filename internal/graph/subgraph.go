package graph

import "sort"

// Subgraph is an induced subgraph of a parent Graph, together with the mapping
// between parent and subgraph node IDs.
type Subgraph struct {
	// Graph is the induced subgraph with its own dense node IDs.
	Graph *Graph
	// ToParent maps a subgraph node ID to its parent node ID.
	ToParent []NodeID
	// FromParent maps a parent node ID to its subgraph node ID, or NoNode when
	// the parent node is not part of the subgraph.
	FromParent map[NodeID]NodeID
}

// Induced builds the subgraph of g induced by the given parent node set: it
// keeps exactly those nodes, and every edge of g whose endpoints are both
// kept. Duplicate IDs in nodes are ignored. Labels and types are preserved.
func Induced(g *Graph, nodes []NodeID) *Subgraph {
	uniq := make(map[NodeID]bool, len(nodes))
	order := make([]NodeID, 0, len(nodes))
	for _, v := range nodes {
		if v < 0 || int(v) >= g.NumNodes() || uniq[v] {
			continue
		}
		uniq[v] = true
		order = append(order, v)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	b := NewBuilder()
	for t, name := range g.typeNames {
		b.RegisterType(t, name)
	}
	fromParent := make(map[NodeID]NodeID, len(order))
	toParent := make([]NodeID, 0, len(order))
	for _, pv := range order {
		sv := b.AddNode(g.Type(pv), g.Label(pv))
		fromParent[pv] = sv
		toParent = append(toParent, pv)
	}
	for _, pv := range order {
		sv := fromParent[pv]
		cols, ws := g.out.Row(pv)
		for i, to := range cols {
			if st, ok := fromParent[to]; ok {
				b.MustAddEdge(sv, st, ws[i])
			}
		}
	}
	return &Subgraph{Graph: b.MustBuild(), ToParent: toParent, FromParent: fromParent}
}
