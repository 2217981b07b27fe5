package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"roundtriprank/internal/datasets"
	"roundtriprank/internal/graph"
)

// wedge is one weighted directed edge of a generated edge list.
type wedge struct {
	From, To graph.NodeID
	W        float64
}

// edgeList is a generated graph in the form the system under test is built
// from: set-up starts here, so sampling the edges is not part of setup_s.
// R-MAT graphs carry label-less nodes typed cyclically; BibNet graphs carry
// one label and type per node.
type edgeList struct {
	nodes  int
	period []graph.Type // R-MAT: node v has type period[v%len(period)]
	labels []string     // BibNet
	types  []graph.Type // BibNet
	edges  []wedge
}

// build assembles the edge list into an immutable graph through
// graph.Builder and reports how long Builder.Build itself took.
func (el *edgeList) build() (*graph.Graph, time.Duration, error) {
	b := graph.NewBuilder()
	datasets.RegisterTypes(b)
	if el.labels != nil {
		for i, label := range el.labels {
			b.AddNode(el.types[i], label)
		}
	} else {
		period := el.period
		b.AddNodes(el.nodes, func(i int) graph.Type { return period[i%len(period)] })
	}
	for _, e := range el.edges {
		if err := b.AddEdge(e.From, e.To, e.W); err != nil {
			return nil, 0, fmt.Errorf("add edge %d->%d: %w", e.From, e.To, err)
		}
	}
	start := time.Now()
	g, err := b.Build()
	return g, time.Since(start), err
}

// degrees counts in- and out-degrees straight off the edge list, so query
// sets can be chosen before any graph is built.
func (el *edgeList) degrees() (in, out []int) {
	in, out = make([]int, el.nodes), make([]int, el.nodes)
	for _, e := range el.edges {
		out[e.From]++
		in[e.To]++
	}
	return in, out
}

// rmatEdgeList generates the shared R-MAT graph of the rmat-* workloads.
func rmatEdgeList(seed int64, nodes int) (*edgeList, error) {
	cfg := datasets.DefaultRMATConfig(nodes)
	cfg.Seed = -seed
	edges, err := datasets.RMATEdges(cfg)
	if err != nil {
		return nil, err
	}
	el := &edgeList{nodes: nodes, period: cfg.TypePeriod, edges: make([]wedge, len(edges))}
	for i, e := range edges {
		el.edges[i] = wedge{From: e.From, To: e.To, W: 1}
	}
	return el, nil
}

// bibnetInputs is the generated bibliographic network as an edge list plus
// the node groups the workloads draw queries and mutations from.
type bibnetInputs struct {
	edgeList
	papers, terms []graph.NodeID
}

func bibnetEdgeList(seed int64, scale float64) (*bibnetInputs, error) {
	cfg := datasets.ScaledBibNetConfig(scale)
	cfg.Seed = seed
	net, err := datasets.GenerateBibNet(cfg)
	if err != nil {
		return nil, err
	}
	g := net.Graph
	in := &bibnetInputs{papers: net.Papers, terms: net.Terms}
	in.nodes = g.NumNodes()
	in.labels = make([]string, in.nodes)
	in.types = make([]graph.Type, in.nodes)
	for v := 0; v < in.nodes; v++ {
		id := graph.NodeID(v)
		in.labels[v], in.types[v] = g.Label(id), g.Type(id)
		to, w := g.OutNeighbors(id)
		for i := range to {
			in.edges = append(in.edges, wedge{From: id, To: to[i], W: w[i]})
		}
	}
	return in, nil
}

// tailNodes picks n low-degree query nodes: in>0, out>0, total degree ≤ 16,
// every stride-th candidate in id order from a seeded offset, then shuffled so
// that any prefix of the list is as representative as the whole.
func tailNodes(rng *rand.Rand, in, out []int, n int) ([]graph.NodeID, error) {
	var cand []graph.NodeID
	for v := range in {
		if in[v] > 0 && out[v] > 0 && in[v]+out[v] <= 16 {
			cand = append(cand, graph.NodeID(v))
		}
	}
	if len(cand) < n {
		return nil, fmt.Errorf("only %d tail candidates, need %d", len(cand), n)
	}
	stride := len(cand) / n
	offset := rng.Intn(stride)
	picked := make([]graph.NodeID, n)
	for i := range picked {
		picked[i] = cand[offset+i*stride]
	}
	rng.Shuffle(n, func(i, j int) { picked[i], picked[j] = picked[j], picked[i] })
	return picked, nil
}

// hubNodes returns the n highest-degree nodes (total degree descending, id
// ascending), shuffled: the population is fixed by the graph, the seed only
// orders it.
func hubNodes(rng *rand.Rand, in, out []int, n int) []graph.NodeID {
	ids := make([]graph.NodeID, len(in))
	for v := range ids {
		ids[v] = graph.NodeID(v)
	}
	sort.Slice(ids, func(i, j int) bool {
		di, dj := in[ids[i]]+out[ids[i]], in[ids[j]]+out[ids[j]]
		if di != dj {
			return di > dj
		}
		return ids[i] < ids[j]
	})
	hubs := ids[:min(n, len(ids))]
	rng.Shuffle(len(hubs), func(i, j int) { hubs[i], hubs[j] = hubs[j], hubs[i] })
	return hubs
}

// sampleNodes draws n distinct nodes from pool.
func sampleNodes(rng *rand.Rand, pool []graph.NodeID, n int) []graph.NodeID {
	n = min(n, len(pool))
	out := make([]graph.NodeID, n)
	for i, p := range rng.Perm(len(pool))[:n] {
		out[i] = pool[p]
	}
	return out
}

// everyNth returns the verification subset of a list of n ops: every
// ⌈n/want⌉-th index, at most want of them.
func everyNth(n, want int) []int {
	if n == 0 {
		return nil
	}
	step := (n + want - 1) / want
	var idx []int
	for i := 0; i < n && len(idx) < want; i += step {
		idx = append(idx, i)
	}
	return idx
}
