package datasets

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"roundtriprank/internal/graph"
)

// This file implements the bench spine's synthetic graph generator: R-MAT
// (recursive matrix) graphs in the Graph500 parameterization. R-MAT drops
// each edge into the adjacency matrix by recursively descending into one of
// four quadrants with probabilities A, B, C, D; skewed probabilities yield
// the power-law degree distributions and community structure of real web and
// social graphs, at any node count, from a single seed. The generator is
// deliberately single-threaded and indexes no global state, so the same
// config produces a byte-identical edge list on every run and at every
// GOMAXPROCS (rmat_test.go pins this).

// RMATConfig parameterizes GenerateRMAT.
type RMATConfig struct {
	// Seed is the deterministic random seed; equal configs generate equal
	// graphs.
	Seed int64
	// Nodes is the node count (≥ 2). Unlike classic R-MAT the count need not
	// be a power of two: candidates outside [0, Nodes) are rejected and
	// redrawn.
	Nodes int
	// EdgeFactor is the number of directed edge draws per node (Graph500
	// convention); the distinct edge count comes out slightly lower after
	// duplicate collapse.
	EdgeFactor int
	// A, B, C, D are the quadrant probabilities (top-left, top-right,
	// bottom-left, bottom-right); they must be non-negative and sum to 1.
	// A > D skews mass toward low-numbered nodes, producing the power-law
	// hubs; A = B = C = D = 0.25 degenerates to an Erdős–Rényi graph.
	A, B, C, D float64
	// TypePeriod assigns node types cyclically: node v gets
	// TypePeriod[v % len(TypePeriod)], making generated graphs exercise the
	// same Filter machinery as the bibliographic networks. Empty means every
	// node is graph.Untyped.
	TypePeriod []graph.Type
	// Weight is the weight of every edge; zero means 1.
	Weight float64
}

// DefaultRMATConfig returns the Graph500 reference parameters (skew
// 0.57/0.19/0.19/0.05, edge factor 8 — half the Graph500 16 because these
// graphs are directed rather than symmetrized) for the given node count.
func DefaultRMATConfig(nodes int) RMATConfig {
	return RMATConfig{
		Nodes:      nodes,
		EdgeFactor: 8,
		A:          0.57,
		B:          0.19,
		C:          0.19,
		D:          0.05,
		TypePeriod: []graph.Type{TypePaper, TypeAuthor, TypeTerm, TypeVenue},
	}
}

func (cfg RMATConfig) validate() error {
	if cfg.Nodes < 2 {
		return fmt.Errorf("datasets: rmat: need at least 2 nodes, got %d", cfg.Nodes)
	}
	if cfg.Nodes > 1<<31-1 {
		return fmt.Errorf("datasets: rmat: %d nodes exceeds the int32 node-ID space", cfg.Nodes)
	}
	if cfg.EdgeFactor < 1 {
		return fmt.Errorf("datasets: rmat: edge factor must be ≥ 1, got %d", cfg.EdgeFactor)
	}
	if cfg.A < 0 || cfg.B < 0 || cfg.C < 0 || cfg.D < 0 {
		return fmt.Errorf("datasets: rmat: quadrant probabilities must be non-negative")
	}
	if sum := cfg.A + cfg.B + cfg.C + cfg.D; sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("datasets: rmat: quadrant probabilities sum to %g, want 1", sum)
	}
	// Written to reject NaN too; zero means the default weight of 1.
	if !(cfg.Weight >= 0) || math.IsInf(cfg.Weight, 1) {
		return fmt.Errorf("datasets: rmat: weight must be finite and non-negative (zero means 1), got %g", cfg.Weight)
	}
	return nil
}

// Edge is one directed edge of a generated edge list.
type Edge struct {
	From, To graph.NodeID
}

// RMATEdges generates the deduplicated, sorted edge list of an R-MAT graph.
// Self-loops and duplicate draws are discarded, so the result typically holds
// slightly fewer than Nodes×EdgeFactor edges. The output is sorted by
// (From, To) and fully determined by the config.
func RMATEdges(cfg RMATConfig) ([]Edge, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	levels := 0
	for 1<<levels < cfg.Nodes {
		levels++
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	target := cfg.Nodes * cfg.EdgeFactor
	keys := make([]uint64, 0, target)
	// Each draw descends the quadrant tree once; out-of-range endpoints (node
	// counts that are not powers of two) and self-loops are rejected and
	// redrawn. The attempt cap only guards degenerate configs (e.g. A≈1 on a
	// 2-node graph, where nearly every draw is the self-loop 0→0).
	maxAttempts := 100 * target
	drawn := 0
	for attempt := 0; drawn < target && attempt < maxAttempts; attempt++ {
		from, to := 0, 0
		for l := 0; l < levels; l++ {
			u := rng.Float64()
			from <<= 1
			to <<= 1
			switch {
			case u < cfg.A:
			case u < cfg.A+cfg.B:
				to |= 1
			case u < cfg.A+cfg.B+cfg.C:
				from |= 1
			default:
				from |= 1
				to |= 1
			}
		}
		if from >= cfg.Nodes || to >= cfg.Nodes || from == to {
			continue
		}
		keys = append(keys, uint64(from)<<32|uint64(to))
		drawn++
	}
	if drawn < target {
		return nil, fmt.Errorf("datasets: rmat: only %d of %d draws landed in range after %d attempts", drawn, target, maxAttempts)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	edges := make([]Edge, 0, len(keys))
	var prev uint64
	for i, k := range keys {
		if i > 0 && k == prev {
			continue
		}
		prev = k
		edges = append(edges, Edge{From: graph.NodeID(k >> 32), To: graph.NodeID(uint32(k))})
	}
	return edges, nil
}

// RMAT is a generated R-MAT graph together with its provenance.
type RMAT struct {
	Graph *graph.Graph
	// Config is the generating configuration.
	Config RMATConfig
	// Edges is the number of distinct directed edges.
	Edges int
}

// GenerateRMAT generates the R-MAT graph for cfg: RMATEdges assembled into an
// immutable CSR graph through the bulk Builder path (no per-node labels), with
// types assigned cyclically from cfg.TypePeriod. Same config, same graph,
// bit for bit.
func GenerateRMAT(cfg RMATConfig) (*RMAT, error) {
	edges, err := RMATEdges(cfg)
	if err != nil {
		return nil, err
	}
	b := graph.NewBuilder()
	RegisterTypes(b)
	var typeAt func(i int) graph.Type
	if len(cfg.TypePeriod) > 0 {
		period := cfg.TypePeriod
		typeAt = func(i int) graph.Type { return period[i%len(period)] }
	}
	b.AddNodes(cfg.Nodes, typeAt)
	w := cfg.Weight
	if w == 0 {
		w = 1
	}
	for _, e := range edges {
		b.MustAddEdge(e.From, e.To, w)
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &RMAT{Graph: g, Config: cfg, Edges: len(edges)}, nil
}
