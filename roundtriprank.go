// This file collects the graph-construction re-exports and the engine
// options; the package documentation lives in doc.go.
package roundtriprank

import (
	"fmt"

	"roundtriprank/internal/core"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/lru"
	"roundtriprank/internal/walk"
)

// Re-exported graph construction types. A Graph is an immutable directed
// weighted graph with typed, labelled nodes; build one with NewGraphBuilder.
type (
	// Graph is the immutable graph structure queries run against.
	Graph = graph.Graph
	// GraphBuilder accumulates nodes and edges.
	GraphBuilder = graph.Builder
	// NodeID identifies a node.
	NodeID = graph.NodeID
	// NodeType is a small integer node type (paper, author, venue, ...).
	NodeType = graph.Type
	// Query is a distribution over one or more query nodes.
	Query = walk.Query
	// View is the read-only graph contract accepted by all ranking entry
	// points. It is closed: *Graph implements it, as do the bare layouts of
	// internal/graph (flat arrays, packed rows); callers do not.
	View = graph.View
	// Delta is a staged batch of mutations against one Graph snapshot: node
	// additions, edge upserts, edge and node removals. Stage with NewDelta
	// and apply with Engine.Apply (or Commit for a standalone merge).
	Delta = graph.Delta
)

// NoNode is returned by lookups that fail.
const NoNode = graph.NoNode

// NewGraphBuilder returns an empty graph builder.
func NewGraphBuilder() *GraphBuilder { return graph.NewBuilder() }

// GraphFingerprint returns the checksum identifying a graph snapshot (its
// adjacency arrays plus its epoch). Stripes record it, coordinators validate
// it, and operators can compare it against GET /v1/epoch on a serving
// rtrankd.
func GraphFingerprint(g *Graph) uint32 { return graph.GraphFingerprint(g) }

// NewDelta returns an empty mutation batch staged against base. See
// graph.Delta for the staging semantics (stable node IDs, set-like ops).
func NewDelta(base *Graph) *Delta { return graph.NewDelta(base) }

// Commit merges a staged Delta into a fresh immutable Graph one epoch after
// base, leaving base untouched. Engines serving base are not affected; use
// Engine.Apply to commit and swap an engine in one step.
func Commit(base *Graph, d *Delta) (*Graph, error) { return graph.Commit(base, d) }

// SingleNode returns a query consisting of one node.
func SingleNode(v NodeID) Query { return walk.SingleNode(v) }

// MultiNode returns a uniformly weighted multi-node query (the Linearity
// Theorem makes multi-node RoundTripRank the mixture of single-node scores).
func MultiNode(nodes ...NodeID) Query { return walk.MultiNode(nodes...) }

// Result is one ranked node.
type Result struct {
	Node  NodeID
	Score float64
}

// BetaFromSurfers returns the specificity bias β of a hybrid-random-surfer
// composition (Definition 3, Eq. 11–12), for Request.Beta: balanced surfers
// walk full round trips, importance-only surfers shortcut the return leg,
// specificity-only surfers shortcut the outbound leg. It errors when a count
// is negative or all are zero.
func BetaFromSurfers(balanced, importanceOnly, specificityOnly int) (float64, error) {
	return core.SpecificityBiasFromSurfers(balanced, importanceOnly, specificityOnly)
}

// Option configures an Engine's deployment: the worker fleet it fronts, the
// sizes of its caches, the hook that observes its queries. How a query ranks —
// α, β, ε, the solver tolerance — is set on its Request alone.
type Option func(*Engine) error

// WithVectorCache sets the capacity, in single-node vector pairs, of the
// engine's LRU score-vector cache (default DefaultVectorCacheSize). RankBatch
// answers repeated exact-path query nodes from it across batches; each entry
// holds two float64 vectors of NumNodes length, so the worst-case footprint
// is entries × 16 × NumNodes bytes. Zero disables caching.
func WithVectorCache(entries int) Option {
	return func(e *Engine) error {
		if entries < 0 {
			return fmt.Errorf("roundtriprank: vector cache size must be non-negative, got %d", entries)
		}
		e.cache = nil
		if entries > 0 {
			e.cache = lru.New[vecKey, vecPair](entries)
		}
		return nil
	}
}

func toResults(in []core.Ranked) []Result {
	out := make([]Result, len(in))
	for i, r := range in {
		out[i] = Result{Node: r.Node, Score: r.Score}
	}
	return out
}
