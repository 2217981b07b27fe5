// This file collects the graph-construction re-exports and the engine
// options; the package documentation lives in doc.go.
package roundtriprank

import (
	"fmt"
	"math"

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

// Option configures the default parameters of an Engine. Per-query overrides
// on the Request take precedence over these defaults.
type Option func(*Engine) error

// WithAlpha sets the default teleport probability α of the underlying
// geometric random walks (default 0.25, the paper's setting).
func WithAlpha(alpha float64) Option {
	return func(e *Engine) error {
		if err := walk.CheckAlpha(alpha); err != nil {
			return fmt.Errorf("roundtriprank: %w", err)
		}
		e.params.Walk.Alpha = alpha
		return nil
	}
}

// WithBeta sets the default specificity bias β of RoundTripRank+ (default
// 0.5, the balanced RoundTripRank).
func WithBeta(beta float64) Option {
	return func(e *Engine) error {
		if !(beta >= 0 && beta <= 1) {
			return fmt.Errorf("roundtriprank: beta must be in [0,1], got %g", beta)
		}
		e.params.Beta = beta
		return nil
	}
}

// WithSurferComposition sets β from a hybrid-random-surfer composition
// (Definition 3): balanced surfers walk full round trips, importance-only
// surfers shortcut the return leg, specificity-only surfers shortcut the
// outbound leg.
func WithSurferComposition(balanced, importanceOnly, specificityOnly int) Option {
	return func(e *Engine) error {
		beta, err := core.SpecificityBiasFromSurfers(balanced, importanceOnly, specificityOnly)
		if err != nil {
			return err
		}
		e.params.Beta = beta
		return nil
	}
}

// WithTolerance sets the default convergence tolerance of the exact iterative
// solvers.
func WithTolerance(tol float64) Option {
	return func(e *Engine) error {
		if !(tol > 0) || math.IsInf(tol, 1) {
			return fmt.Errorf("roundtriprank: tolerance must be finite and positive, got %g", tol)
		}
		e.params.Walk.Tol = tol
		return nil
	}
}

// WithExactLimit sets the graph size up to which the Auto method plans the
// exact path (default DefaultExactLimit). Zero forces Auto to always choose
// the online search.
func WithExactLimit(n int) Option {
	return func(e *Engine) error {
		if n < 0 {
			return fmt.Errorf("roundtriprank: exact limit must be non-negative, got %d", n)
		}
		e.exactLimit = n
		return nil
	}
}

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
