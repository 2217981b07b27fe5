// Package roundtriprank is the public API of this repository: a from-scratch
// Go implementation of RoundTripRank and RoundTripRank+ (Fang, Chang, Lauw —
// "RoundTripRank: Graph-based Proximity with Importance and Specificity",
// ICDE 2013) together with the 2SBound online top-K algorithm.
//
// RoundTripRank measures the proximity of a node v to a query q as the
// probability that a random round trip starting and ending at q passes through
// v, which integrates importance (reachability from the query, as in
// Personalized PageRank) with specificity (reachability back to the query) in
// one coherent random walk. RoundTripRank+ exposes a specificity bias β ∈
// [0, 1] that trades the two senses off: β = 0 is pure importance, β = 1 pure
// specificity, β = 0.5 the balanced RoundTripRank. docs/TUNING.md develops
// the operational intuition for α, β, ε and the convergence tolerance.
//
// # Queries
//
// The entry point is the Engine, which executes Requests — each carrying the
// query distribution, K, α, β, ε and the solver tolerance, a declarative
// Filter, an execution Method and an optional Budget: everything that decides
// how the query ranks — and returns Responses. The Engine's own options only
// deploy it: workers, caches, a stats hook. The default Method, Auto,
// plans exact full-vector solves on small in-memory graphs and the online
// 2SBound branch-and-bound search on large ones; Exact and TwoSBound select
// a path explicitly, and Distributed and TwoSBoundRemote run the same two
// algorithm families against a cluster of stripe workers configured with
// WithWorkers instead of the local view (see distributed.go and
// ARCHITECTURE.md). Engine.FleetStats reports that cluster.
// Engine.RankBatch amortizes a batch of queries by sharing single-node score
// vectors through the Linearity Theorem, and every computation honors context
// cancellation. An engine serves a View, one of three layouts — a *Graph, its
// bare flat arrays, or a memory-lean packed form — in place; caller-owned
// adjacency arrays come in through graph.Compact. Each serving snapshot
// connects to the worker fleet at most once per epoch and refuses workers
// striped from a different graph, so where the rows live is invisible to both
// families: the exact solvers gather rows and the online search reads them
// through one seam each, local or remote.
//
// # Live graphs
//
// Graphs are immutable snapshots versioned by an epoch. A Delta stages a
// batch of mutations (node additions, edge upserts, edge and node removals)
// against one snapshot; Commit merges it into a fresh Graph one epoch later,
// and Engine.Apply commits and swaps the engine's serving snapshot
// atomically — in-flight queries finish on the epoch they planned against,
// the epoch-keyed vector cache drops superseded entries, and a configured
// worker fleet is reconciled stripe by stripe (RedeployStripes ships only
// stripes the commit changed). docs/OPERATIONS.md covers the rollover
// lifecycle from an operator's perspective.
package roundtriprank
