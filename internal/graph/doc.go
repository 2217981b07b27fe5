// Package graph provides the typed, directed, weighted graph substrate used by
// all proximity measures in this repository.
//
// A Graph is an immutable compressed-sparse-row (CSR) structure produced by a
// Builder. Nodes carry a small integer type (paper, author, term, venue,
// phrase, URL, ...) and a string label; edges are directed and weighted, and
// an undirected edge is represented by two directed edges. Both out- and
// in-adjacency are materialized so that forward walks (F-Rank), backward walks
// (T-Rank) and border-node expansions are all O(degree). A graph whose every
// weight is 1 stores no weight arrays (the unit form of CSR).
//
// Random-walk code operates on the View interface rather than on *Graph
// directly. View is a closed contract: what a layout owes a solver — its node
// count, epoch and content fingerprint, its rows (NewRows, the seam the online
// searcher reads) and the rows the exact solvers sweep (OutSums, InSums and
// FlatRows, one direction's rows of a solve's listed support as a flat CSR,
// which every solve reduces with CSR.Gather) — implemented by the three layouts
// of this package and by nothing else: *Graph, *CompactedView (bare flat CSR
// arrays, which a *Graph embeds) and *Packed (varint-packed rows). Compact puts
// caller-owned flat arrays (a CSRView) under a solver without copying them.
// Graph.Without is the graph minus some edges as flat arrays — per-query edge
// masking (ground-truth edge removal in the evaluation tasks).
//
// # Mutation and epochs
//
// Graphs never mutate in place. A Delta stages a batch of changes against one
// snapshot — node additions, edge upserts, edge removals, node isolations —
// and Commit merges it into a fresh Graph whose Epoch is one higher, with
// adjacency arrays laid out bit-identically to a from-scratch Build of the
// same edges. GraphFingerprint stamps the epoch into the snapshot's
// identity, and the stripe codec (stripeio.go) carries both the graph
// fingerprint and a per-stripe ContentFingerprint, which is what lets a
// worker fleet roll to a new epoch by re-shipping only the stripes a commit
// actually changed.
package graph
