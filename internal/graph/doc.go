// Package graph provides the typed, directed, weighted graph substrate used by
// all proximity measures in this repository.
//
// A Graph is an immutable compressed-sparse-row (CSR) structure produced by a
// Builder. Nodes carry a small integer type (paper, author, term, venue,
// phrase, URL, ...) and a string label; edges are directed and weighted, and
// an undirected edge is represented by two directed edges. Both out- and
// in-adjacency are materialized so that forward walks (F-Rank), backward walks
// (T-Rank) and border-node expansions are all O(degree).
//
// Random-walk code operates on the View interface rather than on *Graph
// directly. Views that can expose flat CSR arrays implement CSRView, the
// layout the parallel walk kernels run on, and Rows, the row seam the online
// searcher reads; Compact flattens any other view into one, and the solvers do
// so themselves at the door when handed such a view. Graph.Without is the
// graph minus some edges as flat arrays — per-query edge masking (ground-truth
// edge removal in the evaluation tasks).
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
