// Package distributed implements serving a round-robin-striped graph from
// multiple processes. Two subsystems share the stripe workers.
//
// # Coordinator/worker (exact solves)
//
// The coordinator/worker subsystem executes exact solves across the cluster:
// each Worker holds one Stripe (compact CSR slices of the owned rows,
// loadable from the binary codec in internal/graph) and serves stateless
// per-iteration gather RPCs; the connected Fleet fans each power iteration out
// over a Transport per worker — in-process Loopback or HTTPTransport (the
// cmd/gpserver wire protocol) — retries transient failures, and scatters the
// partial vectors by stripe. No arithmetic lives here: the Fleet is a
// walk.Gatherer beneath walk's one power iteration and a worker reduces its
// rows with graph.CSR.Gather, so distributed F-Rank/T-Rank vectors are
// bit-identical to local ones by construction. The handshake that validates a
// fleet (Connect) and the retry discipline (Call) are shared with the
// row-serving path, which rides on the same connected Fleet.
//
// Stripes are immutable snapshots identified by the source graph's
// epoch-stamped fingerprint, which Multiply pins per call: when a commit
// rolls the graph to a new epoch, stale coordinators fail loudly instead of
// mixing snapshots. A fleet follows a commit via the stripe-install endpoint
// for changed stripes and the cheap retag RPC (StripeRetagger) for stripes
// whose content the commit did not touch.
//
// # Row serving (online search)
//
// The row-fetch RPCs (rows.go: FetchRows, OutDegrees) reproduce the paper's
// AP/GP architecture of Sect. V-B for the online search: workers answer
// batched adjacency-row requests for their stripe while the coordinator runs
// 2SBound over an internal/rowserve session that assembles only the active
// set — the rows the query actually touches — in a local cache, exposed as
// graph.Rows so the same searcher runs unchanged on one machine or a cluster.
package distributed
