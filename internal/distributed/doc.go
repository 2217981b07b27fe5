// Package distributed implements serving a round-robin-striped graph from
// multiple processes. Two subsystems share the stripe workers.
//
// # One client
//
// Transport is the whole query-time worker protocol — Info, OutSums, Multiply
// and the row RPCs of RowFetcher. One implementation reaches a worker:
// HTTPTransport, which speaks the cmd/gpserver wire protocol to a worker over
// the network (NewHTTPTransport) or hands the same requests to the worker's
// Handler in-process (NewLoopback), so in-process fleets run the codec, the
// status mapping and the fingerprint pin that deployments run. ReplicaSet
// (failover within one stripe's replica group) decorates transports, and
// HTTPTransport.WithRoundTripper is the seam below one, where tests inject
// faults that the transport classifies like network ones. StripeInstaller
// (send, retag, remove a stripe) is the one optional capability, because a
// replica group cannot receive a stripe. A Worker holds any number of
// Stripes keyed by index and answers every RPC through its Handler, whose
// ?stripe=N selector addresses one (absent: its sole stripe).
//
// # Exact solves
//
// Each Worker holds Stripes (compact CSR slices of the owned rows, loadable
// from the binary codec in internal/graph) and serves stateless per-iteration
// gather RPCs; the connected Fleet (Connect) fans each power iteration out
// over a Transport per stripe, retries transient failures, and scatters the
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
// mixing snapshots. A fleet follows a commit through EnsureStripe: the
// stripe-install endpoint for changed stripes and the cheap retag RPC for
// stripes whose content the commit did not touch.
//
// # Row serving (online search)
//
// The row-fetch RPCs (rows.go: FetchRows, OutDegrees) reproduce the paper's
// AP/GP architecture of Sect. V-B for the online search: workers answer
// batched adjacency-row requests for their stripe while the coordinator runs
// 2SBound over an internal/rowserve session that assembles only the active
// set — the rows the query actually touches — in a local cache, exposed as
// graph.Rows so the same searcher runs unchanged on one machine or a cluster.
// Rows are range-checked there, once per fetch, before the searcher sees them.
package distributed
