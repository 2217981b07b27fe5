package distributed

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"sync"

	"roundtriprank/internal/graph"
)

// Direction is graph.Dir, the one direction type from the solver to the
// wire. The alias survives only because bench/remote.go names it: ROADMAP
// item 1(h) moves that signature to graph.Dir and deletes this.
type Direction = graph.Dir

// ProtocolVersion is the version of the coordinator/worker wire protocol; a
// worker advertises it in WorkerInfo and the coordinator refuses mismatches.
// Version 2 dropped the out-weight sum from every /v1/rows row.
const ProtocolVersion = 2

// WorkerInfo describes the stripe a worker serves. It is the JSON body of the
// worker's /v1/info endpoint.
type WorkerInfo struct {
	// Protocol is the wire protocol version the worker speaks.
	Protocol int `json:"protocol"`
	// Index and Count identify the served stripe within the partition.
	Index int `json:"stripe"`
	Count int `json:"of"`
	// Graph is the fingerprint of the graph the stripe was cut from; the
	// coordinator refuses to assemble workers reporting different values.
	Graph uint32 `json:"graph"`
	// Epoch is the snapshot version of the source graph.
	Epoch uint64 `json:"epoch"`
	// Content is the fingerprint of the stripe's own payload
	// (graph.StripeData.ContentFingerprint). Redeploys compare it against the
	// freshly cut stripe to decide between shipping and retagging.
	Content uint32 `json:"content"`
	// NumNodes is the node count of the full striped graph.
	NumNodes int `json:"nodes"`
	// Rows is the number of nodes the stripe owns.
	Rows int `json:"rows"`
	// OutEdges and InEdges are the stored edge counts, for capacity reporting.
	OutEdges int `json:"out_edges"`
	InEdges  int `json:"in_edges"`
}

// Transport is one coordinator-side connection to a worker serving a stripe:
// the whole query-time worker protocol. Every call is a pure function of its
// inputs (the worker keeps no per-query state), so every call is idempotent
// and safe to retry; the Fleet relies on this when it retries transient
// failures mid-query.
//
// Loopback (in-process, for tests and single-host deployments) and
// HTTPTransport (the gpserver wire protocol) reach a worker; ReplicaSet and
// chaos.Transport decorate other transports.
type Transport interface {
	// Info returns the stripe topology the worker serves.
	Info(ctx context.Context) (WorkerInfo, error)
	// OutSums returns the out-weight sums of the worker's owned rows.
	OutSums(ctx context.Context) ([]float64, error)
	// Multiply streams the full iteration vector x to the worker and returns
	// the gathered partial vector over the worker's owned rows. graphSum is
	// the fingerprint the coordinator validated at connect time; the worker
	// refuses the call if its stripe has since been replaced with one cut
	// from a different graph, so a mid-lifetime redeploy fails loudly
	// instead of silently mixing graphs.
	Multiply(ctx context.Context, dir graph.Dir, graphSum uint32, x []float64) ([]float64, error)
	// RowFetcher is the row-granular half of the protocol (rows.go).
	RowFetcher
	// Close releases the connection; the Transport is unusable afterwards.
	Close() error
}

// StripeInstaller is the deploy-time half of the worker protocol, implemented
// by transports that reach one worker (Loopback, HTTPTransport) and not by a
// ReplicaSet, which cannot receive a stripe: it is the one optional
// capability, asserted by EnsureStripe and fleet reconciliation.
type StripeInstaller interface {
	// SendStripe ships the stripe to the worker, replacing whatever it served
	// under that stripe index.
	SendStripe(ctx context.Context, s *Stripe) error
	// RetagStripe rebinds the worker's stripe to the given graph fingerprint
	// and epoch without re-receiving the payload, provided the served
	// payload's content fingerprint equals content; a mismatch (or an empty
	// worker) fails without side effects and the caller falls back to
	// SendStripe. After a Commit, stripes whose rows the delta did not touch
	// have identical payloads under the new graph, so the redeploy retags them
	// in one tiny RPC instead of shipping megabytes of unchanged CSR arrays.
	RetagStripe(ctx context.Context, graphSum uint32, epoch uint64, content uint32) error
	// RemoveStripe uninstalls the transport's bound stripe (or the worker's
	// sole stripe for an unbound transport); fleet rebalancing calls it when
	// placement moves a stripe off a member. Removing a stripe the worker does
	// not serve is an error.
	RemoveStripe(ctx context.Context) error
}

// TransientError marks a worker failure as retryable: the coordinator retries
// the idempotent call on the same worker instead of failing the query.
// Network-level failures and HTTP 5xx responses are transient; protocol
// violations and HTTP 4xx responses are not.
type TransientError struct {
	Err error
}

// Error implements error.
func (e *TransientError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying failure.
func (e *TransientError) Unwrap() error { return e.Err }

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool {
	var te *TransientError
	return errors.As(err, &te)
}

// Vector wire format: a raw array of little-endian IEEE-754 float64 values,
// with the element count implied by the byte length. It is the body of the
// /v1/multiply request and response and of the /v1/outsums response.

// AppendVector appends the wire encoding of x to buf and returns the result.
func AppendVector(buf []byte, x []float64) []byte {
	for _, v := range x {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// decodeVector fills dst from the wire encoding in raw, which holds at least
// len(dst)×8 bytes.
func decodeVector(dst []float64, raw []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
}

// The multiply RPC's wire buffers are pooled on both ends, so a warm call
// allocates only the partial vector Transport.Multiply returns: bytePool holds
// the encoded request and response vectors, of the worker and the
// coordinator alike, and floatPool the worker's decoded x and gathered dst.
// Every buffer is taken at full-vector size, whatever part of it a call uses,
// so the buffers one graph's calls return fit every later call on that graph;
// a buffer too small for a call (a smaller graph's) is dropped for a new one.
var bytePool, floatPool sync.Pool

// pooled takes a buffer of length n from p, which holds *[]T.
func pooled[T any](p *sync.Pool, n int) *[]T {
	b, _ := p.Get().(*[]T)
	if b == nil || cap(*b) < n {
		nb := make([]T, n)
		return &nb
	}
	*b = (*b)[:n]
	return b
}

// vectorBytes takes a pooled byte buffer for an n-entry vector: n×8 bytes and
// one more, into which the worker reads to tell an over-long body.
func vectorBytes(n int) *[]byte { return pooled[byte](&bytePool, n*8+1) }

// Loopback is an in-process Transport wrapping a Worker directly: no
// serialization, no network. It keeps tests and single-process deployments
// fast and deterministic while exercising the same coordinator code paths as
// the HTTP transport. A Loopback may be bound to one stripe of a multi-stripe
// worker (NewLoopbackAt); the zero binding addresses the worker's sole stripe.
type Loopback struct {
	w     *Worker
	index int
}

// NewLoopback returns a Transport that calls w in-process, addressing its
// sole stripe.
func NewLoopback(w *Worker) *Loopback { return &Loopback{w: w, index: AnyStripe} }

// NewLoopbackAt returns a Transport that calls w in-process, bound to the
// stripe with the given index.
func NewLoopbackAt(w *Worker, index int) *Loopback { return &Loopback{w: w, index: index} }

// Info implements Transport.
func (l *Loopback) Info(ctx context.Context) (WorkerInfo, error) {
	if err := ctx.Err(); err != nil {
		return WorkerInfo{}, err
	}
	return l.w.Info(l.index)
}

// OutSums implements Transport.
func (l *Loopback) OutSums(ctx context.Context) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.w.OutSums(l.index)
}

// Multiply implements Transport.
func (l *Loopback) Multiply(ctx context.Context, dir graph.Dir, graphSum uint32, x []float64) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.w.Multiply(l.index, dir, graphSum, x)
}

// SendStripe implements StripeInstaller.
func (l *Loopback) SendStripe(ctx context.Context, s *Stripe) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	l.w.SetStripe(s)
	return nil
}

// RetagStripe implements StripeInstaller.
func (l *Loopback) RetagStripe(ctx context.Context, graphSum uint32, epoch uint64, content uint32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	_, err := l.w.Retag(l.index, graphSum, epoch, content)
	return err
}

// RemoveStripe implements StripeInstaller.
func (l *Loopback) RemoveStripe(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return l.w.RemoveStripe(l.index)
}

// Close implements Transport; loopback transports hold no resources.
func (l *Loopback) Close() error { return nil }
