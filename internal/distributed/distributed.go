// This file holds the Stripe structure; the package documentation lives in
// doc.go.
package distributed

import (
	"fmt"
	"io"

	"roundtriprank/internal/graph"
)

// Stripe holds the subset of a graph assigned to one worker: the
// graph.StripeData it serves — every node v with v mod Count == Index, its
// out- and in-rows in two compact CSRs over the local row index (node v is
// local row v/Count, since v = Index + row*Count), the same layout the
// in-memory graph uses — plus that payload's content fingerprint, hashed once.
// A Stripe is immutable: its arrays are read concurrently by every RPC.
type Stripe struct {
	graph.StripeData
	content uint32
}

// BuildStripe extracts stripe `index` of `count` from g by round-robin node
// assignment (Sect. V-B2), slicing the owned rows out of g's CSR arrays.
func BuildStripe(g *graph.Graph, index, count int) (*Stripe, error) {
	d, err := graph.BuildStripeData(g, index, count)
	if err != nil {
		return nil, fmt.Errorf("distributed: %w", err)
	}
	return StripeFromData(d), nil
}

// StripeFromData wraps a validated codec payload as a servable Stripe. It
// checks nothing: graph.BuildStripeData cuts valid stripes from a valid
// graph, and graph.DecodeStripe rejects invalid ones.
func StripeFromData(d *graph.StripeData) *Stripe {
	return &Stripe{StripeData: *d, content: d.ContentFingerprint()}
}

// GraphFingerprint returns the fingerprint of the graph this stripe was cut
// from (graph.GraphFingerprint of the full graph, not of the slice).
func (s *Stripe) GraphFingerprint() uint32 { return s.Graph }

// ContentFingerprint returns the fingerprint of the stripe's own payload
// (StripeData.ContentFingerprint, computed when the stripe was made), stable
// across commits that do not touch the stripe's rows. Redeploys compare it to
// skip shipping unchanged stripes.
func (s *Stripe) ContentFingerprint() uint32 { return s.content }

// retagged returns a copy of the stripe bound to a new source-graph identity,
// sharing the CSR arrays. Used when a commit left this stripe's rows
// unchanged: the payload is identical, only the graph fingerprint and epoch
// move. A fresh Stripe (rather than in-place mutation) keeps in-flight
// multiplies reading a consistent snapshot.
func (s *Stripe) retagged(graphSum uint32, epoch uint64) *Stripe {
	c := *s
	c.Graph, c.Epoch = graphSum, epoch
	return &c
}

// Encode writes the stripe in the binary stripe format of
// graph.EncodeStripe, suitable for persisting to disk or shipping to a
// worker's stripe-install endpoint.
func (s *Stripe) Encode(w io.Writer) error { return graph.EncodeStripe(w, &s.StripeData) }

// DecodeStripe reads a stripe previously written with Stripe.Encode (or
// graph.EncodeStripe), verifying checksums and CSR invariants.
func DecodeStripe(r io.Reader) (*Stripe, error) {
	d, err := graph.DecodeStripe(r)
	if err != nil {
		return nil, err
	}
	return StripeFromData(d), nil
}

// OutSums returns the total outgoing edge weight of every owned node, indexed
// by local row. The coordinator assembles these into the global out-weight
// vector it needs for transition scaling and dangling-mass collection. The
// returned slice aliases the stripe; treat it as read-only.
func (s *Stripe) OutSums() []float64 { return s.Out.Sum }

// multiply computes one owned slice of the gather over dir's rows: for
// graph.In the pull that drives F-Rank, dst[r] = Σ_{u→v} w(u,v)·x[u] over
// each owned node v's transposed row; for graph.Out the forward reduction
// that drives T-Rank, dst[r] = Σ_{v→to} w(v,to)·x[to], raw — the
// coordinator applies the 1/outSum normalization. x must have NumNodes
// entries and dst Rows() entries. The reduction is graph.CSR.Gather, the
// very function the in-process solve runs, so a distributed solve is
// bit-identical to a local one.
func (s *Stripe) multiply(dir graph.Dir, x, dst []float64) error {
	rows := s.Out
	switch {
	case dir == graph.In:
		rows = s.In
	case dir != graph.Out:
		return fmt.Errorf("distributed: unknown multiply direction %v", dir)
	}
	if len(x) != s.NumNodes {
		return fmt.Errorf("distributed: multiply input has %d entries, stripe graph has %d nodes", len(x), s.NumNodes)
	}
	if len(dst) != s.Rows() {
		return fmt.Errorf("distributed: multiply output has %d entries, stripe owns %d rows", len(dst), s.Rows())
	}
	rows.Gather(x, dst, nil, 0, len(dst))
	return nil
}

// SizeBytes estimates the stripe's in-memory footprint.
func (s *Stripe) SizeBytes() int64 {
	edges := int64(len(s.Out.Col) + len(s.In.Col))
	return int64(s.Rows())*48 + edges*12
}
