// This file holds the Stripe structure; the package documentation lives in
// doc.go.
package distributed

import (
	"fmt"
	"io"

	"roundtriprank/internal/graph"
)

// Stripe holds the subset of a graph assigned to one worker: every node v with
// v mod numStripes == index, along with its full adjacency. The adjacency is
// stored as two compact CSR structures over the stripe's local node index
// (node v maps to local row v/Count, since v = Index + row*Count), so a
// stripe is two offset arrays plus flat column/weight slices — the same
// layout the in-memory graph uses, with no per-node map or allocation.
type Stripe struct {
	Index    int
	Count    int
	NumNodes int
	graphSum uint32 // fingerprint of the source graph (graph.GraphFingerprint)
	epoch    uint64 // snapshot version of the source graph (graph.Graph.Epoch)
	content  uint32 // fingerprint of the stripe's own payload (StripeData.ContentFingerprint)
	rows     int
	out      graph.CSR
	in       graph.CSR
}

// BuildStripe extracts stripe `index` of `count` from g by round-robin node
// assignment (Sect. V-B2), slicing the owned rows out of g's CSR arrays.
func BuildStripe(g *graph.Graph, index, count int) (*Stripe, error) {
	d, err := graph.BuildStripeData(g, index, count)
	if err != nil {
		return nil, fmt.Errorf("distributed: %w", err)
	}
	return StripeFromData(d)
}

// StripeFromData wraps a validated codec payload as a servable Stripe.
func StripeFromData(d *graph.StripeData) (*Stripe, error) {
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("distributed: %w", err)
	}
	return &Stripe{
		Index:    d.Index,
		Count:    d.Count,
		NumNodes: d.NumNodes,
		graphSum: d.Graph,
		epoch:    d.Epoch,
		content:  d.ContentFingerprint(),
		rows:     d.Rows(),
		out:      d.Out,
		in:       d.In,
	}, nil
}

// GraphFingerprint returns the fingerprint of the graph this stripe was cut
// from (graph.GraphFingerprint of the full graph, not of the slice).
func (s *Stripe) GraphFingerprint() uint32 { return s.graphSum }

// Epoch returns the snapshot version of the graph the stripe was cut from.
func (s *Stripe) Epoch() uint64 { return s.epoch }

// ContentFingerprint returns the fingerprint of the stripe's own payload
// (StripeData.ContentFingerprint), stable across commits that do not touch
// the stripe's rows. Redeploys compare it to skip shipping unchanged stripes.
func (s *Stripe) ContentFingerprint() uint32 { return s.content }

// retagged returns a copy of the stripe bound to a new source-graph identity,
// sharing the CSR arrays. Used when a commit left this stripe's rows
// unchanged: the payload is identical, only the graph fingerprint and epoch
// move. A fresh Stripe (rather than in-place mutation) keeps in-flight
// multiplies reading a consistent snapshot.
func (s *Stripe) retagged(graphSum uint32, epoch uint64) *Stripe {
	c := *s
	c.graphSum = graphSum
	c.epoch = epoch
	return &c
}

// Data returns the stripe's codec payload. The CSR slices are shared with the
// stripe, not copied; treat them as read-only.
func (s *Stripe) Data() *graph.StripeData {
	return &graph.StripeData{Index: s.Index, Count: s.Count, NumNodes: s.NumNodes, Graph: s.graphSum, Epoch: s.epoch, Out: s.out, In: s.in}
}

// Encode writes the stripe in the binary stripe format of
// graph.EncodeStripe, suitable for persisting to disk or shipping to a
// worker's stripe-install endpoint.
func (s *Stripe) Encode(w io.Writer) error { return graph.EncodeStripe(w, s.Data()) }

// DecodeStripe reads a stripe previously written with Stripe.Encode (or
// graph.EncodeStripe), verifying checksums and CSR invariants.
func DecodeStripe(r io.Reader) (*Stripe, error) {
	d, err := graph.DecodeStripe(r)
	if err != nil {
		return nil, err
	}
	return StripeFromData(d)
}

// OwnedNodes returns the number of nodes assigned to this stripe.
func (s *Stripe) OwnedNodes() int { return s.rows }

// OutSums returns the total outgoing edge weight of every owned node, indexed
// by local row. The coordinator assembles these into the global out-weight
// vector it needs for transition scaling and dangling-mass collection. The
// returned slice aliases the stripe; treat it as read-only.
func (s *Stripe) OutSums() []float64 { return s.out.Sum }

// MultiplyIn computes one owned slice of the pull-style gather that drives
// F-Rank: dst[r] = Σ_{u→v} w(u,v)·x[u] for each owned node v, reading v's
// transposed adjacency row. x must have NumNodes entries and dst OwnedNodes
// entries. The reduction is graph.CSR.Gather, the very function the
// in-process solve runs, so a distributed solve is bit-identical to a local
// one.
func (s *Stripe) MultiplyIn(x, dst []float64) error {
	return s.multiply(s.in, x, dst)
}

// MultiplyOut computes one owned slice of the forward gather that drives
// T-Rank: dst[r] = Σ_{v→to} w(v,to)·x[to] for each owned node v, reading v's
// forward adjacency row. The result is the raw row reduction; the coordinator
// applies the per-row 1/outSum normalization.
func (s *Stripe) MultiplyOut(x, dst []float64) error {
	return s.multiply(s.out, x, dst)
}

func (s *Stripe) multiply(c graph.CSR, x, dst []float64) error {
	if len(x) != s.NumNodes {
		return fmt.Errorf("distributed: multiply input has %d entries, stripe graph has %d nodes", len(x), s.NumNodes)
	}
	if len(dst) != s.rows {
		return fmt.Errorf("distributed: multiply output has %d entries, stripe owns %d rows", len(dst), s.rows)
	}
	c.Gather(x, dst, 0, s.rows)
	return nil
}

// SizeBytes estimates the stripe's in-memory footprint.
func (s *Stripe) SizeBytes() int64 {
	edges := int64(len(s.out.Col) + len(s.in.Col))
	return int64(s.rows)*48 + edges*12
}
