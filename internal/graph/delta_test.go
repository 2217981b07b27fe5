package graph

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// deltaBase builds the 6-node typed base graph the delta tests mutate.
func deltaBase(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	b.RegisterType(1, "paper")
	b.RegisterType(2, "author")
	p0 := b.AddNode(1, "p0")
	p1 := b.AddNode(1, "p1")
	p2 := b.AddNode(1, "p2")
	a0 := b.AddNode(2, "a0")
	a1 := b.AddNode(2, "a1")
	a2 := b.AddNode(2, "a2")
	b.MustAddUndirectedEdge(p0, a0, 1)
	b.MustAddUndirectedEdge(p0, a1, 2)
	b.MustAddUndirectedEdge(p1, a1, 1)
	b.MustAddUndirectedEdge(p2, a2, 3)
	b.MustAddEdge(p0, p1, 0.5)
	b.MustAddEdge(p1, p2, 0.5)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// requireSameCSR asserts that two graphs have bit-identical adjacency arrays.
func requireSameCSR(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("size mismatch: got %d nodes %d edges, want %d nodes %d edges",
			got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	pairs := []struct {
		name      string
		got, want CSR
	}{{"out", got.out, want.out}, {"in", got.in, want.in}}
	for _, p := range pairs {
		if !reflect.DeepEqual(p.got.RowPtr, p.want.RowPtr) {
			t.Fatalf("%s RowPtr mismatch:\n got  %v\n want %v", p.name, p.got.RowPtr, p.want.RowPtr)
		}
		if !reflect.DeepEqual(p.got.Col, p.want.Col) {
			t.Fatalf("%s Col mismatch:\n got  %v\n want %v", p.name, p.got.Col, p.want.Col)
		}
		if (p.got.Weight == nil) != (p.want.Weight == nil) {
			t.Fatalf("%s: unit form %v, want %v", p.name, p.got.Weight == nil, p.want.Weight == nil)
		}
		for v := range p.want.Sum {
			_, gw := p.got.Row(NodeID(v))
			_, ww := p.want.Row(NodeID(v))
			if !sameRow(nil, gw, nil, ww) {
				t.Fatalf("%s row %d weights: got %v want %v", p.name, v, gw, ww)
			}
		}
		for v := range p.want.Sum {
			if math.Float64bits(p.got.Sum[v]) != math.Float64bits(p.want.Sum[v]) {
				t.Fatalf("%s Sum[%d]: got %v want %v", p.name, v, p.got.Sum[v], p.want.Sum[v])
			}
		}
	}
}

func TestCommitMatchesFromScratchBuild(t *testing.T) {
	g := deltaBase(t)
	d := NewDelta(g)

	// Every mutation class at once: a new node wired in, a reweight, a
	// directed removal, an undirected removal, and a node isolation.
	pNew := d.AddNode(1, "p3")
	if pNew != NodeID(g.NumNodes()) {
		t.Fatalf("AddNode assigned %d, want %d", pNew, g.NumNodes())
	}
	if err := d.SetUndirectedEdge(pNew, d.NodeByLabel("a1"), 2.5); err != nil {
		t.Fatal(err)
	}
	if err := d.SetEdge(d.NodeByLabel("p2"), pNew, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := d.SetEdge(d.NodeByLabel("p0"), d.NodeByLabel("a0"), 4); err != nil { // reweight
		t.Fatal(err)
	}
	if err := d.RemoveEdge(d.NodeByLabel("p0"), d.NodeByLabel("p1")); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveUndirectedEdge(d.NodeByLabel("p1"), d.NodeByLabel("a1")); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveNode(d.NodeByLabel("a2")); err != nil {
		t.Fatal(err)
	}

	got, err := Commit(g, d)
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("committed graph invalid: %v", err)
	}
	if got.Epoch() != g.Epoch()+1 {
		t.Fatalf("epoch: got %d, want %d", got.Epoch(), g.Epoch()+1)
	}

	// The equivalent graph built from scratch: same nodes (a2 still present,
	// isolated), surviving edges only.
	b := NewBuilder()
	b.RegisterType(1, "paper")
	b.RegisterType(2, "author")
	p0 := b.AddNode(1, "p0")
	p1 := b.AddNode(1, "p1")
	p2 := b.AddNode(1, "p2")
	a0 := b.AddNode(2, "a0")
	a1 := b.AddNode(2, "a1")
	b.AddNode(2, "a2")
	p3 := b.AddNode(1, "p3")
	b.MustAddEdge(p0, a0, 4)
	b.MustAddEdge(a0, p0, 1)
	b.MustAddUndirectedEdge(p0, a1, 2)
	b.MustAddEdge(p1, p2, 0.5)
	b.MustAddUndirectedEdge(p3, a1, 2.5)
	b.MustAddEdge(p2, p3, 1.5)
	want := b.MustBuild()

	requireSameCSR(t, got, want)
	for v := 0; v < want.NumNodes(); v++ {
		if got.Label(NodeID(v)) != want.Label(NodeID(v)) || got.Type(NodeID(v)) != want.Type(NodeID(v)) {
			t.Fatalf("node %d metadata mismatch: %q/%d vs %q/%d",
				v, got.Label(NodeID(v)), got.Type(NodeID(v)), want.Label(NodeID(v)), want.Type(NodeID(v)))
		}
	}
	if got.NodeByLabel("p3") != p3 {
		t.Fatalf("label index not extended: p3 -> %d", got.NodeByLabel("p3"))
	}

	// Same adjacency, different epoch: the fingerprints must differ (the
	// epoch is stamped in), while the epoch-less content matches.
	if GraphFingerprint(got) == GraphFingerprint(want) {
		t.Fatalf("fingerprint did not change with the epoch")
	}
}

func TestCommitEmptyDeltaBumpsEpochOnly(t *testing.T) {
	g := deltaBase(t)
	d := NewDelta(g)
	if !d.Empty() {
		t.Fatal("fresh delta not empty")
	}
	ng, err := Commit(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if ng.Epoch() != 1 {
		t.Fatalf("epoch: got %d, want 1", ng.Epoch())
	}
	requireSameCSR(t, ng, g)
	if GraphFingerprint(ng) == GraphFingerprint(g) {
		t.Fatal("empty commit must still change the fingerprint (epoch stamp)")
	}
}

func TestCommitRefusesForeignBase(t *testing.T) {
	g := deltaBase(t)
	other := deltaBase(t)
	d := NewDelta(g)
	if _, err := Commit(other, d); err == nil {
		t.Fatal("Commit accepted a delta staged against a different snapshot")
	}
	if _, err := Commit(g, nil); err == nil {
		t.Fatal("Commit accepted a nil delta")
	}
}

func TestDeltaStagingSemantics(t *testing.T) {
	g := deltaBase(t)
	p0, p1, a0 := g.NodeByLabel("p0"), g.NodeByLabel("p1"), g.NodeByLabel("a0")

	d := NewDelta(g)
	if err := d.SetEdge(p0, p0, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := d.SetEdge(p0, p1, math.Inf(1)); err == nil {
		t.Fatal("infinite weight accepted")
	}
	if err := d.SetEdge(p0, p1, -1); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := d.SetEdge(p0, NodeID(99), 1); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	if err := d.RemoveEdge(p1, a0); err == nil {
		t.Fatal("removal of a nonexistent edge accepted")
	}

	// Remove-then-set re-adds; set-then-remove of a staged addition cancels.
	if err := d.RemoveEdge(p0, p1); err != nil {
		t.Fatal(err)
	}
	if err := d.SetEdge(p0, p1, 9); err != nil {
		t.Fatal(err)
	}
	nn := d.AddNode(Untyped, "x")
	if err := d.SetEdge(p0, nn, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveEdge(p0, nn); err != nil {
		t.Fatal(err)
	}
	ng, err := Commit(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := ng.EdgeWeight(p0, p1); !ok || w != 9 {
		t.Fatalf("p0->p1 after remove-then-set: %v %v, want 9 true", w, ok)
	}
	if ng.HasEdge(p0, nn) {
		t.Fatal("cancelled staged edge committed")
	}

	// AddNode is label-idempotent against both the base and the batch.
	d2 := NewDelta(g)
	if id := d2.AddNode(1, "p0"); id != p0 {
		t.Fatalf("AddNode(existing label) = %d, want %d", id, p0)
	}
	y1 := d2.AddNode(1, "y")
	if y2 := d2.AddNode(2, "y"); y2 != y1 {
		t.Fatalf("staged duplicate label: %d vs %d", y2, y1)
	}
}

func TestRemoveNodeIsolatesAndCanReattach(t *testing.T) {
	g := deltaBase(t)
	a1 := g.NodeByLabel("a1")
	p0 := g.NodeByLabel("p0")

	d := NewDelta(g)
	if err := d.RemoveNode(a1); err != nil {
		t.Fatal(err)
	}
	ng, err := Commit(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if ng.OutDegree(a1) != 0 || ng.InCSR().Degree(a1) != 0 {
		t.Fatalf("removed node still has edges: out=%d in=%d", ng.OutDegree(a1), ng.InCSR().Degree(a1))
	}
	if ng.Label(a1) != "a1" || ng.NodeByLabel("a1") != a1 {
		t.Fatal("removed node lost its identity")
	}

	// SetEdge after RemoveNode re-attaches.
	d2 := NewDelta(g)
	if err := d2.RemoveNode(a1); err != nil {
		t.Fatal(err)
	}
	if err := d2.SetEdge(p0, a1, 7); err != nil {
		t.Fatal(err)
	}
	ng2, err := Commit(g, d2)
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := ng2.EdgeWeight(p0, a1); !ok || w != 7 {
		t.Fatalf("re-attached edge: %v %v, want 7 true", w, ok)
	}
	if ng2.InCSR().Degree(a1) != 1 || ng2.OutDegree(a1) != 0 {
		t.Fatalf("re-attached node degrees: in=%d out=%d, want 1/0", ng2.InCSR().Degree(a1), ng2.OutDegree(a1))
	}
}

func TestStripeContentFingerprintStability(t *testing.T) {
	g := deltaBase(t)

	// Touch only p0<->a0: stripes owning neither endpoint's rows keep their
	// content fingerprint across the commit, the others change.
	d := NewDelta(g)
	if err := d.SetEdge(g.NodeByLabel("p0"), g.NodeByLabel("a0"), 4); err != nil {
		t.Fatal(err)
	}
	ng, err := Commit(g, d)
	if err != nil {
		t.Fatal(err)
	}

	const stripes = 3 // p0=node0 (stripe 0), a0=node3 (stripe 0)
	changed := 0
	for i := 0; i < stripes; i++ {
		before, err := BuildStripeData(g, i, stripes)
		if err != nil {
			t.Fatal(err)
		}
		after, err := BuildStripeData(ng, i, stripes)
		if err != nil {
			t.Fatal(err)
		}
		if before.Graph == after.Graph {
			t.Fatalf("stripe %d: graph fingerprint did not roll with the epoch", i)
		}
		if before.Epoch != 0 || after.Epoch != 1 {
			t.Fatalf("stripe %d: epochs %d -> %d, want 0 -> 1", i, before.Epoch, after.Epoch)
		}
		if before.ContentFingerprint() != after.ContentFingerprint() {
			changed++
		}
	}
	// The reweighted edge touches out-rows of p0 (stripe 0) and in-rows of a0
	// (stripe 0, node 3): only stripe 0's content may change.
	if changed != 1 {
		t.Fatalf("%d stripe contents changed, want exactly 1", changed)
	}
}

// TestEpochZeroFingerprintIsLegacyCompatible pins that epoch 0 hashes
// exactly as the pre-epoch formula: an unversioned view (Compact) of an
// epoch-0 graph must fingerprint identically, so stripes cut before epochs
// existed remain valid against the epoch-0 graphs they were cut from.
func TestEpochZeroFingerprintIsLegacyCompatible(t *testing.T) {
	g := deltaBase(t)
	if got, want := GraphFingerprint(Compact(g)), GraphFingerprint(g); got != want {
		t.Fatalf("epoch-0 fingerprint diverged from the unversioned formula: %08x vs %08x", got, want)
	}
	ng, err := Commit(g, NewDelta(g))
	if err != nil {
		t.Fatal(err)
	}
	if GraphFingerprint(ng) == GraphFingerprint(g) {
		t.Fatal("epoch 1 must fingerprint differently from epoch 0")
	}
	// The cache must not leak across snapshots: recomputing yields the same
	// value (and the committed graph's cache is its own).
	if GraphFingerprint(g) != computeFingerprint(g.NumNodes(), 0, g.OutCSR()) || GraphFingerprint(ng) != computeFingerprint(ng.NumNodes(), 1, ng.OutCSR()) {
		t.Fatal("cached fingerprint differs from a fresh computation")
	}
}

func TestStripeCodecCarriesEpochAndRejectsOldVersions(t *testing.T) {
	g := deltaBase(t)
	ng, err := Commit(g, NewDelta(g))
	if err != nil {
		t.Fatal(err)
	}
	d, err := BuildStripeData(ng, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeStripe(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeStripe(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 1 || got.Graph != d.Graph || got.ContentFingerprint() != d.ContentFingerprint() {
		t.Fatalf("round trip lost identity: epoch=%d graph=%08x", got.Epoch, got.Graph)
	}

	// Streams of the earlier codec versions are refused on the version field
	// alone: a hand-built version-2 (or 1) header with nothing behind it must
	// fail with the version error, not with a truncation further in.
	for _, old := range []byte{1, 2} {
		hdr := append(append([]byte(nil), buf.Bytes()[:4]...), old, 0) // magic, version
		_, err := DecodeStripe(bytes.NewReader(hdr))
		if want := fmt.Sprintf("unsupported version %d", old); err == nil ||
			!strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "re-cut the stripe") {
			t.Fatalf("version %d header: got %v, want %q and the re-cut hint", old, err, want)
		}
	}
}
