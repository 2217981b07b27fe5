package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func buildSmall(t *testing.T) (*Graph, []NodeID) {
	t.Helper()
	b := NewBuilder()
	b.RegisterType(1, "kind")
	a := b.AddNode(1, "a")
	c := b.AddNode(1, "b")
	d := b.AddNode(2, "c")
	e := b.AddNode(2, "d")
	b.MustAddEdge(a, c, 1)
	b.MustAddEdge(c, d, 2)
	b.MustAddEdge(d, a, 0.5)
	b.MustAddUndirectedEdge(d, e, 3)
	b.MustAddEdge(a, c, 1) // parallel edge, should merge to weight 2
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g, []NodeID{a, c, d, e}
}

func TestBuilderAndAccessors(t *testing.T) {
	g, ids := buildSmall(t)
	a, c, d, e := ids[0], ids[1], ids[2], ids[3]

	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
	// a->c (merged), c->d, d->a, d->e, e->d => 5 directed edges.
	if g.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d, want 5", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if w, ok := g.EdgeWeight(a, c); !ok || w != 2 {
		t.Errorf("EdgeWeight(a,c) = %v,%v want 2,true", w, ok)
	}
	if g.OutDegree(d) != 2 || g.InCSR().Degree(d) != 2 {
		t.Errorf("degrees of d: out=%d in=%d, want 2,2", g.OutDegree(d), g.InCSR().Degree(d))
	}
	if got := g.TransitionProb(d, a); math.Abs(got-0.5/3.5) > 1e-12 {
		t.Errorf("TransitionProb(d,a) = %g, want %g", got, 0.5/3.5)
	}
	if g.Type(a) != 1 || g.Type(e) != 2 {
		t.Errorf("types wrong: %d %d", g.Type(a), g.Type(e))
	}
	if g.TypeName(1) != "kind" {
		t.Errorf("TypeName(1) = %q", g.TypeName(1))
	}
	if g.TypeName(9) == "" {
		t.Errorf("TypeName fallback should be non-empty")
	}
	if g.NodeByLabel("b") != c {
		t.Errorf("NodeByLabel(b) = %d, want %d", g.NodeByLabel("b"), c)
	}
	if g.NodeByLabel("zzz") != NoNode {
		t.Errorf("NodeByLabel(zzz) should be NoNode")
	}
	if g.CountOfType(1) != 2 {
		t.Errorf("CountOfType(1) = %d, want 2", g.CountOfType(1))
	}
	if g.Degree(d) != 4 {
		t.Errorf("Degree(d) = %d, want 4", g.Degree(d))
	}
	if g.SizeBytes() <= 0 {
		t.Errorf("SizeBytes should be positive")
	}
	if !g.HasEdge(c, d) || g.HasEdge(c, a) {
		t.Errorf("HasEdge results wrong")
	}
	outs, ws := g.OutNeighbors(d)
	if len(outs) != 2 || len(ws) != 2 {
		t.Errorf("OutNeighbors(d) lengths %d,%d", len(outs), len(ws))
	}
	ins, iws := g.InNeighbors(d)
	if len(ins) != 2 || len(iws) != 2 {
		t.Errorf("InNeighbors(d) lengths %d,%d", len(ins), len(iws))
	}
}

func TestBuilderDuplicateLabelAndErrors(t *testing.T) {
	b := NewBuilder()
	a := b.AddNode(Untyped, "x")
	a2 := b.AddNode(Untyped, "x")
	if a != a2 {
		t.Fatalf("duplicate label should return same node: %d vs %d", a, a2)
	}
	if b.NodeByLabel("x") != a {
		t.Fatalf("NodeByLabel on builder failed")
	}
	if b.NodeByLabel("missing") != NoNode {
		t.Fatalf("NodeByLabel(missing) should be NoNode")
	}
	if err := b.AddEdge(a, a, 0); err == nil {
		t.Errorf("zero-weight edge should be rejected")
	}
	if err := b.AddEdge(a, 99, 1); err == nil {
		t.Errorf("edge to missing node should be rejected")
	}
	if err := b.AddEdge(99, a, 1); err == nil {
		t.Errorf("edge from missing node should be rejected")
	}
	if b.NumNodes() != 1 {
		t.Errorf("NumNodes = %d, want 1", b.NumNodes())
	}
}

// rebuildWithout builds g's nodes and edges, minus the hidden ones, from
// scratch through a Builder.
func rebuildWithout(g *Graph, hide []EdgeKey) *Graph {
	hidden := make(map[EdgeKey]bool, len(hide))
	for _, k := range hide {
		hidden[k] = true
	}
	b := NewBuilder()
	for v := 0; v < g.NumNodes(); v++ {
		b.AddNode(g.Type(NodeID(v)), g.Label(NodeID(v)))
	}
	for v := 0; v < g.NumNodes(); v++ {
		cols, ws := g.OutRow(NodeID(v))
		for i, to := range cols {
			if !hidden[EdgeKey{NodeID(v), to}] {
				b.MustAddEdge(NodeID(v), to, ws[i])
			}
		}
	}
	return b.MustBuild()
}

// sameCSR reports whether two CSR directions hold bit-equal offsets, columns
// and sums, and bit-equal weights as Row reads them, whichever form each is in.
func sameCSR(a, b CSR) bool {
	if !slices.Equal(a.RowPtr, b.RowPtr) || !slices.Equal(a.Col, b.Col) || !sameRow(nil, a.Sum, nil, b.Sum) {
		return false
	}
	for v := range a.Sum {
		ac, aw := a.Row(NodeID(v))
		bc, bw := b.Row(NodeID(v))
		if !sameRow(ac, aw, bc, bw) {
			return false
		}
	}
	return true
}

// TestMaskedView pins Graph.Without: the masked edges are gone in both
// directions, nonexistent ones are ignored, sums renormalize — and the arrays
// are bit-equal to a from-scratch build of the graph without those edges.
func TestMaskedView(t *testing.T) {
	g, ids := buildSmall(t)
	a, c, d, e := ids[0], ids[1], ids[2], ids[3]
	hide := []EdgeKey{{From: d, To: e}, {From: e, To: d}, {From: a, To: e} /* nonexistent */}
	mv := g.Without(hide)
	if mv.NumNodes() != g.NumNodes() {
		t.Errorf("NumNodes mismatch")
	}
	if want := rebuildWithout(g, hide); !sameCSR(mv.OutCSR(), want.OutCSR()) || !sameCSR(mv.InCSR(), want.InCSR()) {
		t.Errorf("Without differs from a from-scratch build without the edges:\n%+v\n%+v\nwant\n%+v\n%+v",
			mv.OutCSR(), mv.InCSR(), want.OutCSR(), want.InCSR())
	}
	if mv.OutDegree(d) != 1 || mv.InCSR().Degree(d) != 1 {
		t.Errorf("masked degrees of d: out=%d in=%d, want 1,1", mv.OutDegree(d), mv.InCSR().Degree(d))
	}
	if mv.OutDegree(e) != 0 {
		t.Errorf("masked out degree of e = %d, want 0", mv.OutDegree(e))
	}
	if got := mv.OutSum(d); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("masked OutSum(d) = %g, want 0.5", got)
	}
	if got := mv.InCSR().Sum[e]; got != 0 {
		t.Errorf("masked in-sum of e = %g, want 0", got)
	}
	if cols, _ := mv.OutRow(d); slices.Contains(cols, e) {
		t.Errorf("masked edge d->e still visible")
	}
	// Unaffected nodes keep their values, and the graph itself is untouched.
	if mv.OutSum(c) != g.OutSum(c) {
		t.Errorf("unaffected node sum changed")
	}
	if g.OutDegree(d) != 2 || !g.HasEdge(e, d) {
		t.Errorf("Without modified the graph it was taken from")
	}
	// Renormalized transition over the mask.
	if p := TransitionProb(mv, d, a); math.Abs(p-1.0) > 1e-12 {
		t.Errorf("TransitionProb on mask = %g, want 1", p)
	}
	// Nothing hidden: the same arrays, copied.
	if all := g.Without(nil); !sameCSR(all.OutCSR(), g.OutCSR()) || !sameCSR(all.InCSR(), g.InCSR()) {
		t.Errorf("Without(nil) differs from the graph")
	}
}

// TestCountingRows pins the decorator: rows pass through untouched, every node
// whose out- or in-row was read counts once, and the byte estimate charges
// both rows of each such node.
func TestCountingRows(t *testing.T) {
	g, ids := buildSmall(t)
	a, d := ids[0], ids[2]
	c := NewCountingRows(g)
	if c.ActiveNodes() != 0 || c.ActiveSetBytes() != 0 {
		t.Fatalf("fresh decorator reports %d nodes, %d bytes", c.ActiveNodes(), c.ActiveSetBytes())
	}
	cols, wts := c.OutRow(d)
	wantC, wantW := g.OutRow(d)
	if !slices.Equal(cols, wantC) || !slices.Equal(wts, wantW) {
		t.Errorf("OutRow(d) = %v %v, want %v %v", cols, wts, wantC, wantW)
	}
	c.InRow(d)
	c.InRow(a)
	c.OutDegree(ids[1]) // metadata reads are not row reads
	c.OutSum(ids[3])
	if c.ActiveNodes() != 2 {
		t.Errorf("ActiveNodes = %d, want 2", c.ActiveNodes())
	}
	want := int64(2*41 + 12*(g.Degree(d)+g.Degree(a)))
	if got := c.ActiveSetBytes(); got != want {
		t.Errorf("ActiveSetBytes = %d, want %d", got, want)
	}
	if c.ActiveNodes() != 2 {
		t.Errorf("ActiveSetBytes counted its own reads: %d nodes", c.ActiveNodes())
	}
}

func TestTransitionProbZeroOutDegree(t *testing.T) {
	b := NewBuilder()
	a := b.AddNode(Untyped, "a")
	c := b.AddNode(Untyped, "b")
	b.MustAddEdge(a, c, 1)
	g := b.MustBuild()
	if p := g.TransitionProb(c, a); p != 0 {
		t.Errorf("dangling node transition = %g, want 0", p)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g, ids := buildSmall(t)
	a, c, d := ids[0], ids[1], ids[2]
	sub := Induced(g, []NodeID{a, c, d, d})
	if sub.Graph.NumNodes() != 3 {
		t.Fatalf("subgraph nodes = %d, want 3", sub.Graph.NumNodes())
	}
	// Edges within {a,c,d}: a->c, c->d, d->a.
	if sub.Graph.NumEdges() != 3 {
		t.Fatalf("subgraph edges = %d, want 3", sub.Graph.NumEdges())
	}
	for sv, pv := range sub.ToParent {
		if sub.FromParent[pv] != NodeID(sv) {
			t.Errorf("mapping inconsistent for parent %d", pv)
		}
		if sub.Graph.Label(NodeID(sv)) != g.Label(pv) {
			t.Errorf("label not preserved for parent %d", pv)
		}
		if sub.Graph.Type(NodeID(sv)) != g.Type(pv) {
			t.Errorf("type not preserved for parent %d", pv)
		}
	}
	if err := sub.Graph.Validate(); err != nil {
		t.Fatalf("subgraph Validate: %v", err)
	}
}

// randomGraph builds a random graph with n nodes and about m directed edges.
func randomGraph(rng *rand.Rand, n, m int) *Graph {
	b := NewBuilder()
	ids := make([]NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = b.AddNode(Type(rng.Intn(3)), "n"+itoa(i))
	}
	for i := 0; i < m; i++ {
		ui, vi := rng.Intn(n), rng.Intn(n)
		if ui == vi {
			vi = (ui + 1) % n
		}
		b.MustAddEdge(ids[ui], ids[vi], 0.1+rng.Float64())
	}
	return b.MustBuild()
}

func itoa(i int) string {
	var buf [8]byte
	pos := len(buf)
	if i == 0 {
		return "0"
	}
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

// randomCommit stages a random delta against g — a node added and wired in,
// upserts, removals of existing edges, node isolations — and returns its
// Commit together with the graph the delta describes, built from scratch.
func randomCommit(t *testing.T, rng *rand.Rand, g *Graph) (committed, want *Graph) {
	t.Helper()
	edges := make(map[EdgeKey]float64)
	for v := 0; v < g.NumNodes(); v++ {
		cols, ws := g.OutRow(NodeID(v))
		for i, to := range cols {
			edges[EdgeKey{NodeID(v), to}] = ws[i]
		}
	}
	d := NewDelta(g)
	set := func(u, v NodeID, w float64) {
		if err := d.SetEdge(u, v, w); err != nil {
			t.Fatalf("SetEdge: %v", err)
		}
		edges[EdgeKey{u, v}] = w
	}
	added := d.AddNode(Untyped, "added")
	set(added, 0, 1.5)
	set(0, added, 0.5)
	for op := 0; op < 8; op++ {
		u, v := NodeID(rng.Intn(d.NumNodes())), NodeID(rng.Intn(d.NumNodes()))
		from := u % NodeID(g.NumNodes()) // a base node, to remove one of its edges
		cols, _ := g.OutRow(from)
		switch {
		case u == v:
			if err := d.RemoveNode(u); err != nil {
				t.Fatalf("RemoveNode: %v", err)
			}
			for k := range edges {
				if k.From == u || k.To == u {
					delete(edges, k)
				}
			}
		case rng.Intn(2) == 0 && len(cols) > 0:
			k := EdgeKey{from, cols[rng.Intn(len(cols))]}
			if _, ok := edges[k]; ok {
				if err := d.RemoveEdge(k.From, k.To); err != nil {
					t.Fatalf("RemoveEdge: %v", err)
				}
				delete(edges, k)
			}
		default:
			set(u, v, 0.1+rng.Float64())
		}
	}
	committed, err := Commit(g, d)
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	b := NewBuilder()
	for v := 0; v < g.NumNodes(); v++ {
		b.AddNode(g.Type(NodeID(v)), g.Label(NodeID(v)))
	}
	b.AddNode(Untyped, "added")
	for k, w := range edges {
		b.MustAddEdge(k.From, k.To, w)
	}
	return committed, b.MustBuild()
}

// Property: every built random graph passes Validate, and total out weight
// equals total in weight (each edge contributes to both). Every other door
// that lays out adjacency — a pack round trip, Without, the subgraph induced
// by all nodes, a Commit of a random delta — yields arrays
// that pass the flat check and are bit-equal to a Builder's for the same edges.
func TestQuickGraphInvariants(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw%30)
		m := 1 + int(mRaw%100)
		g := randomGraph(rng, n, m)
		if err := g.Validate(); err != nil {
			t.Logf("validate failed: %v", err)
			return false
		}
		outTotal, inTotal := 0.0, 0.0
		for v := 0; v < g.NumNodes(); v++ {
			outTotal += g.OutSum(NodeID(v))
			inTotal += g.InCSR().Sum[v]
		}
		if math.Abs(outTotal-inTotal) >= 1e-6*(1+outTotal) {
			return false
		}
		// Every door shares the transposer, so the in-rows are also checked
		// against a reference written here: in-row v lists each u with an edge
		// u->v, sources ascending.
		for v := 0; v < n; v++ {
			var wantC []NodeID
			var wantW []float64
			for u := 0; u < n; u++ {
				cols, ws := g.OutRow(NodeID(u))
				if i := slices.Index(cols, NodeID(v)); i >= 0 {
					wantC, wantW = append(wantC, NodeID(u)), append(wantW, ws[i])
				}
			}
			if cols, ws := g.InRow(NodeID(v)); !slices.Equal(cols, wantC) || !slices.Equal(ws, wantW) {
				t.Logf("in-row %d is %v %v, want %v %v", v, cols, ws, wantC, wantW)
				return false
			}
		}

		all := make([]NodeID, n)
		for v := range all {
			all[v] = NodeID(v)
		}
		committed, rebuilt := randomCommit(t, rng, g)
		for _, door := range []struct {
			name      string
			got, want CSRView
		}{
			{"pack", Pack(g).Unpack(), g},
			{"without", g.Without(nil), g},
			{"induced", Induced(g, all).Graph, g},
			{"commit", committed, rebuilt},
		} {
			if !sameCSR(door.got.OutCSR(), door.want.OutCSR()) || !sameCSR(door.got.InCSR(), door.want.InCSR()) {
				t.Logf("%s: arrays differ from the Builder's", door.name)
				return false
			}
			err := checkPair(door.got.OutCSR(), door.got.InCSR(), door.got.NumNodes(), door.got.NumNodes(), 0, 1)
			if built, ok := door.got.(*Graph); ok {
				err = built.Validate()
			}
			if err != nil {
				t.Logf("%s: %v", door.name, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestValidateCoversInRows pins Graph.Validate as the one flat check over both
// directions: an in-row column out of range, or an infinite weight in either
// direction, fails it. StripeData.Validate reaches the same verdict on the same
// arrays, read as a single stripe.
func TestValidateCoversInRows(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(g *Graph)
		valid   bool
	}{
		{"untouched", func(*Graph) {}, true},
		{"in-row column past the end", func(g *Graph) { g.in.Col[0] = NodeID(g.numNodes) }, false},
		{"in-row column negative", func(g *Graph) { g.in.Col[1] = -1 }, false},
		{"out-row +Inf weight", func(g *Graph) { g.out.Weight[0] = math.Inf(1) }, false},
		{"in-row +Inf weight", func(g *Graph) { g.in.Weight[2] = math.Inf(1) }, false},
		{"in-row -Inf weight", func(g *Graph) { g.in.Weight[2] = math.Inf(-1) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, _ := buildSmall(t)
			tc.corrupt(g)
			graphErr := g.Validate()
			if (graphErr == nil) != tc.valid {
				t.Errorf("Graph.Validate = %v, want valid %v", graphErr, tc.valid)
			}
			stripe := &StripeData{Index: 0, Count: 1, NumNodes: g.NumNodes(), Out: g.OutCSR(), In: g.InCSR()}
			if stripeErr := stripe.Validate(); (stripeErr == nil) != (graphErr == nil) {
				t.Errorf("StripeData.Validate = %v, Graph.Validate = %v: verdicts differ", stripeErr, graphErr)
			}
		})
	}
}

// Property: transition probabilities out of any node with out-degree > 0 sum
// to one, both on the plain graph and on a masked view.
func TestQuickTransitionRowsStochastic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(20), 5+rng.Intn(80))
		views := []View{g}
		// Mask a random existing edge if any.
		if g.NumEdges() > 0 {
			var key EdgeKey
			found := false
			for v := 0; v < g.NumNodes() && !found; v++ {
				if cols, _ := g.OutRow(NodeID(v)); len(cols) > 0 {
					key, found = EdgeKey{NodeID(v), cols[0]}, true
				}
			}
			masked := g.Without([]EdgeKey{key})
			if want := rebuildWithout(g, []EdgeKey{key}); !sameCSR(masked.OutCSR(), want.OutCSR()) || !sameCSR(masked.InCSR(), want.InCSR()) {
				return false
			}
			views = append(views, masked)
		}
		for _, view := range views {
			rows := view.NewRows()
			for v := 0; v < view.NumNodes(); v++ {
				sum := 0.0
				wsum := rows.OutSum(NodeID(v))
				_, ws := rows.OutRow(NodeID(v))
				for _, w := range ws {
					if wsum > 0 {
						sum += w / wsum
					}
				}
				if len(ws) > 0 && math.Abs(sum-1) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
