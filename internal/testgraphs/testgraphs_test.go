package testgraphs

import (
	"math"
	"slices"
	"testing"

	"roundtriprank/internal/graph"
)

func TestToyMatchesFig2(t *testing.T) {
	toy := NewToy()
	g := toy.Graph
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumNodes() != 12 {
		t.Errorf("toy graph has %d nodes, want 12 (2 terms, 7 papers, 3 venues)", g.NumNodes())
	}
	// All edges are undirected: 7 term-paper + 7 paper-venue pairs.
	if g.NumEdges() != 28 {
		t.Errorf("toy graph has %d directed edges, want 28", g.NumEdges())
	}
	if got := g.CountOfType(TypeTerm); got != 2 {
		t.Errorf("%d terms, want 2", got)
	}
	if got := g.CountOfType(TypePaper); got != 7 {
		t.Errorf("%d papers, want 7", got)
	}
	if got := g.CountOfType(TypeVenue); got != 3 {
		t.Errorf("%d venues, want 3", got)
	}
	// t1 tags papers p1..p5, both directions; t2 tags p6, p7.
	for i := 0; i < 5; i++ {
		if !g.HasEdge(toy.T1, toy.P[i]) || !g.HasEdge(toy.P[i], toy.T1) {
			t.Errorf("missing t1 <-> p%d edge", i+1)
		}
	}
	for i := 5; i < 7; i++ {
		if g.HasEdge(toy.T1, toy.P[i]) {
			t.Errorf("t1 should not tag p%d", i+1)
		}
		if !g.HasEdge(toy.T2, toy.P[i]) {
			t.Errorf("missing t2 -> p%d edge", i+1)
		}
	}
	// Venue memberships: v1 = {p1, p2, p6, p7}, v2 = {p3, p4}, v3 = {p5}.
	if g.InCSR().Degree(toy.V1) != 4 || g.InCSR().Degree(toy.V2) != 2 || g.InCSR().Degree(toy.V3) != 1 {
		t.Errorf("venue in-degrees = %d/%d/%d, want 4/2/1",
			g.InCSR().Degree(toy.V1), g.InCSR().Degree(toy.V2), g.InCSR().Degree(toy.V3))
	}
	// Labels resolve back to the same nodes.
	if g.NodeByLabel("term:spatio") != toy.T1 || g.NodeByLabel("venue:v2") != toy.V2 {
		t.Errorf("label lookup does not match handles")
	}
	if g.TypeName(TypePaper) != "paper" {
		t.Errorf("TypeName(paper) = %q", g.TypeName(TypePaper))
	}
}

func TestLine(t *testing.T) {
	g := Line(5)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumNodes() != 5 || g.NumEdges() != 4 {
		t.Fatalf("Line(5): %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	for v := 0; v < 4; v++ {
		if !g.HasEdge(graph.NodeID(v), graph.NodeID(v+1)) {
			t.Errorf("missing edge %d -> %d", v, v+1)
		}
		if g.HasEdge(graph.NodeID(v+1), graph.NodeID(v)) {
			t.Errorf("line must be directed, found back edge %d -> %d", v+1, v)
		}
	}
	if g.OutDegree(4) != 0 {
		t.Errorf("line end should be dangling, out-degree %d", g.OutDegree(4))
	}
}

func TestCycle(t *testing.T) {
	g := Cycle(6)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumNodes() != 6 || g.NumEdges() != 6 {
		t.Fatalf("Cycle(6): %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	for v := 0; v < 6; v++ {
		if g.OutDegree(graph.NodeID(v)) != 1 || g.InCSR().Degree(graph.NodeID(v)) != 1 {
			t.Errorf("cycle node %d degrees %d/%d, want 1/1",
				v, g.OutDegree(graph.NodeID(v)), g.InCSR().Degree(graph.NodeID(v)))
		}
	}
}

func TestStar(t *testing.T) {
	g := Star(4)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumNodes() != 5 || g.NumEdges() != 8 {
		t.Fatalf("Star(4): %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	hub := g.NodeByLabel("hub")
	if hub == graph.NoNode || g.OutDegree(hub) != 4 || g.InCSR().Degree(hub) != 4 {
		t.Errorf("hub degrees wrong: out %d in %d", g.OutDegree(hub), g.InCSR().Degree(hub))
	}
}

func TestItoa(t *testing.T) {
	cases := map[int]string{0: "0", 7: "7", 10: "10", 12345: "12345", -3: "-3", -120: "-120"}
	for in, want := range cases {
		if got := itoa(in); got != want {
			t.Errorf("itoa(%d) = %q, want %q", in, got, want)
		}
	}
}

// TestStrictRows checks that StrictRows serves each row's content and
// overwrites it when the next row of the same direction is fetched, and only
// then.
func TestStrictRows(t *testing.T) {
	g := NewToy().Graph
	s := NewStrictRows(g)
	out, outW := s.OutRow(0)
	wantOut, _ := g.OutRow(0)
	if len(out) == 0 || !slices.Equal(out, wantOut) || len(outW) != len(out) || outW[0] != 1 {
		t.Fatalf("OutRow(0) = %v %v, want %v", out, outW, wantOut)
	}
	in, _ := s.InRow(1)
	if wantIn, _ := g.InRow(1); len(in) == 0 || !slices.Equal(in, wantIn) {
		t.Fatalf("InRow(1) = %v, want %v", in, wantIn)
	}
	if !slices.Equal(out, wantOut) {
		t.Fatalf("an in-row fetch overwrote the last out-row: %v", out)
	}
	s.OutRow(1)
	if out[0] != -1 || !math.IsNaN(outW[0]) {
		t.Fatalf("the last out-row reads %v %v after the next out-row fetch, want it overwritten", out, outW)
	}
	if wantIn, _ := g.InRow(1); !slices.Equal(in, wantIn) {
		t.Fatalf("an out-row fetch overwrote the last in-row: %v", in)
	}
}
