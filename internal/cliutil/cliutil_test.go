package cliutil

import (
	"strings"
	"testing"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/testgraphs"
)

func TestLoadGraphGenerated(t *testing.T) {
	for _, dataset := range []string{"bibnet", "qlog"} {
		g, err := LoadGraph(dataset, 0.05)
		if err != nil {
			t.Fatalf("LoadGraph(%s): %v", dataset, err)
		}
		if g.NumNodes() == 0 || g.NumEdges() == 0 {
			t.Errorf("%s: generated an empty graph", dataset)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: generated graph invalid: %v", dataset, err)
		}
	}
	if _, err := LoadGraph("nope", 1); err == nil || !strings.Contains(err.Error(), "-dataset") {
		t.Errorf("unknown dataset: error = %v, want usage hint", err)
	}
	if _, err := LoadGraph("", 1); err == nil {
		t.Errorf("no dataset should error")
	}
}

func TestTypeByName(t *testing.T) {
	toy := testgraphs.NewToy()
	g := toy.Graph

	got, err := TypeByName(g, "paper")
	if err != nil || got != testgraphs.TypePaper {
		t.Errorf("TypeByName(paper) = %v, %v; want %v", got, err, testgraphs.TypePaper)
	}
	// Case-insensitive.
	got, err = TypeByName(g, "VENUE")
	if err != nil || got != testgraphs.TypeVenue {
		t.Errorf("TypeByName(VENUE) = %v, %v; want %v", got, err, testgraphs.TypeVenue)
	}
	// Numeric fallback names resolve for unregistered types.
	got, err = TypeByName(g, "type-7")
	if err != nil || got != graph.Type(7) {
		t.Errorf("TypeByName(type-7) = %v, %v; want 7", got, err)
	}
	if _, err := TypeByName(g, "spaceship"); err == nil {
		t.Errorf("unknown type name should error")
	}
}
