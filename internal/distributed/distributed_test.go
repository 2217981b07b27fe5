package distributed

import (
	"testing"

	"roundtriprank/internal/testgraphs"
)

func TestBuildStripeCoversGraph(t *testing.T) {
	toy := testgraphs.NewToy()
	const n = 3
	total := 0
	for i := 0; i < n; i++ {
		s, err := BuildStripe(toy.Graph, i, n)
		if err != nil {
			t.Fatalf("BuildStripe: %v", err)
		}
		total += s.Rows()
		if s.SizeBytes() <= 0 {
			t.Errorf("stripe size should be positive")
		}
	}
	if total != toy.Graph.NumNodes() {
		t.Errorf("stripes cover %d nodes, want %d", total, toy.Graph.NumNodes())
	}
	if _, err := BuildStripe(toy.Graph, 3, 3); err == nil {
		t.Errorf("out-of-range stripe index should error")
	}
	if _, err := BuildStripe(toy.Graph, 0, 0); err == nil {
		t.Errorf("zero stripe count should error")
	}
}
