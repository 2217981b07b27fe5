package datasets

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"roundtriprank/internal/graph"
)

// TestRMATDeterministic pins the generator's seed contract: the same config
// must produce an identical edge list on repeated runs and at every
// GOMAXPROCS setting (the generator is single-threaded by design; this test
// keeps it that way).
func TestRMATDeterministic(t *testing.T) {
	cfg := DefaultRMATConfig(3000)
	cfg.Seed = 42
	want := rmatEdges(t, cfg)
	for run := 0; run < 3; run++ {
		if got := rmatEdges(t, cfg); !slices.Equal(want, got) {
			t.Fatalf("run %d: edge list differs from first run", run)
		}
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if got := rmatEdges(t, cfg); !slices.Equal(want, got) {
		t.Fatalf("edge list differs at GOMAXPROCS=1")
	}
	runtime.GOMAXPROCS(max(2, prev))
	if got := rmatEdges(t, cfg); !slices.Equal(want, got) {
		t.Fatalf("edge list differs at GOMAXPROCS=2")
	}

	// A different seed must actually change the output.
	other := cfg
	other.Seed = 43
	if got := rmatEdges(t, other); slices.Equal(want, got) {
		t.Fatalf("different seeds produced identical edge lists")
	}
}

func rmatEdges(t *testing.T, cfg RMATConfig) []Edge {
	t.Helper()
	edges, err := RMATEdges(cfg)
	if err != nil {
		t.Fatalf("RMATEdges: %v", err)
	}
	return edges
}

// TestRMATSkewMonotone is the degree-distribution sanity property: increasing
// the A-quadrant skew (at fixed B and C, with D absorbing the remainder)
// concentrates edges on low-numbered nodes, so the heavy tail of the degree
// distribution must grow monotonically with A. The sweep starts at the
// balanced point A = D = 0.35 — below it D exceeds A and the matrix is just
// mirror-skewed toward high-numbered nodes, so the tail would grow again.
func TestRMATSkewMonotone(t *testing.T) {
	skews := []float64{0.35, 0.45, 0.57, 0.70}
	maxDegs := make([]int, len(skews))
	p99s := make([]int, len(skews))
	for i, a := range skews {
		cfg := RMATConfig{Seed: 7, Nodes: 4096, EdgeFactor: 8, A: a, B: 0.15, C: 0.15, D: 1 - a - 0.30}
		r, err := GenerateRMAT(cfg)
		if err != nil {
			t.Fatalf("A=%g: %v", a, err)
		}
		degs := make([]int, r.Graph.NumNodes())
		for v := range degs {
			degs[v] = r.Graph.OutDegree(graph.NodeID(v))
		}
		sort.Ints(degs)
		maxDegs[i] = degs[len(degs)-1]
		p99s[i] = degs[len(degs)*99/100]
	}
	for i := 1; i < len(skews); i++ {
		if maxDegs[i] < maxDegs[i-1] {
			t.Errorf("max degree not monotone in skew: A=%g gives %d, A=%g gives %d",
				skews[i-1], maxDegs[i-1], skews[i], maxDegs[i])
		}
	}
	// The extremes must separate decisively, not just by tie-breaking noise.
	if maxDegs[len(skews)-1] < 2*maxDegs[0] {
		t.Errorf("skew has too little effect on the tail: max degree %v", maxDegs)
	}
	if p99s[len(skews)-1] < p99s[0] {
		t.Errorf("p99 degree shrank with skew: %v", p99s)
	}
}

// TestRMATGraphsAlwaysValid quick-checks the generator against the graph
// invariants: across a spread of seeded random configs, the generated graph
// must pass CSR validation, carry the cyclic type assignment, and match its
// reported edge count.
func TestRMATGraphsAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		cfg := DefaultRMATConfig(2 + rng.Intn(3000))
		cfg.Seed = rng.Int63()
		cfg.EdgeFactor = 1 + rng.Intn(12)
		if trial%3 == 0 {
			cfg.TypePeriod = nil
		}
		if trial%4 == 0 {
			cfg.Weight = 0.5 + rng.Float64()
		}
		r, err := GenerateRMAT(cfg)
		if err != nil {
			t.Fatalf("trial %d (nodes=%d): %v", trial, cfg.Nodes, err)
		}
		if err := r.Graph.Validate(); err != nil {
			t.Fatalf("trial %d: generated graph invalid: %v", trial, err)
		}
		if r.Graph.NumNodes() != cfg.Nodes {
			t.Fatalf("trial %d: %d nodes, want %d", trial, r.Graph.NumNodes(), cfg.Nodes)
		}
		if r.Edges != r.Graph.NumEdges() {
			t.Fatalf("trial %d: reported %d edges, graph has %d", trial, r.Edges, r.Graph.NumEdges())
		}
		for v := 0; v < min(cfg.Nodes, 64); v++ {
			want := graph.Untyped
			if len(cfg.TypePeriod) > 0 {
				want = cfg.TypePeriod[v%len(cfg.TypePeriod)]
			}
			if got := r.Graph.Type(graph.NodeID(v)); got != want {
				t.Fatalf("trial %d: node %d type %d, want %d", trial, v, got, want)
			}
		}
	}
}

// TestRMATRejectsBadConfigs pins the validation errors.
func TestRMATRejectsBadConfigs(t *testing.T) {
	bad := []RMATConfig{
		{Nodes: 1, EdgeFactor: 8, A: 0.25, B: 0.25, C: 0.25, D: 0.25},
		{Nodes: 100, EdgeFactor: 0, A: 0.25, B: 0.25, C: 0.25, D: 0.25},
		{Nodes: 100, EdgeFactor: 8, A: 0.9, B: 0.25, C: 0.25, D: 0.25},
		{Nodes: 100, EdgeFactor: 8, A: -0.1, B: 0.45, C: 0.45, D: 0.2},
		{Nodes: 100, EdgeFactor: 8, A: 0.25, B: 0.25, C: 0.25, D: 0.25, Weight: -1},
	}
	for i, cfg := range bad {
		if _, err := RMATEdges(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}
