package topk

import (
	"context"
	"slices"
	"testing"

	"roundtriprank/internal/datasets"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/walk"
)

// placement is where a node sits when a search stops: in S = Sf ∩ St ('S'), in
// Sf only ('F'), in St only ('T'), touched by BCA's residual only ('R'), or
// untouched ('U'). It is read off the one index of the nodes the query touched
// and the two side maps.
func (s *flatSearcher) placement(v graph.NodeID) byte {
	shared, ok := s.fb.Shared().Slot(v)
	if !ok {
		return 'U'
	}
	_, inF := s.fb.SideSlot(int(shared))
	_, inT := s.tb.SideSlot(int(shared))
	switch {
	case inF && inT:
		return 'S'
	case inF:
		return 'F'
	case inT:
		return 'T'
	}
	return 'R'
}

// symmetrised returns g with every edge both ways at weight 1, duplicates
// dropped (g has no self-loops).
func symmetrised(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	b.AddNodes(g.NumNodes(), nil)
	seen := map[[2]graph.NodeID]bool{}
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		to, _ := g.OutNeighbors(u)
		for _, v := range to {
			for _, e := range [][2]graph.NodeID{{u, v}, {v, u}} {
				if !seen[e] {
					seen[e] = true
					b.MustAddEdge(e[0], e[1], 1)
				}
			}
		}
	}
	s, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return s
}

// probeQueries returns the highest-degree node (in + out, ties to the lower
// id) and the three lowest-degree nodes with at least two out-edges and one
// in-edge.
func probeQueries(g *graph.Graph) []graph.NodeID {
	ids := make([]graph.NodeID, g.NumNodes())
	hub := graph.NodeID(0)
	for v := range ids {
		ids[v] = graph.NodeID(v)
		if g.Degree(ids[v]) > g.Degree(hub) {
			hub = ids[v]
		}
	}
	slices.SortStableFunc(ids, func(a, b graph.NodeID) int { return g.Degree(a) - g.Degree(b) })
	qs := []graph.NodeID{hub}
	for _, v := range ids {
		if out := g.OutDegree(v); out >= 2 && g.Degree(v) > out && len(qs) < 4 {
			qs = append(qs, v)
		}
	}
	return qs
}

// TestExactTopKPlacement pins, at test size, the probe behind ROADMAP item 2's
// "why recall ≈ 0.3": on R-MAT 10^4 (seed 42), directed and symmetrised, for
// the highest-degree hub and three low-degree tails, where each of the exact
// top-10 non-query nodes sits when a 20-round search stops (K 10, β 0.5, ε
// 0.01), in exact rank order — the searcher can only return members of S —
// and how many positions the search certified.
func TestExactTopKPlacement(t *testing.T) {
	cfg := datasets.DefaultRMATConfig(10000)
	cfg.Seed = 42
	rmat, err := datasets.GenerateRMAT(cfg)
	if err != nil {
		t.Fatalf("GenerateRMAT: %v", err)
	}
	type pin struct {
		q          graph.NodeID
		placed     string
		certifiedK int
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want []pin
	}{
		{"directed", rmat.Graph, []pin{
			{0, "STTTTTTTTT", 1}, {123, "SSSSTSSSTT", 1}, {175, "TFFTTTTTTT", 1}, {222, "TFFSSTSSTS", 1}}},
		{"symmetrised", symmetrised(t, rmat.Graph), []pin{
			{0, "TTSSSSSSSS", 1}, {221, "SSSSSSSSSS", 1}, {239, "SSSSSSSSSS", 2}, {243, "SSSSSSSSSS", 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt, err := Options{K: 10, Epsilon: 0.01, Alpha: 0.25, Beta: 0.5, Budget: &Budget{MaxRounds: 20}}.normalized()
			if err != nil {
				t.Fatal(err)
			}
			var got []pin
			for _, q := range probeQueries(tc.g) {
				exact, _, err := Naive(context.Background(), tc.g, walk.SingleNode(q), Options{K: 11, Alpha: 0.25, Beta: 0.5,
					Keep: func(v graph.NodeID) bool { return v != q }})
				if err != nil {
					t.Fatalf("Naive: %v", err)
				}
				s := new(flatSearcher)
				if err := s.bind(tc.g, walk.SingleNode(q), opt); err != nil {
					t.Fatal(err)
				}
				res, err := s.run(context.Background(), tc.g)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				p := pin{q: q, certifiedK: res.CertifiedK}
				for _, r := range exact[:10] {
					p.placed += string(s.placement(r.Node))
				}
				got = append(got, p)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
