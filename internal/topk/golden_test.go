package topk

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"roundtriprank/internal/datasets"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/walk"
)

// searchGolden is what one query of TestSearcherGolden pins: the counters of
// the search and the ranking with the bits of its scores.
type searchGolden struct {
	Rounds, Sweeps, FSeen, TSeen, RSeen, Touched, CertifiedK int
	Nodes                                                    []graph.NodeID
	ScoreBits                                                []uint64
}

// literal prints g the way it is written in the table below.
func (g searchGolden) literal() string {
	bits := make([]string, len(g.ScoreBits))
	for i, b := range g.ScoreBits {
		bits[i] = fmt.Sprintf("%#x", b)
	}
	nodes := strings.Trim(strings.ReplaceAll(fmt.Sprint(g.Nodes), " ", ", "), "[]")
	return fmt.Sprintf("{%d, %d, %d, %d, %d, %d, %d,\n\t[]graph.NodeID{%s},\n\t[]uint64{%s}}",
		g.Rounds, g.Sweeps, g.FSeen, g.TSeen, g.RSeen, g.Touched, g.CertifiedK, nodes, strings.Join(bits, ", "))
}

// TestSearcherGolden pins the searcher's determinism across refactors of its
// state: on the bench spine's graph family (R-MAT, 10^4 nodes, seed 42), hub,
// tail and multi-node queries at two β, filtered, round-capped and under a
// frontier-capped budget must reproduce — counter for counter, node for node
// and score bit for score bit — the values captured before the searcher's
// scratch moved to slots (PR 27). A change here means arithmetic, expansion
// order or a tie-break moved; a layout change must not.
func TestSearcherGolden(t *testing.T) {
	cfg := datasets.DefaultRMATConfig(10000)
	cfg.Seed = 42
	rmat, err := datasets.GenerateRMAT(cfg)
	if err != nil {
		t.Fatalf("GenerateRMAT: %v", err)
	}
	g := rmat.Graph
	// The two highest-degree nodes (in + out, ties to the lower id).
	hub := [2]graph.NodeID{}
	deg := [2]int{-1, -1}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		d := g.Degree(v)
		switch {
		case d > deg[0]:
			hub[1], deg[1] = hub[0], deg[0]
			hub[0], deg[0] = v, d
		case d > deg[1]:
			hub[1], deg[1] = v, d
		}
	}
	venue := func(v graph.NodeID) bool { return g.Type(v) == datasets.TypeVenue }
	multi := walk.Query{Nodes: []graph.NodeID{hub[0], 5000, 123, 5000}, Weights: []float64{1, 2, 1, 0.5}}
	for _, tc := range []struct {
		name string
		q    walk.Query
		opt  Options
		want searchGolden
	}{
		{"hub0", walk.SingleNode(hub[0]), Options{K: 10, Epsilon: 0.01, Beta: 0.5, Budget: &Budget{MaxRounds: 6}}, searchGolden{6, 140, 597, 1141, 96, 2416, 0,
			[]graph.NodeID{0, 6704, 3609, 9436, 1249, 2232, 714, 4171, 1859, 9617},
			[]uint64{0x3fb05e320981405c, 0x3f01ce2c4741e7bc, 0x3ef1ce2c4741e7bc, 0x3ef1ce2c4741e7bc, 0x3ee8fcc22fedec07, 0x3ee8b5293bd724c6, 0x3ee82ed4a4138cc9, 0x3ee81e5d076323eb, 0x3ee7bd905f028a51, 0x3ee7bd905f028a51}}},
		{"hub1/beta0.3", walk.SingleNode(hub[1]), Options{K: 10, Epsilon: 0.01, Beta: 0.3, Budget: &Budget{MaxRounds: 6}}, searchGolden{6, 112, 553, 528, 40, 2327, 1,
			[]graph.NodeID{8192, 7185, 5381, 8476, 1177, 4504, 2753, 6752, 2944, 5410},
			[]uint64{0x3fb09815efd9d83f, 0x3ec612948e01cc32, 0x3ec473856b23ffe2, 0x3ec35d415d0afa05, 0x3ec31fd677da269c, 0x3ec23e5869c58aa1, 0x3ec1df8680e1cabf, 0x3ec0e0539d7b62e6, 0x3ec0c012fc689593, 0x3ebfbc2477de6a56}}},
		{"hub0/budget", walk.SingleNode(hub[0]), Options{K: 10, Epsilon: 0.01, Beta: 0.5, Budget: &Budget{MaxRounds: 3, FrontierCap: 2}}, searchGolden{3, 30, 300, 7, 1, 1326, 0,
			[]graph.NodeID{0},
			[]uint64{0x3fb01036199a9473}}},
		{"tail", walk.SingleNode(3333), Options{K: 10, Epsilon: 0.01, Beta: 0.5}, searchGolden{2, 31, 195, 868, 20, 1545, 1,
			[]graph.NodeID{3333, 5892, 257, 4097, 132, 1040, 1184, 106, 6209, 5},
			[]uint64{0x3fb02a234a9069d3, 0x3eabfd4cb695d38d, 0x3ea6a98cfa73bb16, 0x3ea4a16f2ad9acb9, 0x3ea1ddaac2f51372, 0x3ea18117c9f1dd00, 0x3e9c07c1113dfa8a, 0x3e73e23fc2634ab8, 0x3e7126474b2a6b3b, 0x3e6ea420e9655372}}},
		{"tail/beta0.3", walk.SingleNode(3333), Options{K: 10, Epsilon: 0.01, Beta: 0.3}, searchGolden{7, 138, 670, 954, 121, 2973, 1,
			[]graph.NodeID{3333, 4097, 257, 132, 1040, 1184, 106, 5, 6209, 76},
			[]uint64{0x3fb04535e23843f1, 0x3ef30b0585701f9d, 0x3ee929db339f8f62, 0x3ee57a1b91d891dd, 0x3ee50b36f701c7d1, 0x3ee2764a945cbcb4, 0x3ea0f9bf4ed00309, 0x3ea0385cdf97d5db, 0x3e9ef2c70706725f, 0x3e9eec4253b1fd13}}},
		{"tail/noInEdges", walk.SingleNode(7777), Options{K: 5, Epsilon: 0.001, Beta: 0.3, Budget: &Budget{MaxRounds: 40}}, searchGolden{40, 384, 2843, 1, 1, 5341, 1,
			[]graph.NodeID{7777},
			[]uint64{0x3fb06e1d097c818a}}},
		{"tail/noOutEdges", walk.SingleNode(2718), Options{K: 5, Epsilon: 0.01, Beta: 0.5, Budget: &Budget{MaxRounds: 10}}, searchGolden{10, 119, 1, 704, 1, 704, 1,
			[]graph.NodeID{2718},
			[]uint64{0x3fcffffffffffffd}}},
		{"tail/venues", walk.SingleNode(9001), Options{K: 5, Epsilon: 0.01, Beta: 0.5, Keep: venue, Budget: &Budget{MaxRounds: 40}}, searchGolden{9, 129, 759, 771, 92, 3258, 0,
			[]graph.NodeID{7, 1031, 4355, 1795, 91},
			[]uint64{0x3e20caac38eefc85, 0x3e0498a2838fe652, 0x3dff008dea88618c, 0x3df9bff9dc648d36, 0x3deef8468550630d}}},
		{"multi", multi, Options{K: 10, Epsilon: 0.01, Beta: 0.5, Budget: &Budget{MaxRounds: 8}}, searchGolden{8, 183, 753, 1157, 98, 2785, 0,
			[]graph.NodeID{5000, 0, 123, 40, 2048, 36, 8203, 2052, 17, 2304},
			[]uint64{0x3f94d62fe71c6de0, 0x3f6e74b081c2d3b7, 0x3f6a4a3b8fff8ca8, 0x3ef926cdb27f6262, 0x3ef700f7f5284a9c, 0x3eef87325f3c233c, 0x3eea013dcc123509, 0x3ee9cda9a7a71fdb, 0x3ee52a8a67cf17a4, 0x3ee46f41d8aeaced}}},
		{"multi/beta0.3/gs", multi, Options{K: 10, Epsilon: 0.01, Beta: 0.3, Scheme: SchemeGS, Budget: &Budget{MaxRounds: 8}}, searchGolden{8, 203, 753, 1182, 99, 2802, 0,
			[]graph.NodeID{5000, 0, 123, 40, 2048, 36, 2052, 17, 1024, 2304},
			[]uint64{0x3f94cdd10589cc3f, 0x3f70314a1c7ba581, 0x3f6a683f908f3636, 0x3f1499b27ae8f79d, 0x3f1445f8bef132f2, 0x3eff3dc3de2d1aa9, 0x3efbb05463e4899c, 0x3ef8926d5123cc99, 0x3ef882ffe77f1402, 0x3ef83aba2523a1c9}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opt.Alpha = 0.25
			res, err := TopK(context.Background(), g, tc.q, tc.opt)
			if err != nil {
				t.Fatalf("TopK: %v", err)
			}
			got := searchGolden{res.Rounds, res.Sweeps, res.FSeen, res.TSeen, res.RSeen, res.Touched, res.CertifiedK, nil, nil}
			for _, r := range res.TopK {
				got.Nodes = append(got.Nodes, r.Node)
				got.ScoreBits = append(got.ScoreBits, math.Float64bits(r.Score))
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("stop %v; got\n%s\nwant\n%s", res.Stop, got.literal(), tc.want.literal())
			}
		})
	}
}
