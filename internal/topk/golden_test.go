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
// and score bit for score bit — the values pinned here. A change here means
// arithmetic, expansion order, a tie-break or the walk model moved; a layout
// change must not. The two single-node queries without in- or out-edges score
// exactly α², the product of their exact F and T.
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
		{"hub1/beta0.3", walk.SingleNode(hub[1]), Options{K: 10, Epsilon: 0.01, Beta: 0.3, Budget: &Budget{MaxRounds: 6}}, searchGolden{6, 112, 590, 528, 53, 2529, 1,
			[]graph.NodeID{8192, 7185, 5381, 8476, 1177, 4504, 2753, 6752, 2944, 5410},
			[]uint64{0x3fb0209c6e026c73, 0x3ec5e2c27bc8b890, 0x3ec3e0468a77a840, 0x3ec2d6193a788b1f, 0x3ec297cf41776146, 0x3ec1bafeb4f66969, 0x3ec15ed77c2acb57, 0x3ec066d1fc3f4190, 0x3ec047b0af089f85, 0x3ebed7a7fffe466d}}},
		{"hub0/budget", walk.SingleNode(hub[0]), Options{K: 10, Epsilon: 0.01, Beta: 0.5, Budget: &Budget{MaxRounds: 3, FrontierCap: 2}}, searchGolden{3, 30, 300, 7, 1, 1326, 0,
			[]graph.NodeID{0},
			[]uint64{0x3fb01036199a9473}}},
		{"tail", walk.SingleNode(3333), Options{K: 10, Epsilon: 0.01, Beta: 0.5}, searchGolden{2, 30, 200, 868, 21, 1556, 1,
			[]graph.NodeID{3333, 5892, 257, 4097, 132, 1040, 1184, 106, 6209, 5},
			[]uint64{0x3fb0002d66cb45d4, 0x3eabb4a4d5d87ee7, 0x3ea66eb928201ba9, 0x3ea46be17a63cde8, 0x3ea1af4a503dea6e, 0x3ea153a7a5a93df2, 0x3e9bbefe0d268007, 0x3e73aea25a8b686f, 0x3e70f9c2e3f3c598, 0x3e6e5496e955e219}}},
		{"tail/beta0.3", walk.SingleNode(3333), Options{K: 10, Epsilon: 0.01, Beta: 0.3}, searchGolden{6, 116, 596, 930, 103, 2708, 1,
			[]graph.NodeID{3333, 4097, 257, 132, 1040, 1184, 106, 5, 6209, 388},
			[]uint64{0x3fb00040537e5324, 0x3ef29920b8317a83, 0x3ee86e275885886a, 0x3ee4fc967d8a0f79, 0x3ee479696ce7d891, 0x3ee1edcc421b911e, 0x3ea0a22753d91586, 0x3e9f59993e1b0bd4, 0x3e9e5112a2c7c475, 0x3e9e16aba595c0cc}}},
		{"tail/noInEdges", walk.SingleNode(7777), Options{K: 5, Epsilon: 0.001, Beta: 0.3, Budget: &Budget{MaxRounds: 40}}, searchGolden{40, 450, 3339, 1, 1, 5611, 1,
			[]graph.NodeID{7777},
			[]uint64{0x3fb0000000000000}}},
		{"tail/noOutEdges", walk.SingleNode(2718), Options{K: 5, Epsilon: 0.01, Beta: 0.5, Budget: &Budget{MaxRounds: 10}}, searchGolden{10, 118, 1, 704, 1, 704, 1,
			[]graph.NodeID{2718},
			[]uint64{0x3fb0000000000000}}},
		{"tail/venues", walk.SingleNode(9001), Options{K: 5, Epsilon: 0.01, Beta: 0.5, Keep: venue, Budget: &Budget{MaxRounds: 40}}, searchGolden{9, 129, 859, 771, 110, 3599, 0,
			[]graph.NodeID{7, 1031, 4355, 1795, 135},
			[]uint64{0x3e20753c6c75e8bc, 0x3e0435467899b052, 0x3dfe544849e830aa, 0x3df9361b4df3800d, 0x3df0c30fe9391ce3}}},
		{"multi", multi, Options{K: 10, Epsilon: 0.01, Beta: 0.5, Budget: &Budget{MaxRounds: 8}}, searchGolden{8, 182, 783, 1157, 105, 2826, 0,
			[]graph.NodeID{5000, 0, 123, 40, 2048, 36, 8203, 2052, 17, 2304},
			[]uint64{0x3f9455734bd92f5b, 0x3f6e5cbcde47e689, 0x3f69a4339a0192c8, 0x3ef88a06bd25183b, 0x3ef6738f2bf4c37b, 0x3eeecf4c7ee438e8, 0x3ee960b3e2d580d5, 0x3ee932f3e2dd461f, 0x3ee4b5e5c077606f, 0x3ee3f1fda25d0168}}},
		{"multi/beta0.3/gs", multi, Options{K: 10, Epsilon: 0.01, Beta: 0.3, Scheme: SchemeGS, Budget: &Budget{MaxRounds: 8}}, searchGolden{8, 202, 783, 1182, 106, 2843, 0,
			[]graph.NodeID{5000, 0, 123, 40, 2048, 36, 2052, 17, 1024, 2304},
			[]uint64{0x3f941abd9e3253d7, 0x3f701f78e12b90ea, 0x3f697fed020d1727, 0x3f13e6ce2f740248, 0x3f139856d5daf949, 0x3efe3fd1750d260b, 0x3efac900d22e9350, 0x3ef7d5ab82a17dd0, 0x3ef7bd0d4cf3963c, 0x3ef76bc98235ba4f}}},
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
