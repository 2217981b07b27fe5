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
// arithmetic, the Stage-II stop rule, expansion order, a tie-break or the
// walk model moved; a layout change must not. The two single-node queries without in- or out-edges score
// exactly α², the product of their exact F and T.
func TestSearcherGolden(t *testing.T) {
	g, cases := searcherGoldenCases(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
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

// searcherCase is one query of TestSearcherGolden: its options and what it pins.
type searcherCase struct {
	name string
	q    walk.Query
	opt  Options
	want searchGolden
}

// searcherGoldenCases returns TestSearcherGolden's graph and queries, with
// α = 0.25 set on every query's options.
func searcherGoldenCases(t *testing.T) (*graph.Graph, []searcherCase) {
	t.Helper()
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
	cases := []searcherCase{
		{"hub0", walk.SingleNode(hub[0]), Options{K: 10, Epsilon: 0.01, Beta: 0.5, Budget: &Budget{MaxRounds: 6}}, searchGolden{6, 62, 597, 1141, 96, 2416, 0,
			[]graph.NodeID{0, 6704, 3609, 9436, 1249, 2232, 714, 4171, 1859, 9617},
			[]uint64{0x3fb05e31cc69d163, 0x3f01ce2c04cd097c, 0x3ef1ce2c04cd097c, 0x3ef1ce2c04cd097c, 0x3ee8fcc0784c82fb, 0x3ee8b527ea50c528, 0x3ee82ed3fd6bd45e, 0x3ee81e5c5040009a, 0x3ee7bd900666b750, 0x3ee7bd900666b750}}},
		{"hub1/beta0.3", walk.SingleNode(hub[1]), Options{K: 10, Epsilon: 0.01, Beta: 0.3, Budget: &Budget{MaxRounds: 6}}, searchGolden{6, 56, 590, 528, 53, 2529, 1,
			[]graph.NodeID{8192, 7185, 5381, 8476, 1177, 4504, 2753, 6752, 2944, 5410},
			[]uint64{0x3fb0209c6cde10ea, 0x3ec5e2c2743b8495, 0x3ec3e046882bf0c6, 0x3ec2d61937540f1c, 0x3ec297cf3d711811, 0x3ec1bafeb3b4fe6d, 0x3ec15ed77736a03f, 0x3ec066d1fa7d9dc7, 0x3ec047b0a1d1b8f9, 0x3ebed7a7fb249e02}}},
		{"hub0/budget", walk.SingleNode(hub[0]), Options{K: 10, Epsilon: 0.01, Beta: 0.5, Budget: &Budget{MaxRounds: 3, FrontierCap: 2}}, searchGolden{3, 17, 300, 7, 1, 1326, 0,
			[]graph.NodeID{0},
			[]uint64{0x3fb0103619795057}}},
		{"tail", walk.SingleNode(3333), Options{K: 10, Epsilon: 0.01, Beta: 0.5}, searchGolden{2, 17, 200, 868, 21, 1556, 1,
			[]graph.NodeID{3333, 5892, 257, 4097, 132, 1040, 1184, 106, 6209, 5},
			[]uint64{0x3fb0002d66be556b, 0x3eabb4a4d412c438, 0x3ea66eb8b4dc151a, 0x3ea46be044517717, 0x3ea1af48d8175ff2, 0x3ea153a6339cb06c, 0x3e9bbefce31e1938, 0x3e73aea1c12ab855, 0x3e70f9c29549adce, 0x3e6e54945cf8833f}}},
		{"tail/beta0.3", walk.SingleNode(3333), Options{K: 10, Epsilon: 0.01, Beta: 0.3}, searchGolden{6, 63, 596, 930, 103, 2708, 1,
			[]graph.NodeID{3333, 4097, 257, 132, 1040, 1184, 106, 5, 6209, 388},
			[]uint64{0x3fb00040537ae3d2, 0x3ef299209d3e8fa1, 0x3ee86e273c81fee5, 0x3ee4fc96252bbc37, 0x3ee47969156da500, 0x3ee1edcc196a8390, 0x3ea0a22738bfdd86, 0x3e9f5998b5448413, 0x3e9e5112858ad13d, 0x3e9e16ab736aad39}}},
		{"tail/noInEdges", walk.SingleNode(7777), Options{K: 5, Epsilon: 0.001, Beta: 0.3, Budget: &Budget{MaxRounds: 40}}, searchGolden{40, 214, 3339, 1, 1, 5611, 1,
			[]graph.NodeID{7777},
			[]uint64{0x3fb0000000000000}}},
		{"tail/noOutEdges", walk.SingleNode(2718), Options{K: 5, Epsilon: 0.01, Beta: 0.5, Budget: &Budget{MaxRounds: 10}}, searchGolden{10, 58, 1, 704, 1, 704, 1,
			[]graph.NodeID{2718},
			[]uint64{0x3fb0000000000000}}},
		{"tail/venues", walk.SingleNode(9001), Options{K: 5, Epsilon: 0.01, Beta: 0.5, Keep: venue, Budget: &Budget{MaxRounds: 40}}, searchGolden{9, 81, 859, 771, 110, 3599, 0,
			[]graph.NodeID{7, 1031, 4355, 1795, 135},
			[]uint64{0x3e20753883812f0e, 0x3e043541e1aab2c8, 0x3dfe54440910b85d, 0x3df93619b184dd12, 0x3df0c30c69751cc8}}},
		{"multi", multi, Options{K: 10, Epsilon: 0.01, Beta: 0.5, Budget: &Budget{MaxRounds: 8}}, searchGolden{8, 81, 783, 1157, 105, 2826, 0,
			[]graph.NodeID{5000, 0, 123, 40, 2048, 36, 8203, 2052, 17, 2304},
			[]uint64{0x3f94557334a539e1, 0x3f6e5cbca7462a2f, 0x3f69a4331e3f0406, 0x3ef889fcdb5969c3, 0x3ef67389f2449aa6, 0x3eeecf43e092eef5, 0x3ee960b2ae5bdd1b, 0x3ee932ef94c0a85e, 0x3ee4b5dd04460160, 0x3ee3f1f9bb40ff3a}}},
		{"multi/beta0.3/gs", multi, Options{K: 10, Epsilon: 0.01, Beta: 0.3, Scheme: SchemeGS, Budget: &Budget{MaxRounds: 8}}, searchGolden{8, 91, 783, 1182, 106, 2843, 0,
			[]graph.NodeID{5000, 0, 123, 40, 2048, 36, 2052, 17, 1024, 2304},
			[]uint64{0x3f941abd9d2a89a5, 0x3f701f78dea976cf, 0x3f697fecfc85ef30, 0x3f13e6cdd284385f, 0x3f1398569eab15c8, 0x3efe3fd111f46e5d, 0x3efac9009ae3616b, 0x3ef7d5ab0d07dbc9, 0x3ef7bd0d01acb967, 0x3ef76bc94bc463f1}}},
	}
	for i := range cases {
		cases[i].opt.Alpha = 0.25
	}
	return g, cases
}
