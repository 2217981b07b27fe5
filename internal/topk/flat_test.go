package topk

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"roundtriprank/internal/datasets"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/scratch"
	"roundtriprank/internal/testgraphs"
	"roundtriprank/internal/walk"
)

// TestFlatDispatch pins how the one searcher reads a graph: TopK on a view is
// TopKRows on the view's own rows, and — seen through the counting decorator
// on the row seam — the search reads only the rows it reaches, with the same
// answer either way.
func TestFlatDispatch(t *testing.T) {
	net, err := datasets.GenerateBibNet(datasets.SmallBibNetConfig())
	if err != nil {
		t.Fatalf("GenerateBibNet: %v", err)
	}
	g := net.Graph
	q := walk.SingleNode(net.Papers[0])
	opt := Options{K: 5, Epsilon: 0.01, Alpha: 0.25, Beta: 0.5}
	direct, err := TopK(context.Background(), g, q, opt)
	if err != nil {
		t.Fatalf("CSR TopK: %v", err)
	}
	counted := graph.NewCountingRows(g)
	adapted, err := TopKRows(context.Background(), counted, q, opt)
	if err != nil {
		t.Fatalf("counted TopKRows: %v", err)
	}
	if !reflect.DeepEqual(direct, adapted) {
		t.Errorf("counted rows diverged from CSR:\n%+v\n%+v", adapted, direct)
	}
	if a := counted.ActiveNodes(); a <= 0 || a > adapted.Touched || adapted.Touched >= g.NumNodes() {
		t.Errorf("want 0 < counted rows %d <= touched %d < nodes %d", a, adapted.Touched, g.NumNodes())
	}
}

// strictGapK returns the largest K ≤ 5 at a strict score gap of the exact
// ranking: across an exact tie the ε≈0 conditions are unsatisfiable and the
// search spins to its round cap.
func strictGapK(t *testing.T, g *graph.Graph, q walk.Query) int {
	t.Helper()
	naive, _, err := Naive(context.Background(), g, q, Options{K: g.NumNodes(), Alpha: 0.25, Beta: 0.5})
	if err != nil {
		t.Fatalf("Naive: %v", err)
	}
	k := 0
	for i := 0; i < len(naive) && i < 5; i++ {
		if naive[i].Score <= 0 {
			break
		}
		if i+1 < len(naive) && naive[i].Score-naive[i+1].Score <= 1e-6 {
			break
		}
		k = i + 1
	}
	if k == 0 {
		t.Fatalf("no strict gap to pin K at")
	}
	return k
}

// goldenCase is one (graph, query) instance of the parity and budget suites.
type goldenCase struct {
	name string
	g    *graph.Graph
	q    graph.NodeID
}

func goldenCases() []goldenCase {
	toy := testgraphs.NewToy()
	return []goldenCase{
		{"toy", toy.Graph, toy.T1},
		{"toyPaper", toy.Graph, toy.P[2]},
		{"line", testgraphs.Line(10), 0},
		{"cycle", testgraphs.Cycle(12), 7},
		{"star", testgraphs.Star(8), 0},
	}
}

// TestFlatMatchesMapPath is the representation parity gate of the searcher
// (the name dates from when wrapped views ran a separate map-based searcher).
// On every golden graph, scheme and budget, the three layouts a graph reaches
// the searcher in — a *Graph, a CompactedView over the same arrays, a packed
// view's own session — must return deeply equal Results: ranking, score bits,
// certificate, counters. A graph with edges masked out must likewise give one
// answer flat and packed.
func TestFlatMatchesMapPath(t *testing.T) {
	ctx := context.Background()
	for _, tc := range goldenCases() {
		q := walk.SingleNode(tc.q)
		k := strictGapK(t, tc.g, q)
		var hide []graph.EdgeKey
		if cols, _ := tc.g.OutNeighbors(tc.q); len(cols) > 1 {
			hide = []graph.EdgeKey{{From: tc.q, To: cols[0]}, {From: cols[0], To: tc.q}}
		}
		masked := tc.g.Without(hide)
		compact, packed := graph.Compact(tc.g), graph.Pack(tc.g)
		others := map[string]func(Options) (*Result, error){
			"compact": func(opt Options) (*Result, error) { return TopK(ctx, compact, q, opt) },
			"packed":  func(opt Options) (*Result, error) { return TopK(ctx, packed, q, opt) },
		}
		for _, scheme := range []Scheme{Scheme2SBound, SchemeGS, SchemeGupta, SchemeSarkar} {
			t.Run(fmt.Sprintf("%s/%s", tc.name, scheme), func(t *testing.T) {
				for _, b := range []*Budget{nil, {MaxRounds: 3}, {MaxTouched: 8}} {
					opt := Options{K: k, Epsilon: 1e-9, Alpha: 0.25, Beta: 0.5, Scheme: scheme, Budget: b}
					want, err := TopK(ctx, tc.g, q, opt)
					if err != nil {
						t.Fatalf("csr: %v", err)
					}
					for name, run := range others {
						got, err := run(opt)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("budget %+v: %s diverged from csr:\n%+v\n%+v", b, name, got, want)
						}
					}
					// The masked graph has its own ties, so ε is loose here.
					opt.Epsilon = 0.01
					want, err = TopK(ctx, masked, q, opt)
					if err != nil {
						t.Fatalf("mask: %v", err)
					}
					got, err := TopK(ctx, graph.Pack(masked), q, opt)
					if err != nil {
						t.Fatalf("packed mask: %v", err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("budget %+v: packed masked graph diverged from the flat one:\n%+v\n%+v", b, got, want)
					}
				}
			})
		}
	}
}

// TestFlatPoolReuseAcrossSizes alternates pooled queries between graphs of
// very different sizes, forcing the recycled scratch to grow and shrink, and
// checks each answer stays identical to the first run on that graph.
func TestFlatPoolReuseAcrossSizes(t *testing.T) {
	toy := testgraphs.NewToy()
	big := testgraphs.Cycle(500)
	type key struct {
		name string
		g    *graph.Graph
		q    graph.NodeID
	}
	cases := []key{
		{"toy", toy.Graph, toy.T1},
		{"big", big, 250},
		{"star", testgraphs.Star(4), 0},
	}
	run := func(g *graph.Graph, q graph.NodeID) *Result {
		res, err := TopK(context.Background(), g, walk.SingleNode(q), Options{K: 3, Epsilon: 0.01, Alpha: 0.25, Beta: 0.5})
		if err != nil {
			t.Fatalf("TopK: %v", err)
		}
		return res
	}
	want := map[string]*Result{}
	for _, tc := range cases {
		want[tc.name] = run(tc.g, tc.q)
	}
	for round := 0; round < 3; round++ {
		for _, tc := range cases {
			got := run(tc.g, tc.q)
			w := want[tc.name]
			if len(got.TopK) != len(w.TopK) || got.Rounds != w.Rounds || got.FSeen != w.FSeen || got.TSeen != w.TSeen {
				t.Fatalf("round %d %s: pooled rerun diverged (%+v vs %+v)", round, tc.name, got, w)
			}
			for i := range w.TopK {
				if got.TopK[i] != w.TopK[i] {
					t.Fatalf("round %d %s rank %d: %+v vs %+v", round, tc.name, i, got.TopK[i], w.TopK[i])
				}
			}
		}
	}
}

// TestFlatSteadyStateAllocs pins the headline property of the pooled
// searcher: once the pool is warm, an online 2SBound query over CSR arrays
// performs only a small constant number of allocations (the Result struct and
// ranked slice).
func TestFlatSteadyStateAllocs(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("sync.Pool bypasses reuse under the race detector; allocation counts are not meaningful")
	}
	toy := testgraphs.NewToy()
	q := walk.SingleNode(toy.T1)
	opt := Options{K: 3, Epsilon: 0.01, Alpha: 0.25, Beta: 0.5}
	// Warm the pool.
	if _, err := TopK(context.Background(), toy.Graph, q, opt); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := TopK(context.Background(), toy.Graph, q, opt); err != nil {
			t.Fatalf("TopK: %v", err)
		}
	})
	// The budget leaves headroom for the Result, the ranked slice and an
	// occasional pool refill after a GC, while still failing loudly if a map
	// or per-round allocation sneaks back into the hot path.
	const budget = 12
	if avg > budget {
		t.Errorf("steady-state TopK allocates %.1f objects/query, budget %d", avg, budget)
	}
}

// failingRows is a row session that fails the way a remote session does: its
// failAt-th row read (OutRow and InRow counted together, from 1) sets the
// sticky error, and that read and every later one return an empty row; failAt
// 0 never fails.
type failingRows struct {
	graph.Rows
	reads, failAt int
	err           error
}

var errRowFetch = errors.New("row fetch failed")

func (f *failingRows) failed() bool {
	f.reads++
	if f.reads == f.failAt {
		f.err = errRowFetch
	}
	return f.err != nil
}

func (f *failingRows) OutRow(v graph.NodeID) ([]graph.NodeID, []float64) {
	if f.failed() {
		return nil, nil
	}
	return f.Rows.OutRow(v)
}

func (f *failingRows) InRow(v graph.NodeID) ([]graph.NodeID, []float64) {
	if f.failed() {
		return nil, nil
	}
	return f.Rows.InRow(v)
}

func (f *failingRows) Err() error { return f.err }

// TestRowFetchFailureLeavesPoolReusable fails a query at every one
// of its row reads in turn — the T side's binding reads, BCA processing, border
// expansion, the Stage-II kernel's build pass over the seen rows of either
// side and the final refinement of an exhausted search — and checks that
// TopKRows returns the session's error each time, never a result computed from
// the empty rows (a budgeted query included: a fleet failure is not a degraded
// certificate), that the searcher is back in the pool, and that the next query
// the pool serves answers exactly like one that never failed. The exhausted
// search runs 157 rounds, so its earlier reads are sampled with a stride and
// only the reads of its final refinement are failed one by one.
func TestRowFetchFailureLeavesPoolReusable(t *testing.T) {
	toy := testgraphs.NewToy()
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		q    graph.NodeID
		opt  Options
		stop StopReason
	}{
		{"converged", toy.Graph, toy.T1, Options{K: 3, Epsilon: 0.01}, StopConverged},
		{"exhausted", toy.Graph, toy.T1, Options{K: 50, Epsilon: 0.01}, StopExhausted},
		{"budgeted", toy.Graph, toy.T1, Options{K: 3, Epsilon: 1e-9, Budget: &Budget{MaxRounds: 2}}, StopRounds},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := walk.SingleNode(tc.q)
			tc.opt.Alpha, tc.opt.Beta = 0.25, 0.5
			packed := graph.Pack(tc.g)
			session := func(failAt int) *failingRows {
				return &failingRows{Rows: packed.NewRows(), failAt: failAt}
			}
			healthy := session(0)
			want, err := TopKRows(ctx, healthy, q, tc.opt)
			if err != nil {
				t.Fatalf("TopKRows: %v", err)
			}
			if want.Stop != tc.stop {
				t.Fatalf("healthy query stopped on %v, the case needs %v", want.Stop, tc.stop)
			}
			if healthy.reads < want.FSeen+want.TSeen {
				t.Fatalf("query made %d row reads, fewer than one refinement of its %d+%d seen rows", healthy.reads, want.FSeen, want.TSeen)
			}
			inUse, _ := PoolStats()
			tail := healthy.reads - (want.FSeen + want.TSeen)
			for k := 1; k <= healthy.reads; k++ {
				if tc.stop == StopExhausted && k < tail && k%97 != 0 {
					continue
				}
				if res, err := TopKRows(ctx, session(k), q, tc.opt); !errors.Is(err, errRowFetch) || res != nil {
					t.Fatalf("read %d failing: got (%+v, %v), want the fetch error", k, res, err)
				}
				if now, _ := PoolStats(); now != inUse {
					t.Fatalf("read %d failing: %d searchers in use, %d before", k, now, inUse)
				}
				got, err := TopKRows(ctx, session(0), q, tc.opt)
				if err != nil {
					t.Fatalf("query after read %d failed: %v", k, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("query after read %d failed diverged:\n%+v\n%+v", k, got, want)
				}
			}
		})
	}
}

// footprint walks a searcher by reflection and adds up the bytes its slices
// hold (length × element size), apart for the slices that have one entry per
// node of an n-node graph — the dense, generation-stamped part — and for all
// others, whose longest length it also returns. It follows no pointer and no
// interface, so the graph the searcher is bound to is not counted.
func footprint(v reflect.Value, n int) (dense, sparse, longest int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			d, s, l := footprint(v.Field(i), n)
			dense, sparse, longest = dense+d, sparse+s, max(longest, l)
		}
	case reflect.Slice:
		bytes := v.Len() * int(v.Type().Elem().Size())
		if v.Len() == n {
			return bytes, 0, 0
		}
		return 0, bytes, v.Len()
	}
	return dense, sparse, longest
}

// TestSearcherFootprint pins where a query's state lives. What is keyed by
// node is 8 B a node and no more: the one index of every node the query
// touched — the BCA engine's, which the T side admits into — and everything
// else, residuals and both sides' maps from a shared slot to an F or T slot
// included, is keyed by slot or by logged edge: its size follows the
// neighborhoods and stays the same, byte for byte, when the same graph is
// padded with isolated nodes to four times the size. The searcher is bound as
// TopKRows binds it.
func TestSearcherFootprint(t *testing.T) {
	const nodes = 2048
	cfg := datasets.DefaultRMATConfig(nodes)
	cfg.Seed = 7
	edges, err := datasets.RMATEdges(cfg)
	if err != nil {
		t.Fatalf("RMATEdges: %v", err)
	}
	opt, err := Options{K: 5, Epsilon: 0.01, Alpha: 0.25, Beta: 0.5, Budget: &Budget{MaxRounds: 4}}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	var sparseAt []int
	for _, n := range []int{nodes, 4 * nodes} {
		b := graph.NewBuilder()
		b.AddNodes(n, nil)
		for _, e := range edges {
			b.MustAddEdge(e.From, e.To, 1)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		s := new(flatSearcher) // fresh, so no array is left over from a larger graph
		q := walk.SingleNode(0)
		if err := s.bind(g, q, opt); err != nil {
			t.Fatal(err)
		}
		res, err := s.run(context.Background(), g)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if res.FSeen < 50 || res.TSeen < 50 {
			t.Fatalf("n=%d: the query saw %d and %d nodes, too few to measure", n, res.FSeen, res.TSeen)
		}

		sv := reflect.ValueOf(s).Elem()
		dense, sparse, longest := footprint(sv, n)
		if dense != 8*n {
			t.Errorf("n=%d: %d B in per-node arrays, want 8 B × n = %d", n, dense, 8*n)
		}
		logged := func(side string, field ...string) int {
			v := sv.FieldByName(side)
			for _, f := range field {
				v = v.FieldByName(f)
			}
			return v.Len()
		}
		reach := res.Touched + res.FSeen + res.TSeen +
			logged("fb", "k", "log") + logged("tb", "k", "log") + 2
		if longest > reach {
			t.Errorf("n=%d: a slice of %d entries beside the per-node arrays; rows reached, seen nodes and logged edges add up to %d", n, longest, reach)
		}
		sparseAt = append(sparseAt, sparse)
	}
	if sparseAt[0] != sparseAt[1] {
		t.Errorf("state beside the per-node arrays: %d B at %d nodes, %d B at %d nodes; it should not depend on the node count",
			sparseAt[0], nodes, sparseAt[1], 4*nodes)
	}
}
