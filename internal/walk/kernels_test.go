package walk

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"roundtriprank/internal/datasets"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/testgraphs"
)

// This file pins the exact solvers to a serial reference implementation: the
// pull-style recurrences written as plain loops with no goroutines, no chunking, no
// gather seam and no shared loop. The rules over the shared loop must
// reproduce the reference bit-for-bit with one worker, and — because each
// output row is reduced sequentially by exactly one worker — with every other
// worker count, over packed rows, and over a striped worker fleet too
// (gatherers_test.go, which reaches these references through export_test.go).

// serialFRankReference is the pull-style F-Rank recurrence of fRank as
// straight-line serial code, without fRank's mixing: the plain solve an
// accelerated one is held to within its Bound.
func serialFRankReference(cv graph.CSRView, restart []float64, p Params) []float64 {
	x, _, _ := serialFRank(cv, restart, p, false)
	return x
}

// serialFRankAccelReference is fRank as straight-line serial code, the
// mixing included.
func serialFRankAccelReference(cv graph.CSRView, restart []float64, p Params) []float64 {
	x, _, _ := serialFRank(cv, restart, p, true)
	return x
}

// serialFRank runs the F-Rank recurrence, scales the dangling-restart solution
// at the end to the walks that end at a dangling node, and returns it with
// the number of sweeps it took and whether the leg switched to mixing. With
// mix, fRank's accelerator is written out between the steps (serialAccel).
func serialFRank(cv graph.CSRView, restart []float64, p Params, mix bool) ([]float64, int, bool) {
	n := len(restart)
	out, in := cv.OutCSR(), cv.InCSR()
	cur := make([]float64, n)
	next := make([]float64, n)
	scaled := make([]float64, n)
	copy(cur, restart)
	oneMinus := 1 - p.Alpha
	accel := serialAccel{mix: mix}
	sweeps := p.MaxIter
	for iter := 0; iter < p.MaxIter; iter++ {
		dangling := 0.0
		for u := 0; u < n; u++ {
			if out.Sum[u] > 0 {
				scaled[u] = cur[u] / out.Sum[u]
			} else {
				scaled[u] = 0
				dangling += cur[u]
			}
		}
		dadd := oneMinus * dangling
		for v := 0; v < n; v++ {
			sum := 0.0
			cols, ws := in.Row(graph.NodeID(v))
			for i, col := range cols {
				sum += ws[i] * scaled[col]
			}
			r := restart[v]
			nv := p.Alpha*r + oneMinus*sum
			if dadd > 0 && r > 0 {
				nv += dadd * r
			}
			next[v] = nv
		}
		diff := 0.0
		for i := range cur {
			diff += math.Abs(cur[i] - next[i])
		}
		if diff < p.Tol {
			cur, sweeps = next, iter+1
			break
		}
		if iter+1 < p.MaxIter {
			accel.step(cur, next, diff)
		}
		cur, next = next, cur
	}
	dangling := 0.0
	for u := 0; u < n; u++ {
		if out.Sum[u] <= 0 {
			dangling += cur[u]
		}
	}
	if dangling > 0 {
		c := p.Alpha / (p.Alpha + oneMinus*dangling)
		for v := range cur {
			cur[v] *= c
		}
	}
	return cur, sweeps, accel.engaged
}

// serialTRankReference is the T-Rank recurrence as straight-line serial
// code, without tRank's mixing: the plain solve an accelerated one is held to
// within its Bound.
func serialTRankReference(cv graph.CSRView, restart []float64, p Params) []float64 {
	x, _, _ := serialTRank(cv, restart, p, false)
	return x
}

// serialTRankAccelReference is tRank as straight-line serial code, the
// mixing included.
func serialTRankAccelReference(cv graph.CSRView, restart []float64, p Params) []float64 {
	x, _, _ := serialTRank(cv, restart, p, true)
	return x
}

// serialTRank runs the T-Rank recurrence and returns the iterate, the number
// of sweeps it took and whether the leg switched to mixing. With mix, tRank's
// accelerator is written out between the steps (serialAccel).
func serialTRank(cv graph.CSRView, restart []float64, p Params, mix bool) ([]float64, int, bool) {
	n := len(restart)
	out := cv.OutCSR()
	cur := make([]float64, n)
	next := make([]float64, n)
	for i := range cur {
		cur[i] = p.Alpha * restart[i]
	}
	oneMinus := 1 - p.Alpha
	accel := serialAccel{mix: mix}
	for iter := 0; iter < p.MaxIter; iter++ {
		for v := 0; v < n; v++ {
			acc := p.Alpha * restart[v]
			if sum := out.Sum[v]; sum > 0 {
				s := 0.0
				cols, ws := out.Row(graph.NodeID(v))
				for i, col := range cols {
					s += ws[i] * cur[col]
				}
				acc += oneMinus * s / sum
			}
			next[v] = acc
		}
		diff := 0.0
		for i := range cur {
			diff += math.Abs(cur[i] - next[i])
		}
		if diff < p.Tol {
			return next, iter + 1, accel.engaged
		}
		if iter+1 < p.MaxIter {
			accel.step(cur, next, diff)
		}
		cur, next = next, cur
	}
	return cur, p.MaxIter, accel.engaged
}

// serialAccel is the solvers' accelerator as straight-line serial code over
// every node: the stall count, and after the switch (mix) Anderson mixing
// with its history as a list of columns, newest first, and its normal
// equations rebuilt from that list at every step.
type serialAccel struct {
	mix            bool
	prev, g        []float64 // the last change (f once mixing), the last plain step
	norm           float64
	fresh          bool
	stalled        int
	dF, dG         [][]float64 // newest first
	mixed, engaged bool
}

func (a *serialAccel) step(cur, next []float64, diff float64) {
	n := len(next)
	rho := diff / a.norm
	a.norm = diff
	if a.engaged {
		a.mixStep(cur, next, rho)
		return
	}
	if !(rho >= stallRatio) {
		a.fresh, a.stalled = false, 0
		return
	}
	fit := a.fresh
	same, flip := 0.0, 0.0
	d := make([]float64, n)
	for v := range d {
		d[v] = next[v] - cur[v]
		if fit {
			same += math.Abs(d[v] - rho*a.prev[v])
			flip += math.Abs(d[v] + rho*a.prev[v])
		}
	}
	a.prev, a.fresh = d, true
	if fit && math.Min(same, flip) <= stallFit*diff {
		a.stalled++
	} else {
		a.stalled = 0
	}
	if a.mix && a.stalled == stallRun {
		a.engaged, a.g = true, append([]float64(nil), next...)
	}
}

// mixStep is one Anderson step: push the newest differences, solve the
// normal equations by a Cholesky factorization that stops before the first
// nearly dependent column, and move next to g − ΔG·γ, clamped to [0, 1].
func (a *serialAccel) mixStep(cur, next []float64, rho float64) {
	n := len(next)
	if a.mixed && rho > 1 {
		a.dF, a.dG = nil, nil
	}
	f, df, dg := make([]float64, n), make([]float64, n), make([]float64, n)
	for v := range next {
		f[v] = next[v] - cur[v]
		df[v] = f[v] - a.prev[v]
		dg[v] = next[v] - a.g[v]
	}
	a.prev, a.g = f, append([]float64(nil), next...)
	a.dF = append([][]float64{df}, a.dF[:min(len(a.dF), mixDepth-1)]...)
	a.dG = append([][]float64{dg}, a.dG[:min(len(a.dG), mixDepth-1)]...)
	m := len(a.dF)
	gram, rhs := make([][]float64, m), make([]float64, m)
	for i := range gram {
		gram[i] = make([]float64, m)
		for j := range gram[i] {
			for v := range next {
				gram[i][j] += a.dF[max(i, j)][v] * a.dF[min(i, j)][v]
			}
		}
		for v := range next {
			rhs[i] += a.dF[i][v] * f[v]
		}
	}
	l := make([][]float64, m)
	kept := 0
	for j := range m {
		l[j] = make([]float64, m)
		for k := range j {
			s := gram[j][k]
			for i := range k {
				s -= l[j][i] * l[k][i]
			}
			l[j][k] = s / l[k][k]
		}
		d := gram[j][j]
		for i := range j {
			d -= l[j][i] * l[j][i]
		}
		if !(d > mixDrop*gram[j][j]) {
			break
		}
		l[j][j] = math.Sqrt(d)
		kept = j + 1
	}
	a.dF, a.dG = a.dF[:kept], a.dG[:kept]
	a.mixed = kept > 0
	y, gamma := make([]float64, kept), make([]float64, kept)
	for j := range kept {
		y[j] = rhs[j]
		for i := range j {
			y[j] -= l[j][i] * y[i]
		}
		y[j] /= l[j][j]
	}
	for j := kept - 1; j >= 0; j-- {
		gamma[j] = y[j]
		for i := j + 1; i < kept; i++ {
			gamma[j] -= l[i][j] * gamma[i]
		}
		gamma[j] /= l[j][j]
	}
	if kept == 0 {
		return
	}
	for v := range next {
		step := 0.0
		for j := range kept {
			step += gamma[j] * a.dG[j][v]
		}
		next[v] = math.Min(math.Max(next[v]-step, 0), 1)
	}
}

// serialPageRankReference is the global PageRank recurrence of pageRank as
// straight-line serial code.
func serialPageRankReference(cv graph.CSRView, d, tol float64, maxIter int) []float64 {
	n := cv.NumNodes()
	out, in := cv.OutCSR(), cv.InCSR()
	uniform := 1.0 / float64(n)
	cur := make([]float64, n)
	next := make([]float64, n)
	scaled := make([]float64, n)
	for i := range cur {
		cur[i] = uniform
	}
	oneMinus := 1 - d
	for iter := 0; iter < maxIter; iter++ {
		dangling := 0.0
		for u := 0; u < n; u++ {
			if out.Sum[u] > 0 {
				scaled[u] = cur[u] / out.Sum[u]
			} else {
				scaled[u] = 0
				dangling += cur[u]
			}
		}
		base := d*uniform + oneMinus*dangling*uniform
		for v := 0; v < n; v++ {
			sum := 0.0
			cols, ws := in.Row(graph.NodeID(v))
			for i, col := range cols {
				sum += ws[i] * scaled[col]
			}
			next[v] = base + oneMinus*sum
		}
		diff := 0.0
		for i := range cur {
			diff += math.Abs(cur[i] - next[i])
		}
		cur, next = next, cur
		if diff < tol {
			break
		}
	}
	return cur
}

func kernelTestGraphs() map[string]*graph.Graph {
	toy := testgraphs.NewToy().Graph
	return map[string]*graph.Graph{
		"toy":          toy,
		"toy-weighted": reweighted(toy),
		"line":         testgraphs.Line(17), // has a dangling tail node
		"cycle":        testgraphs.Cycle(23),
		"star":         testgraphs.Star(9),
		"rmat":         rmatGraph(100, 42),
		"bibnet":       smallBibNet(),
	}
}

// smallBibNet is the small generated BibNet: near bipartite, so both legs
// stall on a sign-alternating mode and switch to mixing.
func smallBibNet() *graph.Graph {
	net, err := datasets.GenerateBibNet(datasets.SmallBibNetConfig())
	if err != nil {
		panic(err)
	}
	return net.Graph
}

// rmatGraph is a directed R-MAT graph with the bench spine's parameters. Its
// dead ends and skewed core give T-Rank the slow mode on which it stalls and
// switches to mixing.
func rmatGraph(nodes int, seed int64) *graph.Graph {
	cfg := datasets.DefaultRMATConfig(nodes)
	cfg.Seed = seed
	r, err := datasets.GenerateRMAT(cfg)
	if err != nil {
		panic(err)
	}
	return r.Graph
}

// reweighted commits weights other than 1 onto the first out-edge of g's
// first three nodes. The other kernel test graphs weigh every edge 1 and so
// store no weights; this one keeps its weight arrays, which holds the
// weighted gather loop to the serial references too.
func reweighted(g *graph.Graph) *graph.Graph {
	d := graph.NewDelta(g)
	for v, w := range []float64{2.5, 0.5, 3} {
		to, _ := g.OutNeighbors(graph.NodeID(v))
		if err := d.SetEdge(graph.NodeID(v), to[0], w); err != nil {
			panic(err)
		}
	}
	ng, err := graph.Commit(g, d)
	if err != nil {
		panic(err)
	}
	if ng.OutCSR().Weight == nil {
		panic("reweighted graph is in the unit form")
	}
	return ng
}

func assertBitIdentical(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: node %d differs bit-for-bit: %v != %v (delta %g)",
				label, i, got[i], want[i], got[i]-want[i])
		}
	}
}

// TestKernelsMatchSerialReferenceBitForBit is the acceptance test of the
// shared loop: the three rules over the flat and the packed gather, at one
// worker and at every other worker count, must reproduce the serial
// reference exactly, not just within tolerance — both personalized legs with
// the switch to mixing, which T takes on the R-MAT graph and both legs take
// on the small BibNet.
func TestKernelsMatchSerialReferenceBitForBit(t *testing.T) {
	p := Params{Alpha: 0.25, Tol: 1e-11, MaxIter: 300}
	for name, g := range kernelTestGraphs() {
		q := SingleNode(0)
		restart := make([]float64, g.NumNodes())
		if err := q.restart(restart); err != nil {
			t.Fatalf("%s: restart: %v", name, err)
		}
		wantF := serialFRankAccelReference(g, restart, p)
		wantT := serialTRankAccelReference(g, restart, p)
		if name == "rmat" && slices.Equal(wantT, serialTRankReference(g, restart, p)) {
			t.Fatalf("%s: T never mixed, so the T pin holds only the plain recurrence", name)
		}
		_, _, mixF := serialFRank(g, restart, p, true)
		_, _, mixT := serialTRank(g, restart, p, true)
		if name == "bibnet" && !(mixF && mixT) {
			t.Fatalf("%s: F engaged %v, T engaged %v, so the pin does not hold the mixing of both legs", name, mixF, mixT)
		}
		wantPR := serialPageRankReference(g, 0.15, 1e-11, 300)
		for layout, view := range map[string]graph.View{"flat": g, "packed": graph.Pack(g)} {
			for _, workers := range []int{1, 2, 3, 8} {
				gth := Local(view, workers)
				gotF, _, err := fRank(context.Background(), gth, restart, p)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: fRank: %v", name, layout, workers, err)
				}
				assertBitIdentical(t, name+"/"+layout+"/frank", wantF, gotF)
				gotT, _, err := tRank(context.Background(), gth, restart, p)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: tRank: %v", name, layout, workers, err)
				}
				assertBitIdentical(t, name+"/"+layout+"/trank", wantT, gotT)
				gotPR, err := pageRank(context.Background(), gth, 0.15, 1e-11, 300)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: pageRank: %v", name, layout, workers, err)
				}
				assertBitIdentical(t, name+"/"+layout+"/pagerank", wantPR, gotPR)
			}
		}
	}
}

// TestPublicSolversUseKernelResults pins the exported entry points to the
// same values: FRankOver/TRankOver on a one-worker Local must equal the
// serial reference bit-for-bit on a CSR view.
func TestPublicSolversUseKernelResults(t *testing.T) {
	g := testgraphs.NewToy().Graph
	p := Params{Alpha: 0.25, Tol: 1e-11, MaxIter: 300}
	restart := make([]float64, g.NumNodes())
	q := SingleNode(0)
	if err := q.restart(restart); err != nil {
		t.Fatalf("restart: %v", err)
	}
	// The references run with normalized params, mirroring the entry points.
	np, err := p.normalized()
	if err != nil {
		t.Fatalf("normalized: %v", err)
	}
	f, _, err := FRankOver(context.Background(), Local(g, 1), q, p)
	if err != nil {
		t.Fatalf("FRankOver: %v", err)
	}
	assertBitIdentical(t, "FRankOver", serialFRankAccelReference(g, restart, np), f)
	tr, _, err := TRankOver(context.Background(), Local(g, 1), q, p)
	if err != nil {
		t.Fatalf("TRankOver: %v", err)
	}
	assertBitIdentical(t, "TRankOver", serialTRankAccelReference(g, restart, np), tr)
}

// ownedArrays is adjacency storage of the caller's own: the three methods
// graph.Compact asks for and nothing else.
type ownedArrays struct {
	n       int
	out, in graph.CSR
}

func (a ownedArrays) NumNodes() int     { return a.n }
func (a ownedArrays) OutCSR() graph.CSR { return a.out }
func (a ownedArrays) InCSR() graph.CSR  { return a.in }

// TestWrappedViewsSolveThroughCompact pins the door for caller-owned arrays:
// wrapped with graph.Compact — the arrays of the graph, and of the graph with
// an edge masked out — every solver is bit-identical to the same call on the
// layout the arrays came from, and a cancelled context still returns
// ctx.Err().
func TestWrappedViewsSolveThroughCompact(t *testing.T) {
	p := Params{Alpha: 0.25, Tol: 1e-12, MaxIter: 500}
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	q := SingleNode(0)
	for name, g := range kernelTestGraphs() {
		to, _ := g.OutNeighbors(0)
		masked := g.Without([]graph.EdgeKey{{From: 0, To: to[0]}})
		for kind, src := range map[string]interface {
			graph.View
			graph.CSRView
		}{"graph": g, "masked": masked} {
			view := graph.Compact(ownedArrays{n: src.NumNodes(), out: src.OutCSR(), in: src.InCSR()})
			solvers := map[string]func(context.Context, graph.View) ([]float64, error){
				"FRank": func(ctx context.Context, v graph.View) ([]float64, error) { return FRank(ctx, v, q, p) },
				"TRank": func(ctx context.Context, v graph.View) ([]float64, error) { return TRank(ctx, v, q, p) },
				"PageRank": func(ctx context.Context, v graph.View) ([]float64, error) {
					return GlobalPageRank(ctx, v, 0.15, 1e-12, 500)
				},
			}
			for solver, solve := range solvers {
				label := name + "/" + kind + "/" + solver
				want, err := solve(ctx, src)
				if err != nil {
					t.Fatalf("%s on the source layout: %v", label, err)
				}
				got, err := solve(ctx, view)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertBitIdentical(t, label, want, got)
				if _, err := solve(cancelled, view); !errors.Is(err, context.Canceled) {
					t.Fatalf("%s cancelled: got %v, want context.Canceled", label, err)
				}
			}
		}
	}
}

// TestSplitCoversRange checks the partitioning of a gather: every index in
// [0, n) is visited exactly once for a spread of sizes and worker counts.
func TestSplitCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		for _, n := range []int{0, 1, 2, 5, 64, 1000} {
			visited := make([]int32, n) // no lock needed: ranges are disjoint
			err := split(context.Background(), n, workers, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					visited[i]++
				}
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i, c := range visited {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

// parkingView is a flat graph whose in-rows park, once, when fetched: the
// fetch announces itself on parked and waits for resume.
type parkingView struct {
	*graph.Graph
	taken          atomic.Bool
	parked, resume chan struct{}
}

func (v *parkingView) FlatRows(dir graph.Dir, rows []graph.NodeID) graph.CSR {
	if dir == graph.In && v.taken.CompareAndSwap(false, true) {
		close(v.parked)
		<-v.resume
	}
	return v.Graph.FlatRows(dir, rows)
}

// TestConcurrentSplitsDoNotQueue pins what the per-call goroutines buy: two
// splits share no worker, so while both chunks of the first are stuck the
// second still runs every chunk of its own. On a shared set of GOMAXPROCS
// parked workers it queued behind the stuck chunks.
func TestConcurrentSplitsDoNotQueue(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 8
	parked, resume := make(chan struct{}, 2), make(chan struct{})
	firstDone := make(chan error, 1)
	go func() {
		firstDone <- split(context.Background(), n, 2, func(lo, hi int) {
			parked <- struct{}{}
			<-resume
		})
	}()
	<-parked
	<-parked

	var visited [n]int
	secondDone := make(chan error, 1)
	go func() {
		secondDone <- split(context.Background(), n, 2, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				visited[i]++
			}
		})
	}()
	select {
	case err := <-secondDone:
		if err != nil {
			t.Fatalf("second split: %v", err)
		}
	case <-time.After(10 * time.Second):
		close(resume)
		t.Fatal("the second split waited for the first one's parked chunks")
	}
	for i, c := range visited {
		if c != 1 {
			t.Fatalf("second split: index %d visited %d times", i, c)
		}
	}

	close(resume)
	if err := <-firstDone; err != nil {
		t.Fatalf("first split: %v", err)
	}
}

// TestConcurrentGathersDoNotQueue pins what the lock-free fetch buys: while
// one gather on a Local is stuck fetching its rows, a second gather on it
// fetches its own and runs to completion. Behind a lock or a sync.Once
// around the fetch it queued behind the stuck one.
func TestConcurrentGathersDoNotQueue(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := kernelTestGraphs()["toy"]
	n := g.NumNodes()
	view := &parkingView{Graph: g, parked: make(chan struct{}), resume: make(chan struct{})}
	gth := Local(view, 0) // GOMAXPROCS: two chunks
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i + 1)
	}
	want := make([]float64, n)
	g.InCSR().Gather(x, want, nil, 0, n)

	first, second := make([]float64, n), make([]float64, n)
	firstDone := make(chan error, 1)
	go func() { firstDone <- gth.GatherIn(context.Background(), x, first, nil) }()
	<-view.parked

	secondDone := make(chan error, 1)
	go func() { secondDone <- gth.GatherIn(context.Background(), x, second, nil) }()
	select {
	case err := <-secondDone:
		if err != nil {
			t.Fatalf("second gather: %v", err)
		}
	case <-time.After(10 * time.Second):
		close(view.resume)
		t.Fatal("the second gather waited for the first one's parked chunk")
	}
	assertBitIdentical(t, "second gather", want, second)

	close(view.resume)
	if err := <-firstDone; err != nil {
		t.Fatalf("first gather: %v", err)
	}
	assertBitIdentical(t, "first gather", want, first)
}
