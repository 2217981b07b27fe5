package walk_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"roundtriprank/internal/distributed"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/walk"
)

// TestEveryGathererMatchesSerialReferenceBitForBit keeps the oracle
// independent of the code it checks. Local and distributed solves share one
// loop, so comparing them with each other pins only gather and scatter; here
// every Gatherer — flat and packed rows at 1/2/3/8 workers, and the
// coordinator over 1/2/3 loopback stripe workers — is solved through the
// public doors and compared with the serial references, which share nothing
// with that loop. Each gather is handed a NaN-poisoned dst, which it must
// fully overwrite. The line graph has a dangling tail node; the R-MAT graph
// is the one where T-Rank switches to mixing, and the small BibNet the one
// where both legs do.
func TestEveryGathererMatchesSerialReferenceBitForBit(t *testing.T) {
	ctx := context.Background()
	p := walk.Params{Alpha: 0.25, Tol: 1e-11, MaxIter: 300}
	q := walk.SingleNode(0)
	for name, g := range walk.KernelTestGraphs() {
		restart := make([]float64, g.NumNodes())
		restart[0] = 1
		wantF := walk.SerialFRankAccelReference(g, restart, p)
		wantT := walk.SerialTRankAccelReference(g, restart, p)

		gatherers := map[string]walk.Gatherer{}
		for _, workers := range []int{1, 2, 3, 8} {
			for layout, view := range map[string]graph.View{"flat": g, "packed": graph.Pack(g)} {
				gatherers[fmt.Sprintf("%s/workers%d", layout, workers)] = walk.Local(view, workers)
			}
		}
		for _, stripes := range []int{1, 2, 3} {
			ts := make([]distributed.Transport, stripes)
			for i := range ts {
				s, err := distributed.BuildStripe(g, i, stripes)
				if err != nil {
					t.Fatalf("%s: BuildStripe(%d,%d): %v", name, i, stripes, err)
				}
				ts[i] = distributed.NewLoopback(distributed.NewWorker(s))
			}
			c, err := distributed.Connect(ctx, ts, nil)
			if err != nil {
				t.Fatalf("%s: Connect over %d stripes: %v", name, stripes, err)
			}
			gatherers[fmt.Sprintf("fleet/stripes%d", stripes)] = c
		}

		for kind, inner := range gatherers {
			// Poisoned: a gather that leaves any entry of dst unwritten
			// surfaces as a NaN score.
			gth := &fakeGather{Gatherer: inner}
			gotF, _, err := walk.FRankOver(ctx, gth, q, p)
			if err != nil {
				t.Fatalf("%s/%s: FRankOver: %v", name, kind, err)
			}
			walk.AssertBitIdentical(t, name+"/"+kind+"/frank", wantF, gotF)
			gotT, _, err := walk.TRankOver(ctx, gth, q, p)
			if err != nil {
				t.Fatalf("%s/%s: TRankOver: %v", name, kind, err)
			}
			walk.AssertBitIdentical(t, name+"/"+kind+"/trank", wantT, gotT)
		}
	}
}

// fakeGather wraps a Gatherer for the loop tests: it counts the gathers,
// poisons dst with NaN before delegating, fails the failAt-th gather, and runs
// onGather after each successful one.
type fakeGather struct {
	walk.Gatherer
	calls    int
	failAt   int
	onGather func(calls int)
}

var errGather = errors.New("gather failed")

func (f *fakeGather) Gather(ctx context.Context, dir graph.Dir, x, dst []float64, rows []graph.NodeID) error {
	f.calls++
	if f.calls == f.failAt {
		return errGather
	}
	for i := range dst {
		dst[i] = math.NaN()
	}
	if err := f.Gatherer.Gather(ctx, dir, x, dst, rows); err != nil {
		return err
	}
	if f.onGather != nil {
		f.onGather(f.calls)
	}
	return nil
}

// TestSharedLoopOverFakeGather pins the loop's contract with its seam, for
// both personalized doors: a gather error at iteration k aborts the solve
// there and returns no vector; a context cancelled during iteration k is
// reported before iteration k+1 gathers; and the gather runs at most MaxIter
// times, after which the solve reports that it did not converge.
func TestSharedLoopOverFakeGather(t *testing.T) {
	g := walk.KernelTestGraphs()["toy"]
	local := walk.Local(g, 1)
	q := walk.SingleNode(0)
	// A tolerance no iterate reaches: only an error, the context or MaxIter
	// ends these solves.
	p := walk.Params{Alpha: 0.25, Tol: 1e-300, MaxIter: 7}
	doors := map[string]func(context.Context, walk.Gatherer, walk.Query, walk.Params) ([]float64, walk.Bound, error){
		"FRankOver": walk.FRankOver,
		"TRankOver": walk.TRankOver,
	}
	for name, solve := range doors {
		failing := &fakeGather{Gatherer: local, failAt: 3}
		if v, _, err := solve(context.Background(), failing, q, p); !errors.Is(err, errGather) || v != nil {
			t.Errorf("%s: gather error at iteration 3 returned (%v, %v), want (nil, errGather)", name, v, err)
		}
		if failing.calls != 3 {
			t.Errorf("%s: %d gathers after a failure at iteration 3", name, failing.calls)
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancelling := &fakeGather{Gatherer: local, onGather: func(calls int) {
			if calls == 2 {
				cancel()
			}
		}}
		if v, _, err := solve(ctx, cancelling, q, p); !errors.Is(err, context.Canceled) || v != nil {
			t.Errorf("%s: cancelled solve returned (%v, %v), want (nil, context.Canceled)", name, v, err)
		}
		if cancelling.calls != 2 {
			t.Errorf("%s: %d gathers, want the solve to stop within one iteration of the cancel at 2", name, cancelling.calls)
		}
		cancel()

		capped := &fakeGather{Gatherer: local}
		v, b, err := solve(context.Background(), capped, q, p)
		if err != nil || len(v) != g.NumNodes() || b.Converged || !(b.Err > 0) {
			t.Errorf("%s: capped solve returned (%d entries, %+v, %v)", name, len(v), b, err)
		}
		if capped.calls != p.MaxIter {
			t.Errorf("%s: %d gathers, want exactly MaxIter = %d", name, capped.calls, p.MaxIter)
		}
	}
}
