package distributed

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"roundtriprank/internal/graph"
	"roundtriprank/internal/testgraphs"
	"roundtriprank/internal/walk"
)

// chaosTransport wraps a loopback transport with switchable failure modes for
// replica-set tests: down (every call fails transiently) and permanentErr
// (every call fails permanently).
type chaosTransport struct {
	inner        *Loopback
	down         atomic.Bool
	permanentErr atomic.Bool
	calls        atomic.Int64
	ships        atomic.Int64
	retags       atomic.Int64
}

func (c *chaosTransport) fail() error {
	if c.permanentErr.Load() {
		return errors.New("chaos: permanent failure")
	}
	if c.down.Load() {
		return &TransientError{Err: errors.New("chaos: member down")}
	}
	return nil
}

func (c *chaosTransport) Info(ctx context.Context) (WorkerInfo, error) {
	c.calls.Add(1)
	if err := c.fail(); err != nil {
		return WorkerInfo{}, err
	}
	return c.inner.Info(ctx)
}

func (c *chaosTransport) OutSums(ctx context.Context) ([]float64, error) {
	c.calls.Add(1)
	if err := c.fail(); err != nil {
		return nil, err
	}
	return c.inner.OutSums(ctx)
}

func (c *chaosTransport) Multiply(ctx context.Context, dir graph.Dir, graphSum uint32, x []float64) ([]float64, error) {
	c.calls.Add(1)
	if err := c.fail(); err != nil {
		return nil, err
	}
	return c.inner.Multiply(ctx, dir, graphSum, x)
}

func (c *chaosTransport) FetchRows(ctx context.Context, graphSum uint32, nodes []graph.NodeID) (RowBatch, error) {
	c.calls.Add(1)
	if err := c.fail(); err != nil {
		return RowBatch{}, err
	}
	return c.inner.FetchRows(ctx, graphSum, nodes)
}

func (c *chaosTransport) OutDegrees(ctx context.Context) ([]int32, error) {
	c.calls.Add(1)
	if err := c.fail(); err != nil {
		return nil, err
	}
	return c.inner.OutDegrees(ctx)
}

func (c *chaosTransport) SendStripe(ctx context.Context, s *Stripe) error {
	c.ships.Add(1)
	if err := c.fail(); err != nil {
		return err
	}
	return c.inner.SendStripe(ctx, s)
}

func (c *chaosTransport) RetagStripe(ctx context.Context, graphSum uint32, epoch uint64, content uint32) error {
	c.retags.Add(1)
	if err := c.fail(); err != nil {
		return err
	}
	return c.inner.RetagStripe(ctx, graphSum, epoch, content)
}

func (c *chaosTransport) RemoveStripe(ctx context.Context) error {
	if err := c.fail(); err != nil {
		return err
	}
	return c.inner.RemoveStripe(ctx)
}

func (c *chaosTransport) Close() error { return c.inner.Close() }

// replicaFixture builds R chaos-wrapped replicas of stripe `index` of g.
func replicaFixture(t *testing.T, g *graph.Graph, index, count, r int) (*Stripe, []*chaosTransport, []Transport) {
	t.Helper()
	s, err := BuildStripe(g, index, count)
	if err != nil {
		t.Fatalf("BuildStripe: %v", err)
	}
	wrapped := make([]*chaosTransport, r)
	ts := make([]Transport, r)
	for i := range wrapped {
		wrapped[i] = &chaosTransport{inner: NewLoopbackAt(NewWorker(s), index)}
		ts[i] = wrapped[i]
	}
	return s, wrapped, ts
}

func TestReplicaSetFailsOverAndPromotes(t *testing.T) {
	g := testgraphs.Cycle(12)
	s, wrapped, ts := replicaFixture(t, g, 0, 2, 2)
	rs := NewReplicaSet(ts)
	ctx := context.Background()
	x := make([]float64, g.NumNodes())
	for i := range x {
		x[i] = 1
	}

	wrapped[0].down.Store(true)
	if _, err := rs.Multiply(ctx, graph.In, s.GraphFingerprint(), x); err != nil {
		t.Fatalf("Multiply with one dead replica: %v", err)
	}
	if got := rs.Failovers(); got != 1 {
		t.Fatalf("Failovers = %d, want 1", got)
	}

	// The surviving replica is now preferred: another call must not touch the
	// dead member (no new failover, no new call on replica 0).
	before := wrapped[0].calls.Load()
	if _, err := rs.Multiply(ctx, graph.In, s.GraphFingerprint(), x); err != nil {
		t.Fatalf("Multiply after promotion: %v", err)
	}
	if rs.Failovers() != 1 {
		t.Errorf("promotion did not stick: failovers = %d", rs.Failovers())
	}
	if wrapped[0].calls.Load() != before {
		t.Errorf("dead replica was called again after promotion")
	}

	// The promotion belongs to the direction that failed over: the other
	// direction's routing is its own, so it still starts at replica 0, finds
	// it dead once, and promotes for itself.
	if _, err := rs.Multiply(ctx, graph.Out, s.GraphFingerprint(), x); err != nil {
		t.Fatalf("Multiply in the other direction: %v", err)
	}
	if rs.Failovers() != 2 || wrapped[0].calls.Load() != before+1 {
		t.Errorf("other direction: failovers = %d, calls on the dead replica = %d; want 2 and %d",
			rs.Failovers(), wrapped[0].calls.Load(), before+1)
	}
}

// TestReplicaSetRoutesEachKindOfCallApart pins the three routing preferences
// of a ReplicaSet: a failover on a call without a direction leaves both
// multiply directions where they were, and a multiply's failover — graph.Out's
// too, whose Dir is zero — moves neither the other direction nor the calls
// without one.
func TestReplicaSetRoutesEachKindOfCallApart(t *testing.T) {
	g := testgraphs.Cycle(12)
	ctx := context.Background()
	x := make([]float64, g.NumNodes())
	for i := range x {
		x[i] = 1
	}
	type call struct {
		name     string
		multiply bool
		run      func(rs *ReplicaSet, graphSum uint32) error
	}
	multiply := func(dir graph.Dir) call {
		return call{"Multiply/" + dir.String(), true, func(rs *ReplicaSet, graphSum uint32) error {
			_, err := rs.Multiply(ctx, dir, graphSum, x)
			return err
		}}
	}
	calls := []call{
		{"Info", false, func(rs *ReplicaSet, _ uint32) error { _, err := rs.Info(ctx); return err }},
		{"OutSums", false, func(rs *ReplicaSet, _ uint32) error { _, err := rs.OutSums(ctx); return err }},
		{"FetchRows", false, func(rs *ReplicaSet, graphSum uint32) error {
			_, err := rs.FetchRows(ctx, graphSum, []graph.NodeID{0})
			return err
		}},
		{"OutDegrees", false, func(rs *ReplicaSet, _ uint32) error { _, err := rs.OutDegrees(ctx); return err }},
		multiply(graph.In),
		multiply(graph.Out),
	}

	// failOver runs c on a fresh set whose replica 0 is down, so that c's
	// preference moves to replica 1, and brings replica 0 back.
	failOver := func(t *testing.T, c call) (served func(call) int) {
		t.Helper()
		s, wrapped, ts := replicaFixture(t, g, 0, 2, 2)
		rs := NewReplicaSet(ts)
		wrapped[0].down.Store(true)
		if err := c.run(rs, s.GraphFingerprint()); err != nil {
			t.Fatalf("%s with one dead replica: %v", c.name, err)
		}
		if got := rs.Failovers(); got != 1 {
			t.Fatalf("%s: Failovers = %d, want 1", c.name, got)
		}
		wrapped[0].down.Store(false)
		// served runs a call with both replicas up and returns the one it
		// reached: the replica its preference names.
		return func(c call) int {
			t.Helper()
			before := [2]int64{wrapped[0].calls.Load(), wrapped[1].calls.Load()}
			if err := c.run(rs, s.GraphFingerprint()); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			reached := -1
			for i, w := range wrapped {
				if w.calls.Load() != before[i] {
					if reached >= 0 {
						t.Fatalf("%s reached both replicas with both up", c.name)
					}
					reached = i
				}
			}
			return reached
		}
	}

	for _, failed := range calls {
		served := failOver(t, failed)
		if got := served(failed); got != 1 {
			t.Errorf("after %s failed over, it went back to replica %d; want the promoted replica 1", failed.name, got)
		}
		for _, c := range calls {
			if c.name == failed.name {
				continue
			}
			want := 0 // a preference of its own, never moved
			if !c.multiply && !failed.multiply {
				want = 1 // the calls without a direction share one
			}
			if got := served(c); got != want {
				t.Errorf("after %s failed over, %s went to replica %d; want %d", failed.name, c.name, got, want)
			}
		}
	}
}

func TestReplicaSetPermanentErrorDoesNotFailOver(t *testing.T) {
	g := testgraphs.Cycle(12)
	s, wrapped, ts := replicaFixture(t, g, 0, 2, 2)
	rs := NewReplicaSet(ts)
	wrapped[0].permanentErr.Store(true)

	x := make([]float64, g.NumNodes())
	_, err := rs.Multiply(context.Background(), graph.In, s.GraphFingerprint(), x)
	if err == nil {
		t.Fatalf("Multiply with a permanent error succeeded via failover")
	}
	if IsTransient(err) {
		t.Errorf("permanent error resurfaced as transient: %v", err)
	}
	if wrapped[1].calls.Load() != 0 {
		t.Errorf("permanent error still failed over to replica 1")
	}
}

func TestReplicaSetAllDownStaysTransient(t *testing.T) {
	g := testgraphs.Cycle(12)
	s, wrapped, ts := replicaFixture(t, g, 0, 2, 2)
	rs := NewReplicaSet(ts)
	for _, w := range wrapped {
		w.down.Store(true)
	}
	x := make([]float64, g.NumNodes())
	_, err := rs.Multiply(context.Background(), graph.In, s.GraphFingerprint(), x)
	if err == nil {
		t.Fatalf("Multiply with all replicas down succeeded")
	}
	if !IsTransient(err) {
		// The coordinator's retry loop must be able to re-enter the set.
		t.Errorf("all-down error not transient: %v", err)
	}
}

// TestEnsureStripeDelta pins the rebalance-cost property: a member already
// holding the payload is retagged (or skipped), never re-shipped.
func TestEnsureStripeDelta(t *testing.T) {
	g := testgraphs.Cycle(12)
	s, err := BuildStripe(g, 0, 2)
	if err != nil {
		t.Fatalf("BuildStripe: %v", err)
	}
	holder := &chaosTransport{inner: NewLoopbackAt(NewWorker(s), 0)}
	empty := &chaosTransport{inner: NewLoopbackAt(NewWorker(nil), 0)}
	ctx := context.Background()
	ensure := func(tr Transport, s *Stripe, want DeployAction) {
		t.Helper()
		got, err := EnsureStripe(ctx, tr, s)
		if err != nil {
			t.Fatalf("EnsureStripe: %v", err)
		}
		if got != want {
			t.Errorf("EnsureStripe action %d, want %d", got, want)
		}
	}

	// Same payload on the holder already: it is untouched, the empty member
	// receives the one full ship.
	ensure(holder, s, DeployNone)
	ensure(empty, s, DeployShip)
	if holder.ships.Load() != 0 {
		t.Errorf("member already holding the payload was re-shipped")
	}
	if empty.ships.Load() != 1 {
		t.Errorf("empty member got %d ships, want 1", empty.ships.Load())
	}

	// A retagged variant of the same payload: both members hold the bytes, so
	// the redeploy is two retags and zero ships.
	moved := s.StripeData
	moved.Graph, moved.Epoch = moved.Graph+1, moved.Epoch+7
	ns := StripeFromData(&moved)
	holder.ships.Store(0)
	empty.ships.Store(0)
	ensure(holder, ns, DeployRetag)
	ensure(empty, ns, DeployRetag)
	if holder.ships.Load()+empty.ships.Load() != 0 {
		t.Errorf("unchanged payload was re-shipped on epoch move (%d ships)", holder.ships.Load()+empty.ships.Load())
	}
	if holder.retags.Load() == 0 || empty.retags.Load() == 0 {
		t.Errorf("epoch move did not retag both members (%d, %d)", holder.retags.Load(), empty.retags.Load())
	}
	for _, tr := range []Transport{holder, empty} {
		info, err := tr.Info(ctx)
		if err != nil {
			t.Fatalf("Info: %v", err)
		}
		if info.Epoch != ns.Epoch || info.Graph != ns.GraphFingerprint() {
			t.Errorf("retagged identity not served: %+v", info)
		}
	}
}

func TestReplicaSetFetchRowsFailsOverWithoutHedge(t *testing.T) {
	g := testgraphs.Cycle(12)
	s, wrapped, ts := replicaFixture(t, g, 0, 2, 2)
	rs := NewReplicaSet(ts)
	wrapped[0].down.Store(true)
	batch, err := rs.FetchRows(context.Background(), s.GraphFingerprint(), []graph.NodeID{0})
	if err != nil {
		t.Fatalf("FetchRows with one dead replica: %v", err)
	}
	if len(batch.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(batch.Rows))
	}
	if rs.Failovers() != 1 {
		t.Errorf("Failovers = %d, want 1", rs.Failovers())
	}
}

// TestReplicaSetCoordinatorParity wires replica sets under a real coordinator
// and kills one member of each group: results must stay bit-identical to the
// plain single-replica run.
func TestReplicaSetCoordinatorParity(t *testing.T) {
	g := testgraphs.NewToy().Graph
	const stripes = 2
	ctx := context.Background()

	plain := loopbackTransports(t, g, stripes)
	sets := make([]Transport, stripes)
	var killable []*chaosTransport
	for i := 0; i < stripes; i++ {
		_, wrapped, ts := replicaFixture(t, g, i, stripes, 2)
		killable = append(killable, wrapped[0])
		sets[i] = NewReplicaSet(ts)
	}
	for _, w := range killable {
		w.down.Store(true) // every group's first replica is dead
	}

	cPlain, err := Connect(ctx, plain, nil)
	if err != nil {
		t.Fatalf("Connect(plain): %v", err)
	}
	cRep, err := Connect(ctx, sets, nil)
	if err != nil {
		t.Fatalf("Connect(replicated): %v", err)
	}

	q := walk.SingleNode(3)
	p := walk.DefaultParams()
	want, _, err := walk.FRankOver(ctx, cPlain, q, p)
	if err != nil {
		t.Fatalf("plain FRank: %v", err)
	}
	got, _, err := walk.FRankOver(ctx, cRep, q, p)
	if err != nil {
		t.Fatalf("replicated FRank: %v", err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("replicated FRank differs at node %d: %g != %g", v, got[v], want[v])
		}
	}
}

// TestMultiStripeWorker pins the stripe-addressed wire protocol: one worker
// serving two stripes answers per-stripe RPCs via explicit selectors and
// refuses ambiguous unselected calls.
func TestMultiStripeWorker(t *testing.T) {
	g := testgraphs.Cycle(12)
	w := NewWorker(nil)
	var stripes []*Stripe
	for _, idx := range []int{0, 2} {
		s, err := BuildStripe(g, idx, 3)
		if err != nil {
			t.Fatalf("BuildStripe: %v", err)
		}
		stripes = append(stripes, s)
		w.SetStripe(s)
	}

	if got := len(w.Stripes()); got != 2 {
		t.Fatalf("Stripes() returned %d, want 2", got)
	}
	if _, err := w.Info(AnyStripe); err == nil {
		t.Errorf("unselected Info on a multi-stripe worker succeeded")
	}
	for i, idx := range []int{0, 2} {
		info, err := w.Info(idx)
		if err != nil {
			t.Fatalf("Info(%d): %v", idx, err)
		}
		if info.Index != idx || info.Count != 3 {
			t.Errorf("Info(%d) = %+v", idx, info)
		}
		x := make([]float64, g.NumNodes())
		out, err := w.Multiply(idx, graph.In, stripes[i].GraphFingerprint(), x)
		if err != nil {
			t.Fatalf("Multiply(%d): %v", idx, err)
		}
		if len(out) != stripes[i].Rows() {
			t.Errorf("Multiply(%d) returned %d rows, want %d", idx, len(out), stripes[i].Rows())
		}
	}
	if _, err := w.Info(1); err == nil {
		t.Errorf("Info for an unserved stripe succeeded")
	}

	if err := w.RemoveStripe(2); err != nil {
		t.Fatalf("RemoveStripe(2): %v", err)
	}
	if err := w.RemoveStripe(2); err == nil {
		t.Errorf("RemoveStripe(2) removed twice")
	}
	// Down to one stripe: unselected calls resolve again.
	info, err := w.Info(AnyStripe)
	if err != nil {
		t.Fatalf("Info after removal: %v", err)
	}
	if info.Index != 0 {
		t.Errorf("sole stripe is %d, want 0", info.Index)
	}
}

func TestMultiStripeWorkerOverHTTP(t *testing.T) {
	g := testgraphs.Cycle(12)
	w := NewWorker(nil)
	for _, idx := range []int{0, 1} {
		s, err := BuildStripe(g, idx, 2)
		if err != nil {
			t.Fatalf("BuildStripe: %v", err)
		}
		w.SetStripe(s)
	}
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	base := NewHTTPTransport(srv.URL)
	ctx := context.Background()

	// Unbound transport: ambiguous, must fail permanently.
	if _, err := base.Info(ctx); err == nil || IsTransient(err) {
		t.Fatalf("unbound Info on a 2-stripe worker: err=%v, want permanent", err)
	}
	for _, idx := range []int{0, 1} {
		tr := base.ForStripe(idx)
		info, err := tr.Info(ctx)
		if err != nil {
			t.Fatalf("ForStripe(%d).Info: %v", idx, err)
		}
		if info.Index != idx {
			t.Errorf("ForStripe(%d) answered stripe %d", idx, info.Index)
		}
		sums, err := tr.OutSums(ctx)
		if err != nil {
			t.Fatalf("ForStripe(%d).OutSums: %v", idx, err)
		}
		if len(sums) != info.Rows {
			t.Errorf("stripe %d: %d outsums for %d rows", idx, len(sums), info.Rows)
		}
		batch, err := tr.FetchRows(ctx, info.Graph, []graph.NodeID{graph.NodeID(idx)})
		if err != nil {
			t.Fatalf("ForStripe(%d).FetchRows: %v", idx, err)
		}
		if len(batch.Rows) != 1 || batch.Rows[0].Node != graph.NodeID(idx) {
			t.Errorf("stripe %d: wrong row batch %+v", idx, batch.Rows)
		}
	}

	// Remove stripe 1 over the wire; the worker drops to a sole stripe.
	if err := base.ForStripe(1).RemoveStripe(ctx); err != nil {
		t.Fatalf("RemoveStripe(1): %v", err)
	}
	if err := base.ForStripe(1).RemoveStripe(ctx); err == nil {
		t.Errorf("second RemoveStripe(1) succeeded")
	}
	info, err := base.Info(ctx)
	if err != nil {
		t.Fatalf("unbound Info after removal: %v", err)
	}
	if info.Index != 0 {
		t.Errorf("sole stripe is %d, want 0", info.Index)
	}
}
