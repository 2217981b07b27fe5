package roundtriprank

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"roundtriprank/internal/distributed"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/rowserve"
	"roundtriprank/internal/testgraphs"
	"roundtriprank/internal/topk"
	"roundtriprank/internal/walk"
)

// corruptRows is a worker that answers /v1/rows from the right snapshot with
// one edge no graph may have: the first column of every served out-row (or
// in-row) is replaced by col — or, with self set, by the row's own node, a
// self-loop. Everything else it forwards.
type corruptRows struct {
	distributed.Transport
	inRow, self bool
	col         graph.NodeID
}

func (c *corruptRows) FetchRows(ctx context.Context, graphSum uint32, nodes []graph.NodeID) (distributed.RowBatch, error) {
	batch, err := c.Transport.FetchRows(ctx, graphSum, nodes)
	if err != nil {
		return batch, err
	}
	for i := range batch.Rows {
		cols := batch.Rows[i].OutTo
		if c.inRow {
			cols = batch.Rows[i].InFrom
		}
		if len(cols) > 0 {
			cols[0] = c.col
			if c.self {
				cols[0] = batch.Rows[i].Node
			}
		}
	}
	return batch, nil
}

// TestCorruptRowsFailTheQuery pins the last unchecked wire input: a row reply
// whose column ID lies outside [0, NumNodes) is a protocol violation that fails
// the query as a value — the searcher indexes per-node arrays by the columns it
// reads, so unchecked it is an index-out-of-range panic in the coordinator. So
// is a row that names its own node, a self-loop no Builder admits and the
// bounds of Sect. V-A do not hold on.
func TestCorruptRowsFailTheQuery(t *testing.T) {
	g := testgraphs.Cycle(12)
	n := graph.NodeID(g.NumNodes())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	q := walk.SingleNode(0)
	opt := topk.DefaultOptions()
	opt.K = 3

	for _, tc := range []struct {
		name        string
		inRow, self bool
		col         graph.NodeID
		want        string
	}{
		{"out-row/-1", false, false, -1, "out of range"},
		{"out-row/beyond", false, false, 1 << 20, "out of range"},
		{"out-row/self", false, true, 0, "self-loop"},
		{"in-row/-1", true, false, -1, "out of range"},
		{"in-row/beyond", true, false, n + 3, "out of range"},
		{"in-row/self", true, true, 0, "self-loop"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			honest, err := LoopbackWorkers(g, 2)
			if err != nil {
				t.Fatalf("LoopbackWorkers: %v", err)
			}
			lying := []Transport{honest[0], &corruptRows{Transport: honest[1], inRow: tc.inRow, self: tc.self, col: tc.col}}
			cache := rowserve.NewCache(0)

			view, err := rowserve.Connect(ctx, lying, &rowserve.Options{Cache: cache})
			if err != nil {
				t.Fatalf("Connect: %v", err)
			}
			sess := view.Session(ctx)
			res, err := topk.TopKRows(ctx, sess, q, opt)
			if err == nil || res != nil {
				t.Fatalf("search over corrupt rows returned (%v, %v), want the violation", res, err)
			}
			if distributed.IsTransient(err) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("violation should be permanent and name the %s, got: %v", tc.want, err)
			}
			if sess.Err() == nil {
				t.Errorf("session did not keep the violation")
			}

			// The rows the failed fetch had claimed were failed, not leaked: an
			// honest fleet over the same cache fetches them itself and answers.
			view, err = rowserve.Connect(ctx, honest, &rowserve.Options{Cache: cache})
			if err != nil {
				t.Fatalf("Connect(honest): %v", err)
			}
			got, err := topk.TopKRows(ctx, view.Session(ctx), q, opt)
			if err != nil {
				t.Fatalf("honest fleet over the same cache: %v", err)
			}
			want, err := topk.TopKRows(ctx, g, q, opt)
			if err != nil {
				t.Fatalf("local search: %v", err)
			}
			if len(got.TopK) != len(want.TopK) {
				t.Fatalf("honest fleet ranked %d nodes, local %d", len(got.TopK), len(want.TopK))
			}
			for i := range want.TopK {
				if got.TopK[i] != want.TopK[i] {
					t.Errorf("rank %d: honest fleet %+v, local %+v", i, got.TopK[i], want.TopK[i])
				}
			}

			engine, err := NewEngine(g, WithWorkers(lying...))
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			_, err = engine.Rank(ctx, Request{Query: SingleNode(0), K: 3, Method: TwoSBoundRemote})
			var ce *ClusterError
			if !errors.As(err, &ce) {
				t.Errorf("Engine.Rank over corrupt rows: got %v, want a ClusterError", err)
			}
		})
	}
}
