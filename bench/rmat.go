package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"roundtriprank"
	"roundtriprank/internal/graph"
)

// The four rmat-* workloads share one seeded R-MAT graph and one engine code
// path (Engine.Rank, one client) and differ in the query set, the method and
// the row representation.

// Online budgets. Both are deterministic (round- and touched-capped), so the
// work per query and every quality count repeat exactly. The tail budget caps
// the working set as a serving deployment would: without it a few tail
// queries run into a hub, cost 20× the median and make a ten-second median
// depend on which of them the seed drew.
var (
	tailBudget = roundtriprank.Budget{MaxRounds: 20, MaxTouched: 1000}
	hubBudget  = roundtriprank.Budget{MaxRounds: 3}
)

// packedExactEvery: rmat-packed runs one exact solve per this many online
// queries, on the same node.
const packedExactEvery = 16

type rmatOp struct {
	family family
	req    roundtriprank.Request
}

type rmatWorkload struct {
	variant string // "tail", "hub", "exact" or "packed"
	sz      sizing
	seed    int64
	el      *edgeList
	ops     []rmatOp

	// The system under test. flat is nil on the packed variant: the engine
	// serves the packed rows only, so resident_mb is the packed footprint.
	flat   *graph.Graph
	packed *graph.Packed
	view   roundtriprank.View
	eng    *roundtriprank.Engine
}

func onlineOp(v graph.NodeID, b roundtriprank.Budget) rmatOp {
	return rmatOp{family: famOnline, req: roundtriprank.Request{
		Query: roundtriprank.SingleNode(v), K: topK, Epsilon: epsilon,
		Method: roundtriprank.TwoSBound, Budget: &b,
	}}
}

func exactOp(v graph.NodeID) rmatOp {
	return rmatOp{family: famExact, req: roundtriprank.Request{
		Query: roundtriprank.SingleNode(v), K: topK, Method: roundtriprank.Exact,
	}}
}

func (w *rmatWorkload) generate(seed int64, sz sizing) error {
	w.seed, w.sz = seed, sz
	el, err := rmatEdgeList(seed, sz.rmatNodes)
	if err != nil {
		return err
	}
	w.el = el
	in, out := el.degrees()
	rng := rand.New(rand.NewSource(seed))
	tails, err := tailNodes(rng, in, out, sz.tailQueries)
	if err != nil {
		return err
	}
	hubs := hubNodes(rng, in, out, sz.hubQueries)
	switch w.variant {
	case "tail":
		for _, v := range tails {
			w.ops = append(w.ops, onlineOp(v, tailBudget))
		}
	case "hub":
		for _, v := range hubs {
			w.ops = append(w.ops, onlineOp(v, hubBudget))
		}
	case "exact":
		for i := 0; i < sz.exactQueries/2; i++ {
			w.ops = append(w.ops, exactOp(tails[i%len(tails)]), exactOp(hubs[i%len(hubs)]))
		}
	case "packed":
		for i, v := range tails[:min(sz.packedQueries, len(tails))] {
			w.ops = append(w.ops, onlineOp(v, tailBudget))
			if (i+1)%packedExactEvery == 0 {
				w.ops = append(w.ops, exactOp(v))
			}
		}
	default:
		return fmt.Errorf("unknown rmat variant %q", w.variant)
	}
	return nil
}

func (w *rmatWorkload) setup() (map[string]float64, error) {
	g, buildTime, err := w.el.build()
	if err != nil {
		return nil, err
	}
	phases := map[string]float64{
		"graph.build_ms":            ms(buildTime),
		"graph.flat_bytes_per_edge": ratio(float64(g.SizeBytes()), float64(g.NumEdges())),
	}
	w.flat, w.view = g, g
	if w.variant == "packed" {
		start := time.Now()
		w.packed = graph.Pack(g)
		phases["graph.pack_ms"] = ms(time.Since(start))
		phases["graph.packed_bytes_per_edge"] = ratio(float64(w.packed.SizeBytes()), float64(w.packed.NumEdges()))
		w.flat, w.view = nil, w.packed
	}
	w.eng, err = roundtriprank.NewEngine(w.view)
	return phases, err
}

// warm fills the searcher's pooled scratch and the kernel pool.
func (w *rmatWorkload) warm() error { return firstOps(w, w.sz.warmup) }

func (w *rmatWorkload) teardown() {
	if w.packed != nil {
		_ = w.packed.Close() // built in memory: nothing is mapped, Close cannot fail
	}
	w.flat, w.packed, w.view, w.eng = nil, nil, nil, nil
}

func (w *rmatWorkload) clients() int { return 1 }
func (w *rmatWorkload) listLen() int { return len(w.ops) }

func (w *rmatWorkload) do(_, i int, tr *tracer) sample {
	o := &w.ops[i%len(w.ops)]
	var err error
	d := tr.timed(0, i, "engine", "rank."+familyNames[o.family], func() {
		_, err = w.eng.Rank(context.Background(), o.req)
	})
	return sample{family: o.family, ms: ms(d), failed: err != nil}
}

func (w *rmatWorkload) verify(c *checker, m metrics) error {
	ctx := context.Background()
	flat := w.flat
	var local *roundtriprank.Engine
	if flat == nil {
		// The packed engine is checked against a flat local engine over the
		// same edge list, built here only for the comparison.
		var err error
		if flat, _, err = w.el.build(); err != nil {
			return err
		}
		if local, err = roundtriprank.NewEngine(flat); err != nil {
			return err
		}
	}
	loopHasExact := w.variant == "exact" || w.variant == "packed"
	var q quality
	var exactMS []float64
	for n, i := range everyNth(len(w.ops), w.sz.rmatVerify) {
		o := w.ops[i]
		what := fmt.Sprintf("rmat-%s op %d", w.variant, i)
		ref, err := exactReference(flat, o.req.Query, nil)
		if err != nil {
			return err
		}
		resp, err := w.eng.Rank(ctx, o.req)
		if err != nil {
			c.check(false, "%s: %v", what, err)
			continue
		}
		checkShape(c, what, resp.Results)
		q.add(resp.Results, ref)
		if o.family == famExact {
			err := sameRanking(resp.Results, ref)
			c.check(err == nil, "%s: exact results differ from the reference: %v", what, err)
			continue
		}
		checkCertified(c, what, resp, ref)
		q.addOnline(resp.Converged, resp.CertifiedK)
		if local != nil {
			want, err := local.Rank(ctx, o.req)
			if err == nil {
				err = sameResponse(resp, want)
			}
			c.check(err == nil, "%s: packed response differs from the flat engine's: %v", what, err)
		}
		if !loopHasExact && n%2 == 0 {
			// online_over_exact_p50 needs the exact latency of the same
			// query nodes on the same view; the loop of this workload runs
			// none, so half the verification subset is solved here.
			ex := exactOp(o.req.Query.Nodes[0])
			start := time.Now()
			eresp, err := w.eng.Rank(ctx, ex.req)
			exactMS = append(exactMS, ms(time.Since(start)))
			if err == nil {
				err = sameRanking(eresp.Results, ref)
			}
			c.check(err == nil, "%s: exact results differ from the reference: %v", what, err)
		}
	}
	q.report(m)
	if len(exactMS) > 0 {
		m.set("exact_p50_ms", median(exactMS))
	}
	return nil
}

func (w *rmatWorkload) finish(*checker) error { return nil }

// probeList returns the ops of one family from the first quarter of the op
// list, at most limit of them, as probe queries.
func (w *rmatWorkload) probeList(f family, limit int) []probeQuery {
	var qs []probeQuery
	for _, o := range w.ops[:(len(w.ops)+3)/4] {
		if o.family == f && len(qs) < limit {
			qs = append(qs, probeQuery{req: o.req})
		}
	}
	return qs
}

func (w *rmatWorkload) layers(tr *tracer, m metrics) error {
	rng := rand.New(rand.NewSource(w.seed))
	suffix := ""
	if w.packed != nil {
		suffix = "_packed"
		rows := w.packed.NewRows()
		ns, _ := probeRowReads(rng, w.packed.NumNodes(), w.sz.rowReads, func(v graph.NodeID) int {
			out, _ := rows.OutRow(v)
			in, _ := rows.InRow(v)
			return len(out) + len(in)
		})
		m.set("graph.row_ns_packed", ns)
	} else {
		probeFlatGraph(rng, m, w.flat, w.sz.rowReads)
	}
	if err := probeOnline(tr, m, w.eng, w.view, w.probeList(famOnline, w.sz.probeQueries)); err != nil {
		return err
	}
	return probeExact(tr, m, w.eng, w.view, w.probeList(famExact, w.sz.probeQueries), suffix)
}
