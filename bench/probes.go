package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"roundtriprank"
	"roundtriprank/internal/bca"
	"roundtriprank/internal/bounds"
	"roundtriprank/internal/core"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/topk"
	"roundtriprank/internal/walk"
)

// The layer probes of the traced run. Each replays a fixed list of the
// workload's own queries through one layer's exported functions, from outside,
// and records a span per call. Work is fixed (no deadline), so every count
// they report repeats exactly for a fixed seed.

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// probeQuery is one op as the probes replay it: the engine request plus the
// keep-predicate its Filter compiles to (nil when unfiltered), which the
// layers below the engine take directly.
type probeQuery struct {
	req  roundtriprank.Request
	keep func(graph.NodeID) bool
}

// searchOptions is the topk.Options the engine derives from the request with
// its default parameters (α = 0.25, β = 0.5).
func (q probeQuery) searchOptions() topk.Options {
	opt := topk.Options{
		K: q.req.K, Epsilon: q.req.Epsilon, Alpha: walk.DefaultAlpha, Beta: core.BalancedBeta,
		Scheme: topk.Scheme2SBound, Keep: q.keep,
	}
	if b := q.req.Budget; b != nil {
		opt.Budget = &topk.Budget{MaxRounds: b.MaxRounds, MaxTouched: b.MaxTouched, FrontierCap: b.FrontierCap}
	}
	return opt
}

// bindTrackers starts both bound trackers and the BCA engine on the view the
// way topk.TopK binds its searcher: CSR arrays when the view exposes them, one
// shared row session otherwise (packed views).
func bindTrackers(view graph.View, q walk.Query, fb *bounds.FFlat, tb *bounds.TFlat, bs *bca.Flat) error {
	fOpt, tOpt := bounds.DefaultFOptions(walk.DefaultAlpha), bounds.DefaultTOptions(walk.DefaultAlpha)
	if csr, ok := view.(graph.CSRView); ok {
		if err := fb.Init(csr, q, fOpt); err != nil {
			return err
		}
		if err := tb.Init(csr, q, tOpt); err != nil {
			return err
		}
		return bs.Init(csr, q, walk.DefaultAlpha)
	}
	rp, ok := view.(graph.RowsProvider)
	if !ok {
		return fmt.Errorf("view %T exposes neither CSR arrays nor row sessions", view)
	}
	rows := rp.NewRows()
	if err := fb.InitRows(rows, q, fOpt); err != nil {
		return err
	}
	if err := tb.InitRows(rows, q, tOpt); err != nil {
		return err
	}
	return bs.InitRows(rows, q, walk.DefaultAlpha)
}

// probeOnline attributes the online path: Engine.Rank, then topk.TopK direct,
// then a replay of the searcher's two bound trackers and of the BCA push
// engine for the same number of rounds the search took.
func probeOnline(tr *tracer, m metrics, eng *roundtriprank.Engine, view graph.View, qs []probeQuery) error {
	if len(qs) == 0 {
		return nil
	}
	ctx := context.Background()
	var engMS []float64
	for i, q := range qs {
		var err error
		d := tr.timed(0, i, "engine", "rank.online", func() { _, err = eng.Rank(ctx, q.req) })
		if err != nil {
			return fmt.Errorf("engine rank: %w", err)
		}
		engMS = append(engMS, ms(d))
	}

	// The allocation counters bracket the bare searcher calls; their spans
	// are recorded afterwards so the tracer's own allocations stay out.
	results := make([]*topk.Result, len(qs))
	starts, ends := make([]time.Time, len(qs)), make([]time.Time, len(qs))
	opts := make([]topk.Options, len(qs))
	for i, q := range qs {
		opts[i] = q.searchOptions()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, q := range qs {
		var err error
		starts[i] = time.Now()
		results[i], err = topk.TopK(ctx, view, q.req.Query, opts[i])
		ends[i] = time.Now()
		if err != nil {
			return fmt.Errorf("topk: %w", err)
		}
	}
	runtime.ReadMemStats(&after)
	var topkMS, rounds, touched, fseen, tseen, rseen float64
	for i, res := range results {
		tr.record(0, i, "topk", "topk", starts[i], ends[i], map[string]float64{
			"rounds": float64(res.Rounds), "touched": float64(res.Touched),
			"fseen": float64(res.FSeen), "tseen": float64(res.TSeen), "rseen": float64(res.RSeen),
		})
		topkMS += ms(ends[i].Sub(starts[i]))
		rounds += float64(res.Rounds)
		touched += float64(res.Touched)
		fseen += float64(res.FSeen)
		tseen += float64(res.TSeen)
		rseen += float64(res.RSeen)
	}
	n := float64(len(qs))

	var fb bounds.FFlat
	var tb bounds.TFlat
	var bs bca.Flat
	var fMS, tMS, firstT, lastT, replayTSeen, bcaUS, processed float64
	for i, q := range qs {
		if err := bindTrackers(view, q.req.Query, &fb, &tb, &bs); err != nil {
			return fmt.Errorf("bounds replay: %w", err)
		}
		parent := tr.begin(0, i, "bounds", "replay")
		for r := 0; r < results[i].Rounds; r++ {
			fMS += ms(tr.timed(parent, i, "bounds", "f_expand", func() { fb.Expand() }))
			t := ms(tr.timed(parent, i, "bounds", "t_expand", func() { tb.Expand() }))
			tMS += t
			if r == 0 {
				firstT += t
			}
			if r == results[i].Rounds-1 {
				lastT += t
			}
		}
		tr.end(parent, map[string]float64{"tseen": float64(tb.SeenCount()), "fseen": float64(fb.SeenCount())})
		replayTSeen += float64(tb.SeenCount())

		d := tr.timed(0, i, "bca", "process", func() {
			for r := 0; r < results[i].Rounds; r++ {
				bs.ProcessBest(bounds.DefaultFExpansion)
			}
		})
		bcaUS += ms(d) * 1e3
		processed += float64(bs.Processed())
		fb.Detach()
		tb.Detach()
		bs.Detach()
	}

	m.set("engine.online_self_ms", mean(engMS)-topkMS/n)
	m.set("topk.topk_ms", topkMS/n)
	m.set("topk.ms_per_round", ratio(topkMS, rounds))
	m.set("topk.ns_per_touched", ratio(topkMS*1e6, touched))
	m.set("topk.rounds_mean", rounds/n)
	m.set("topk.touched_mean", touched/n)
	m.set("topk.fseen_mean", fseen/n)
	m.set("topk.tseen_mean", tseen/n)
	m.set("topk.rseen_mean", rseen/n)
	m.set("topk.allocs_per_op", float64(after.Mallocs-before.Mallocs)/n)
	m.set("topk.alloc_kb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1024/n)
	m.set("topk.residual_ms", (topkMS-fMS-tMS)/n)
	m.set("bounds.f_expand_ms", ratio(fMS, rounds))
	m.set("bounds.t_expand_ms", ratio(tMS, rounds))
	m.set("bounds.t_share", ratio(tMS, tMS+fMS))
	m.set("bounds.t_expand_last_over_first", ratio(lastT, firstT))
	m.set("bounds.tseen_per_round", ratio(replayTSeen, rounds))
	m.set("bca.process_us_per_node", ratio(bcaUS, processed))
	return nil
}

// probeExact attributes the exact path: Engine.Rank, then core.Compute and
// core.Combine+TopN on its vectors, then the two walk solvers on their own.
// suffix names the row representation ("" flat, "_packed" packed).
func probeExact(tr *tracer, m metrics, eng *roundtriprank.Engine, view graph.View, qs []probeQuery, suffix string) error {
	if len(qs) == 0 {
		return nil
	}
	ctx := context.Background()
	params := core.DefaultParams()
	var engMS, computeMS, combineMS, frankMS, trankMS []float64
	for i, q := range qs {
		var err error
		d := tr.timed(0, i, "engine", "rank.exact", func() { _, err = eng.Rank(ctx, q.req) })
		if err != nil {
			return fmt.Errorf("engine rank: %w", err)
		}
		engMS = append(engMS, ms(d))

		var s *core.Scores
		d = tr.timed(0, i, "core", "compute", func() { s, err = core.Compute(ctx, view, q.req.Query, params) })
		if err != nil {
			return fmt.Errorf("core compute: %w", err)
		}
		computeMS = append(computeMS, ms(d))
		d = tr.timed(0, i, "core", "combine_topn", func() {
			core.TopN(core.Combine(s.F, s.T, params.Beta), q.req.K, q.keep)
		})
		combineMS = append(combineMS, ms(d))

		d = tr.timed(0, i, "walk", "frank"+suffix, func() { _, err = walk.FRank(ctx, view, q.req.Query, params.Walk) })
		if err != nil {
			return fmt.Errorf("walk frank: %w", err)
		}
		frankMS = append(frankMS, ms(d))
		d = tr.timed(0, i, "walk", "trank"+suffix, func() { _, err = walk.TRank(ctx, view, q.req.Query, params.Walk) })
		if err != nil {
			return fmt.Errorf("walk trank: %w", err)
		}
		trankMS = append(trankMS, ms(d))
	}
	m.set("engine.exact_self_ms", mean(engMS)-mean(computeMS)-mean(combineMS))
	m.set("core.compute_ms", mean(computeMS))
	m.set("core.combine_topn_ms", mean(combineMS))
	m.set("walk.frank"+suffix+"_ms", mean(frankMS))
	m.set("walk.trank"+suffix+"_ms", mean(trankMS))
	return nil
}

// probeRowReads times reads row reads (out-row then in-row of one node each)
// of uniformly drawn nodes and returns nanoseconds per node. The edge total
// is returned so the compiler cannot drop the reads.
func probeRowReads(rng *rand.Rand, nodes, reads int, row func(v graph.NodeID) int) (nsPerRead float64, edges int) {
	ids := make([]graph.NodeID, reads)
	for i := range ids {
		ids[i] = graph.NodeID(rng.Intn(nodes))
	}
	start := time.Now()
	for _, v := range ids {
		edges += row(v)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reads), edges
}

// probeFlatGraph reports the flat CSR's row-read cost.
func probeFlatGraph(rng *rand.Rand, m metrics, g *graph.Graph, reads int) {
	ns, _ := probeRowReads(rng, g.NumNodes(), reads, func(v graph.NodeID) int {
		out, _ := g.OutNeighbors(v)
		in, _ := g.InNeighbors(v)
		return len(out) + len(in)
	})
	m.set("graph.row_ns", ns)
}
