package topk

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"roundtriprank/internal/bounds"
	"roundtriprank/internal/core"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/walk"
)

// flatSearcher carries the whole per-query state of Algorithm 1 — BCA engine,
// both bound trackers, the candidate buffer — in one pooled object backed by
// dense generation-stamped arrays, so a steady-state query allocates (almost)
// nothing. Instances are recycled through flatPool and rebound to the query
// (and, after an engine epoch swap, resized to the new NumNodes) by InitRows.
type flatSearcher struct {
	opt        Options
	fb         bounds.FFlat
	tb         bounds.TFlat
	expF, expT float64 // exponents applied to F/T bounds: 2(1−β), 2β

	// What join made of the two neighborhoods last: the candidate ranking, an
	// upper bound on every node outside its first K (Eq. 16's with them), |S|.
	members []member
	outside float64
	rSeen   int
}

// flatPool recycles flatSearcher scratch across queries and goroutines. Each
// pooled object holds O(NumNodes) of arrays (see docs/TUNING.md for the
// footprint); under concurrency the pool grows to about one object per
// simultaneously executing online query.
var flatPool = sync.Pool{New: func() any { return new(flatSearcher) }}

// poolInUse and poolPeak track scratch-pool occupancy: how many flatSearcher
// objects are checked out right now, and the high-water mark since process
// start. Peak approximates the pool's steady-state size (the Pool itself
// offers no visibility), which is what operators need to bound the scratch
// footprint — see docs/TUNING.md.
var poolInUse, poolPeak atomic.Int64

// PoolStats reports the scratch pool's current and peak checkout counts.
func PoolStats() (inUse, peak int64) { return poolInUse.Load(), poolPeak.Load() }

// getSearcher checks a pooled searcher out, maintaining the occupancy gauges.
func getSearcher() *flatSearcher {
	n := poolInUse.Add(1)
	for {
		p := poolPeak.Load()
		if n <= p || poolPeak.CompareAndSwap(p, n) {
			break
		}
	}
	return flatPool.Get().(*flatSearcher)
}

// putSearcher returns a detached searcher to the pool.
func putSearcher(s *flatSearcher) {
	flatPool.Put(s)
	poolInUse.Add(-1)
}

// TopKRows runs the online top-K algorithm against any graph.Rows — flat
// arrays, a packed or adapted view's session, or the remote-backed serving
// path, where adjacency streams in row by row from stripe workers
// (internal/rowserve) instead of living in coordinator memory — on a pooled
// searcher bound to rows for the query's duration. When a row read fails
// (rows.Err() turns non-nil) the search stops within the round and returns
// that error, never a result — also under a Budget.
func TopKRows(ctx context.Context, rows graph.Rows, q walk.Query, opt Options) (*Result, error) {
	ctx = walk.OrBackground(ctx)
	opt, err := opt.normalized()
	if err != nil {
		return nil, err
	}
	s := getSearcher()
	// Release drops the searcher's references to the graph (a snapshot's CSR
	// arrays or a row session) and the caller's Keep closure before the object
	// idles in the pool: after an epoch swap, a pooled searcher must not pin
	// the superseded graph (or whatever Keep captured) until its next reuse.
	defer func() {
		s.opt = Options{}
		s.fb.Detach()
		s.tb.Detach()
		putSearcher(s)
	}()
	if err := s.bind(rows, q, opt); err != nil {
		return nil, err
	}
	return s.run(ctx, rows)
}

// bind binds the searcher to the query over rows: the F side first, whose BCA
// engine resets the one index of the nodes the query touches, then the T side
// over that index, which reports a row read that failed during binding.
func (s *flatSearcher) bind(rows graph.Rows, q walk.Query, opt Options) error {
	fOpt, tOpt, err := boundOptions(opt)
	if err != nil {
		return err
	}
	if err := s.fb.InitRows(rows, q, fOpt); err != nil {
		return err
	}
	if err := s.tb.InitShared(rows, q, tOpt, s.fb.Shared()); err != nil {
		return err
	}
	s.opt = opt
	s.expF = 2 * (1 - opt.Beta)
	s.expT = 2 * opt.Beta
	return nil
}

// run is Algorithm 1's round loop: expand both neighborhoods, join them into
// the candidate ranking — once a round; where join returns, |Sf|, |St|, |S|,
// the K-th lower bound and the unseen upper bound are all known — test the
// ε-relaxed top-K conditions, and check the budget at fixed points of the round
// so every graph representation stops at the same round with the same bounds
// and emits a bit-identical certificate. The result is read off the last join.
// A failed row reads as empty, so rows.Err() is checked after every batch of
// reads and before anything derived from them: no bound computed past a
// failure reaches a Result, with or without a budget.
func (s *flatSearcher) run(ctx context.Context, rows graph.Rows) (*Result, error) {
	res := &Result{}
	b := s.opt.Budget
	rounds := maxRounds
	if b != nil && b.MaxRounds > 0 {
		rounds = min(b.MaxRounds, maxRounds)
	}
	stopAt, soft := softStop(ctx, b)
	stop := StopRounds
	s.join() // what a search stopped before its first round reports
	for round := 0; round < rounds; round++ {
		if err := ctx.Err(); err != nil {
			// Without a budget, cancellation aborts and surfaces ctx.Err().
			// With one, the anytime contract wins: finalize the completed
			// rounds' bounds into a certificate instead of discarding them.
			if b == nil {
				return nil, err
			}
			stop = StopCanceled
			break
		}
		// At least one round always runs, so the answer is never empty-handed.
		if soft && round > 0 && time.Now().After(stopAt) {
			stop = StopDeadline
			break
		}
		fProgress := s.fb.Expand()
		tProgress := s.tb.Expand()
		if err := rows.Err(); err != nil {
			return nil, err
		}
		res.Rounds++

		s.join()
		if len(s.members) >= s.opt.K && gap(s.members[:s.opt.K], s.outside) < s.opt.Epsilon {
			stop = StopConverged // Eq. 13–14 hold
			break
		}
		if fProgress == 0 && tProgress == 0 {
			stop = StopExhausted // both closed: the bounds are as tight as they get
			break
		}
		if overTouched(b, s.fb.SeenCount(), s.tb.SeenCount()) {
			stop = StopTouched
			break
		}
	}
	res.Stop = stop
	res.Converged = stop == StopConverged
	res.Degraded = stop.degraded()
	res.TopK = s.ranked()
	res.CertifiedK, res.AchievedEpsilon = certify(s.members[:len(res.TopK)], s.outside)
	res.Sweeps = s.fb.Sweeps() + s.tb.Sweeps()
	res.FSeen = s.fb.SeenCount()
	res.TSeen = s.tb.SeenCount()
	res.RSeen = s.rSeen
	res.Touched = s.fb.Shared().Len()
	return res, nil
}

// join rebuilds, from the two neighborhoods as they stand, everything the
// round reads of them together, in one pass over the shared index by slot,
// reading each member's F slot and T slot off the two side maps, with no
// stamped probe. The r-neighborhood S = Sf ∩ St, restricted to the nodes the
// Keep filter admits, goes into the reusable members buffer with its combined
// bounds (Eq. 15), sorted by lower bound. Nodes rejected by Keep never enter
// the candidate ranking, but count towards |S|, and the unseen upper bound
// remains over all unseen nodes, which is conservative: it can only delay
// termination, never admit a wrong result. That bound is Eq. 16's rˆ(q) for the
// nodes outside S: the maximum of (a) unseen by both, (b) seen only by Sf, (c)
// seen only by St; outside raises it to the upper bounds of the candidates
// ranked below the first K.
func (s *flatSearcher) join() {
	combine := func(f, t float64) float64 { return combineBounds(f, t, s.expF, s.expT) }
	fu, tu := s.fb.UnseenUpper(), s.tb.UnseenUpper()
	fLo, fUp := s.fb.Slots()
	tLo, tUp := s.tb.Slots()
	s.members, s.outside, s.rSeen = s.members[:0], combine(fu, tu), 0
	for shared, v := range s.fb.Shared().Touched() {
		f, inF := s.fb.SideSlot(shared)
		t, inT := s.tb.SideSlot(shared)
		switch {
		case inF && inT:
			s.rSeen++
			if s.opt.Keep == nil || s.opt.Keep(v) {
				s.members = append(s.members, member{v, combine(fLo[f], tLo[t]), combine(fUp[f], tUp[t])})
			}
		case inF:
			if c := combine(fUp[f], tu); c > s.outside {
				s.outside = c
			}
		case inT:
			if c := combine(fu, tUp[t]); c > s.outside {
				s.outside = c
			}
		}
	}
	slices.SortFunc(s.members, func(a, b member) int {
		switch {
		case a.lower > b.lower:
			return -1
		case a.lower < b.lower:
			return 1
		case a.node < b.node:
			return -1
		case a.node > b.node:
			return 1
		default:
			return 0
		}
	})
	for _, m := range s.members[min(s.opt.K, len(s.members)):] {
		s.outside = max(s.outside, m.upper)
	}
}

func (s *flatSearcher) ranked() []core.Ranked {
	out := make([]core.Ranked, min(s.opt.K, len(s.members)))
	for i, m := range s.members[:len(out)] {
		out[i] = core.Ranked{Node: m.node, Score: m.lower}
	}
	return out
}
