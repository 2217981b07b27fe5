// Package fan is the tree's one fan-out: a fixed set of indexed tasks run on a
// bounded number of goroutines under one failure rule. The F-Rank/T-Rank pair
// of core.Solve, a local gather's row chunks, a fleet's per-worker gathers and
// row waves, a RankBatch and an evaluation task all run through Do.
package fan

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Do runs task(ctx, i) for every i in [0, n), handing out indices in order to
// at most workers goroutines, the caller being one of them; a single task, or
// a single worker, runs on the caller alone, and one task allocates nothing.
// A task starts only while its context is live: the first failure cancels the
// context every task runs under, so siblings can abandon their work, and no
// task starts after it.
//
// Do returns ctx.Err() once ctx has ended, even when every task finished.
// Otherwise it returns the lowest-indexed error that is not context.Canceled —
// a root cause rather than a sibling that died of the cancellation — else the
// lowest-indexed error, else nil.
func Do(ctx context.Context, n, workers int, task func(ctx context.Context, i int) error) error {
	workers = min(workers, n)
	if workers <= 1 {
		var err error
		for i := 0; i < n && err == nil && ctx.Err() == nil; i++ {
			err = task(ctx, i)
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return err
	}

	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	run := func() {
		for fctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := task(fctx, i); err != nil {
				errs[i] = err
				cancel()
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return err
	}
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}
