package fan

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

// awaitCancel blocks until ctx ends and returns its error. The wait is bounded
// so that a task nobody cancels fails the test instead of hanging it.
func awaitCancel(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(10 * time.Second):
		return errors.New("the task's context was never cancelled")
	}
}

// TestReturnRule pins which error Do reports, on three workers for three
// tasks, so every task that starts runs beside the others.
func TestReturnRule(t *testing.T) {
	cases := []struct {
		name string
		// parent returns the context Do is called under and its cancel.
		parent  func() (context.Context, context.CancelFunc)
		task    func(ctx context.Context, i int, cancelParent context.CancelFunc) error
		want    error  // matched with errors.Is; nil means success
		msg     string // the exact message of the returned error
		noStart bool   // no task may start
	}{
		{
			name:   "no error",
			parent: background,
			task:   func(context.Context, int, context.CancelFunc) error { return nil },
		},
		{
			name:   "root cause beats lower-indexed casualties",
			parent: background,
			task: func(ctx context.Context, i int, _ context.CancelFunc) error {
				if i == 2 {
					return fmt.Errorf("task 2: %w", errBoom)
				}
				return fmt.Errorf("task %d: %w", i, awaitCancel(ctx))
			},
			want: errBoom,
			msg:  "task 2: boom",
		},
		{
			name:   "only casualties: the lowest-indexed",
			parent: background,
			task: func(ctx context.Context, i int, _ context.CancelFunc) error {
				if i == 0 {
					return fmt.Errorf("task 0: %w", context.Canceled)
				}
				return fmt.Errorf("task %d: %w", i, awaitCancel(ctx))
			},
			want: context.Canceled,
			msg:  "task 0: context canceled",
		},
		{
			name: "parent cancelled before the call",
			parent: func() (context.Context, context.CancelFunc) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				return ctx, cancel
			},
			task:    func(context.Context, int, context.CancelFunc) error { return nil },
			want:    context.Canceled,
			msg:     "context canceled",
			noStart: true,
		},
		{
			name:   "parent cancelled during the call",
			parent: func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) },
			task: func(ctx context.Context, i int, cancelParent context.CancelFunc) error {
				if i == 0 {
					cancelParent()
					return nil
				}
				// A real error after the parent ended still loses to it.
				_ = awaitCancel(ctx)
				return errBoom
			},
			want: context.Canceled,
			msg:  "context canceled",
		},
		{
			name: "parent deadline exceeded",
			parent: func() (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), 10*time.Millisecond)
			},
			task: func(ctx context.Context, _ int, _ context.CancelFunc) error {
				_ = awaitCancel(ctx)
				return errBoom
			},
			want: context.DeadlineExceeded,
			msg:  "context deadline exceeded",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := tc.parent()
			defer cancel()
			var started atomic.Int32
			err := Do(ctx, 3, 3, func(ctx context.Context, i int) error {
				started.Add(1)
				return tc.task(ctx, i, cancel)
			})
			if tc.noStart && started.Load() != 0 {
				t.Errorf("%d tasks started", started.Load())
			}
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Do = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.want) || err.Error() != tc.msg {
				t.Fatalf("Do = %v, want %q (%v)", err, tc.msg, tc.want)
			}
		})
	}
}

func background() (context.Context, context.CancelFunc) {
	return context.Background(), func() {}
}

// startLog records which task indices started.
type startLog struct {
	mu      sync.Mutex
	started []int
}

func (l *startLog) add(i int) {
	l.mu.Lock()
	l.started = append(l.started, i)
	l.mu.Unlock()
}

// TestNoTaskStartsAfterFailure checks that a failure stops new tasks from
// starting: serially, the tasks after the failing one never run; in
// parallel, only the tasks already handed out when the failure came run — the
// first `workers` indices, since every other one blocks until the failure
// cancels it.
func TestNoTaskStartsAfterFailure(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		var log startLog
		err := Do(context.Background(), 10, 1, func(_ context.Context, i int) error {
			log.add(i)
			if i == 3 {
				return errBoom
			}
			return nil
		})
		if !errors.Is(err, errBoom) {
			t.Fatalf("Do = %v, want errBoom", err)
		}
		if fmt.Sprint(log.started) != "[0 1 2 3]" {
			t.Fatalf("started %v, want [0 1 2 3]", log.started)
		}
	})
	t.Run("parallel", func(t *testing.T) {
		const n, workers = 100, 4
		for rep := 0; rep < 50; rep++ {
			var log startLog
			err := Do(context.Background(), n, workers, func(ctx context.Context, i int) error {
				log.add(i)
				if i == 0 {
					return errBoom
				}
				return awaitCancel(ctx)
			})
			if !errors.Is(err, errBoom) {
				t.Fatalf("rep %d: Do = %v, want errBoom", rep, err)
			}
			zero := false
			for _, i := range log.started {
				if i >= workers {
					t.Fatalf("rep %d: task %d started after the failure (started %v)", rep, i, log.started)
				}
				zero = zero || i == 0
			}
			if !zero {
				t.Fatalf("rep %d: the failing task never started (started %v)", rep, log.started)
			}
		}
	})
}

// TestAtMostWorkersRunAtOnce runs more tasks than workers and checks that no
// more than workers tasks overlap while every task runs exactly once.
func TestAtMostWorkersRunAtOnce(t *testing.T) {
	const n, workers = 64, 3
	var running, peak atomic.Int32
	runs := make([]int32, n)
	err := Do(context.Background(), n, workers, func(_ context.Context, i int) error {
		now := running.Add(1)
		for {
			p := peak.Load()
			if now <= p || peak.CompareAndSwap(p, now) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		runs[i]++
		running.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatalf("Do = %v", err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("%d tasks ran at once, want at most %d", p, workers)
	}
	for i, c := range runs {
		if c != 1 {
			t.Fatalf("task %d ran %d times", i, c)
		}
	}
}

// TestSingleTaskRunsOnCaller pins the cheap path a one-chunk gather takes: one
// task runs on the caller, whatever the worker count, and allocates nothing —
// no derived context, no goroutine.
func TestSingleTaskRunsOnCaller(t *testing.T) {
	ctx := context.Background()
	calls := 0
	task := func(context.Context, int) error { calls++; return nil }
	for _, workers := range []int{1, 4} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := Do(ctx, 1, workers, task); err != nil {
				t.Fatalf("Do = %v", err)
			}
		})
		if allocs != 0 {
			t.Errorf("workers=%d: one task allocated %v times per call, want 0", workers, allocs)
		}
	}
	if calls == 0 {
		t.Fatalf("the task never ran")
	}
}

// TestNoTasksReturnAtOnce checks that n = 0 calls nothing and succeeds.
func TestNoTasksReturnAtOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		err := Do(context.Background(), 0, workers, func(context.Context, int) error {
			t.Errorf("workers=%d: a task ran for n = 0", workers)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: Do = %v", workers, err)
		}
	}
}
