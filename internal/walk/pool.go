package walk

import (
	"runtime"
	"sync"
)

// Pool is a reusable set of worker goroutines that execute contiguous
// row-range tasks for the parallel sparse kernels. A Pool with one worker
// runs everything inline on the calling goroutine and spawns nothing.
//
// Kernel results are independent of the worker count: each row of the matvec
// is reduced sequentially by exactly one worker, so partitioning changes only
// who computes a row, never the floating-point operation order within it.
type Pool struct {
	workers int
	tasks   chan rangeTask

	closeOnce sync.Once
}

type rangeTask struct {
	fn     func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

// NewPool creates a pool with the given number of workers; zero or negative
// means GOMAXPROCS. workers-1 goroutines are spawned: the calling goroutine
// always executes the first chunk of every Run itself.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.tasks = make(chan rangeTask)
		for i := 0; i < workers-1; i++ {
			go p.worker()
		}
	}
	return p
}

func (p *Pool) worker() {
	for t := range p.tasks {
		t.fn(t.lo, t.hi)
		t.wg.Done()
	}
}

// Run partitions [0, n) into up to Workers contiguous ranges and executes
// fn(lo, hi) on each, blocking until all complete. The first range runs on the
// calling goroutine. fn must not call Run on the same pool (the workers would
// deadlock waiting on each other).
func (p *Pool) Run(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	k := p.workers
	if k > n {
		k = n
	}
	if k <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + k - 1) / k
	var wg sync.WaitGroup
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		p.tasks <- rangeTask{fn: fn, lo: lo, hi: hi, wg: &wg}
	}
	fn(0, chunk)
	wg.Wait()
}

// Close stops the pool's workers. Run must not be called after Close. Closing
// the shared default pool is not allowed; Close on it is a no-op there because
// DefaultPool never exposes it.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		if p.tasks != nil {
			close(p.tasks)
		}
	})
}

var (
	defaultPoolOnce sync.Once
	defaultPool     *Pool
)

// DefaultPool returns the process-wide kernel pool, created on first use and
// sized by GOMAXPROCS at that moment. It is never closed.
func DefaultPool() *Pool {
	defaultPoolOnce.Do(func() {
		defaultPool = NewPool(0)
	})
	return defaultPool
}

// poolFor resolves a Params.Workers override: the shared default pool when
// zero or negative, otherwise a transient pool that the returned release
// function tears down.
func poolFor(workers int) (*Pool, func()) {
	if workers <= 0 {
		return DefaultPool(), func() {}
	}
	tp := NewPool(workers)
	return tp, tp.Close
}
