package eval

import (
	"runtime"
	"sync"
	"sync/atomic"

	"fnpr/internal/guard"
)

// runPool is the campaigns' worker pool: it runs item(lane, i) for every i
// in [0, n) on up to workers goroutines and returns the first error. Each
// worker builds its own state through newWorker (a pooled explorer, a
// simulator, a shard stream), claims the next index with one atomic add and
// charges g through its own lane (guard.Ctx.Lane), so no channel send and no
// shared step counter sits on the per-item path; the lanes give their
// unspent leases back as the workers finish. An error stops every worker
// before its next claim. So does a cancellation of g: before each item a
// worker takes one non-blocking receive on g.Done(), which reads no clock,
// so a cancel lands at the next item even when the items are too short for
// a lane to reach its next poll. With one worker the items run in index
// order on the caller's goroutine.
//
// A worker yields once per item. The trial loops allocate but rarely reach
// a scheduling point of their own, and without the yield a GC cycle's mark
// worker waits for them: marks run long, and everything allocated during a
// mark counts as live, so the live heap grows.
func runPool(g *guard.Ctx, workers, n int, newWorker func() func(lane *guard.Ctx, i int) error) error {
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		first  error
	)
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
		failed.Store(true)
	}
	done := g.Done()
	work := func() {
		lane := g.Lane()
		defer lane.Close()
		item := newWorker()
		for !failed.Load() {
			i := next.Add(1) - 1
			if i >= int64(n) {
				return
			}
			select {
			case <-done:
				fail(g.Err())
				return
			default:
			}
			if err := item(lane, int(i)); err != nil {
				fail(err)
				return
			}
			runtime.Gosched()
		}
	}
	if workers = min(workers, n); workers <= 1 {
		work()
		return first
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return first
}
