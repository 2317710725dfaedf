package eval

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"fnpr/internal/guard"
)

// TestRunPoolStopsAtCancel: a cancel made inside item k stops the pool
// before item k+workers, although no item charges the guard a step, so no
// lane poll can see it. Items past k wait for the cancel, so none of them
// finishes before it; a worker holding one runs it and then stops.
func TestRunPoolStopsAtCancel(t *testing.T) {
	const n, k = 64, 5
	for _, workers := range []int{1, 2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		canceled := make(chan struct{})
		ran := make([]atomic.Bool, n)
		err := runPool(guard.New(ctx), workers, n, func() func(*guard.Ctx, int) error {
			return func(_ *guard.Ctx, i int) error {
				ran[i].Store(true)
				switch {
				case i == k:
					cancel()
					close(canceled)
				case i > k:
					<-canceled
				}
				return nil
			}
		})
		if !errors.Is(err, guard.ErrCanceled) {
			t.Fatalf("workers=%d: err = %v, want ErrCanceled", workers, err)
		}
		for i := 0; i <= k; i++ {
			if !ran[i].Load() {
				t.Fatalf("workers=%d: item %d did not run", workers, i)
			}
		}
		for i := k + workers; i < n; i++ {
			if ran[i].Load() {
				t.Fatalf("workers=%d: item %d ran after the cancel in item %d", workers, i, k)
			}
		}
	}
}
