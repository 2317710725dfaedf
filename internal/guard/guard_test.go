package guard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilCtxIsUnlimited(t *testing.T) {
	var g *Ctx
	if err := g.Err(); err != nil {
		t.Fatalf("nil Ctx Err = %v", err)
	}
	for i := 0; i < 10_000; i++ {
		if err := g.Tick(); err != nil {
			t.Fatalf("nil Ctx Tick = %v", err)
		}
	}
	if g.Steps() != 0 {
		t.Fatalf("nil Ctx Steps = %d", g.Steps())
	}
	if g.Remaining() != -1 {
		t.Fatalf("nil Ctx Remaining = %d", g.Remaining())
	}
}

func TestBudgetExhaustion(t *testing.T) {
	g := New(context.Background()).WithBudget(100)
	var err error
	n := 0
	for ; n < 1000; n++ {
		if err = g.Tick(); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v after %d ticks", err, n)
	}
	if n != 100 {
		t.Fatalf("budget of 100 tripped at tick %d", n)
	}
	if g.Remaining() != 0 {
		t.Fatalf("Remaining after exhaustion = %d", g.Remaining())
	}
}

func TestCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := New(ctx)
	if err := g.Err(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Err on canceled ctx = %v", err)
	}
	// Tick polls every pollEvery steps, so within pollEvery+1 ticks the
	// cancellation must surface.
	var err error
	for i := 0; i <= pollEvery; i++ {
		if err = g.Tick(); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Tick never observed cancellation: %v", err)
	}
}

func TestDeadline(t *testing.T) {
	g := New(nil).WithDeadline(time.Now().Add(-time.Second))
	if err := g.Err(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("expired deadline: Err = %v", err)
	}
	g2 := New(nil).WithTimeout(time.Hour)
	if err := g2.Err(); err != nil {
		t.Fatalf("distant deadline: Err = %v", err)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	got, err := Run(nil, func() string { return "poisoned" }, func() (int, error) {
		panic("boom")
	})
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("want ErrPanic, got %v", err)
	}
	if got != 0 {
		t.Fatalf("panicking Run returned %d, want zero value", got)
	}
	if want := "poisoned"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not carry label %q", err, want)
	}
}

func TestRunPassesThroughResults(t *testing.T) {
	labels := 0
	label := func() string { labels++; return "unused" }
	got, err := Run(nil, label, func() (string, error) { return "v", nil })
	if err != nil || got != "v" {
		t.Fatalf("Run = %q, %v", got, err)
	}
	sentinel := errors.New("inner")
	_, err = Run(nil, label, func() (string, error) { return "", sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run did not pass through the inner error: %v", err)
	}
	if labels != 0 {
		t.Fatalf("label built %d times without a panic, want 0", labels)
	}
}

func TestRunChecksScopeBeforeEntering(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	entered := false
	_, err := Run(New(ctx), func() string { return "never" }, func() (int, error) {
		entered = true
		return 1, nil
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if entered {
		t.Fatal("closure entered under a canceled scope")
	}
}

func TestSharedBudgetAcrossGoroutines(t *testing.T) {
	g := New(context.Background()).WithBudget(10_000)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := g.Tick(); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	// Each worker over-charges by at most one step past the budget.
	if s := g.Steps(); s > 10_000+8 {
		t.Fatalf("steps %d wildly past shared budget", s)
	}
}

func TestCheckpointCallback(t *testing.T) {
	var calls int64
	g := New(context.Background()).WithCheckpoint(func(steps int64) { calls = steps })
	for i := 0; i < 3*pollEvery; i++ {
		if err := g.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if calls == 0 {
		t.Fatal("checkpoint callback never invoked")
	}
}

func TestErrorHelpers(t *testing.T) {
	cases := []struct {
		err  error
		want error
	}{
		{Invalidf("C is %g", 1.0), ErrInvalidInput},
		{Divergedf("fixpoint at Q=%g", 2.0), ErrDiverged},
		{Budgetf("%d nodes", 3), ErrBudgetExceeded},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.want) {
			t.Errorf("%v does not wrap %v", c.err, c.want)
		}
	}
	if !Abortive(fmt.Errorf("wrapped: %w", ErrCanceled)) {
		t.Error("ErrCanceled should be abortive")
	}
	if Abortive(ErrBudgetExceeded) || Abortive(ErrPanic) {
		t.Error("budget/panic errors must not abort whole sweeps")
	}
}
