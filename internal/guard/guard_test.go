package guard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
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
	g := New(nil)
	g.deadline = time.Now().Add(-time.Second)
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

// TestTickNMatchesTicks pins TickN(n) to n calls of Tick that stop at the
// first error: the same step count and the same error text, for batches
// inside the budget, crossing it, ending on it and on a spent budget.
func TestTickNMatchesTicks(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	for trial := 0; trial < 5000; trial++ {
		budget := int64(1 + r.Intn(40))
		prefix := r.Intn(60)
		n := int64(r.Intn(60))
		batch, single := New(nil).WithBudget(budget), New(nil).WithBudget(budget)
		for i := 0; i < prefix; i++ {
			_, _ = batch.Tick(), single.Tick()
		}
		got := batch.TickN(n)
		var want error
		for i := int64(0); i < n && want == nil; i++ {
			want = single.Tick()
		}
		if errText(got) != errText(want) || batch.Steps() != single.Steps() {
			t.Fatalf("budget %d, prefix %d: TickN(%d) = %q after %d steps, %d Ticks = %q after %d",
				budget, prefix, n, errText(got), batch.Steps(), n, errText(want), single.Steps())
		}
	}
}

// TestTickNNeverOvergrants shares one budget between goroutines that mix
// Tick and TickN: the steps of the calls that succeeded never add up to
// more than the budget, whatever the interleaving of the batch roll-backs,
// and the counter ends where single Ticks would have left it.
func TestTickNNeverOvergrants(t *testing.T) {
	const budget = 20_000
	for round := 0; round < 20; round++ {
		g := New(context.Background()).WithBudget(budget)
		var granted atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			r := rand.New(rand.NewSource(int64(round*4 + w)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					n := int64(1)
					var err error
					if r.Intn(2) == 0 {
						err = g.Tick()
					} else {
						n = int64(1 + r.Intn(300))
						err = g.TickN(n)
					}
					if err != nil {
						if !errors.Is(err, ErrBudgetExceeded) {
							t.Errorf("unexpected error %v", err)
						}
						return
					}
					granted.Add(n)
				}
			}()
		}
		wg.Wait()
		if got := granted.Load(); got > budget {
			t.Fatalf("round %d: granted %d steps on a budget of %d", round, got, budget)
		}
		// The first call past the budget charges up to budget+1 and every
		// later one (each worker's last) charges 1, as single Ticks would.
		if s := g.Steps(); s != budget+4 {
			t.Fatalf("round %d: %d steps charged after 4 workers hit a budget of %d, want %d", round, s, budget, budget+4)
		}
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
