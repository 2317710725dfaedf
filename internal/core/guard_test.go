package core

import (
	"context"
	"errors"
	"testing"

	"fnpr/internal/delay"
	"fnpr/internal/guard"
)

// fig2Function is the Figure 2 three-peak function: Algorithm 1 needs ~20
// iterations at Q=10 (each window advances the progression by 2), which makes
// it a good subject for budget and cancellation tests.
func fig2Function(t *testing.T) *delay.Piecewise {
	t.Helper()
	f, err := delay.NewPiecewise(
		[]float64{0, 10, 12, 19, 21, 28, 30, 40},
		[]float64{0, 8, 0, 8, 0, 8, 0},
	)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestUpperBoundCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := guard.New(ctx)
	_, err := UpperBoundCtx(g, fig2Function(t), 10)
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("canceled context: got %v, want ErrCanceled", err)
	}
}

// TestUpperBoundCtxBudget verifies the walk stops mid-iteration when the step
// budget runs out: the error wraps ErrBudgetExceeded (no +Inf masquerading as
// a bound, no hang) and strictly fewer steps than a full run were charged.
func TestUpperBoundCtxBudget(t *testing.T) {
	f := fig2Function(t)

	full := guard.New(context.Background())
	if _, err := UpperBoundTraceCtx(full, f, 10); err != nil {
		t.Fatal(err)
	}
	if full.Steps() < 5 {
		t.Fatalf("full run charged only %d steps; fixture too small for a budget test", full.Steps())
	}

	g := guard.New(context.Background()).WithBudget(2)
	_, err := UpperBoundCtx(g, f, 10)
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("budget 2: got %v, want ErrBudgetExceeded", err)
	}
	if g.Steps() >= full.Steps() {
		t.Fatalf("budgeted run charged %d steps, full run %d: did not stop early", g.Steps(), full.Steps())
	}
}

func TestStateOfTheArtCtxBudget(t *testing.T) {
	g := guard.New(context.Background()).WithBudget(1)
	_, err := StateOfTheArtCtx(g, fig2Function(t), 10)
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("budget 1: got %v, want ErrBudgetExceeded", err)
	}
}
