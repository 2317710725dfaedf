package chaos

import (
	"context"
	"errors"
	"strings"
	"testing"

	"fnpr/internal/core"
	"fnpr/internal/delay"
	"fnpr/internal/guard"
)

func base(t *testing.T) *delay.Piecewise {
	t.Helper()
	f, err := delay.NewPiecewise([]float64{0, 5, 10, 40}, []float64{2, 6, 1})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestPanicAtQTargetsOneGridPoint: the fault fires for the targeted Q on
// every analysis and leaves other grid points untouched.
func TestPanicAtQTargetsOneGridPoint(t *testing.T) {
	f := Wrap(base(t), Fault{PanicAtQ: 20})
	for _, q := range []float64{15, 25} {
		if _, err := core.Analyze(nil, f, q, core.Options{}); err != nil {
			t.Fatalf("untargeted Q=%g failed: %v", q, err)
		}
	}
	for run := 1; run <= 2; run++ {
		_, err := guard.Run(nil, func() string { return "probe" }, func() (float64, error) {
			r, err := core.Analyze(nil, f, 20, core.Options{})
			return r.TotalDelay, err
		})
		if !errors.Is(err, guard.ErrPanic) || !strings.Contains(err.Error(), "chaos: injected panic at Q=20") {
			t.Fatalf("run %d at targeted Q: err = %v, want injected chaos panic", run, err)
		}
	}
	if f.Fired() != 2 {
		t.Fatalf("wrapper fired %d faults, want 2", f.Fired())
	}
}

// TestPanicFallbackHitsOnlyEq4: the full-domain MaxOn query panics while the
// Algorithm 1 walk (windows starting at Q > 0) runs clean.
func TestPanicFallbackHitsOnlyEq4(t *testing.T) {
	f := Wrap(base(t), Fault{PanicFallback: true})
	if _, err := core.Analyze(nil, f, 20, core.Options{}); err != nil {
		t.Fatalf("Algorithm 1 walk hit the fallback fault: %v", err)
	}
	_, err := guard.Run(nil, func() string { return "fallback" }, func() (float64, error) {
		r, err := core.Analyze(nil, f, 20, core.Options{Method: core.Equation4})
		return r.TotalDelay, err
	})
	if !errors.Is(err, guard.ErrPanic) || !strings.Contains(err.Error(), "Eq.4 fallback") {
		t.Fatalf("fallback err = %v, want injected fallback panic", err)
	}
}

// TestBurnExhaustsSharedBudget: per-query step burn trips the guard budget
// inside the analysis.
func TestBurnExhaustsSharedBudget(t *testing.T) {
	g := guard.New(context.Background()).WithBudget(50)
	f := Wrap(base(t), Fault{Burn: 40, Guard: g})
	_, err := core.Analyze(g, f, 20, core.Options{})
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("burned analysis: err = %v, want ErrBudgetExceeded", err)
	}
}

// TestCancelAfterQueries: delayed cancellation lands mid-analysis.
func TestCancelAfterQueries(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := guard.New(ctx)
	f := Wrap(base(t), Fault{CancelAfter: 2, Cancel: cancel})
	// A couple of grid points: the first queries pass, then the cancel
	// fires and a later poll observes it.
	var lastErr error
	for _, q := range []float64{15, 20, 25, 30} {
		if _, err := core.Analyze(g, f, q, core.Options{}); err != nil {
			lastErr = err
			break
		}
	}
	if !errors.Is(lastErr, guard.ErrCanceled) {
		t.Fatalf("delayed cancel: err = %v, want ErrCanceled", lastErr)
	}
	if f.Fired() != 1 {
		t.Fatalf("fired %d, want 1 (the cancel)", f.Fired())
	}
}

// TestZeroFaultIsTransparent: a zero Fault wrapper changes nothing but
// counts queries.
func TestZeroFaultIsTransparent(t *testing.T) {
	f := Wrap(base(t), Fault{})
	cr, err := core.Analyze(nil, base(t), 20, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	clean := cr.TotalDelay
	gr, err := core.Analyze(nil, f, 20, core.Options{})
	if err != nil || gr.TotalDelay != clean {
		t.Fatalf("wrapped bound (%g, %v), want (%g, nil)", gr.TotalDelay, err, clean)
	}
	if f.queries.Load() == 0 {
		t.Fatal("query counter did not advance")
	}
	if f.Fired() != 0 {
		t.Fatalf("zero fault fired %d times", f.Fired())
	}
}
