package sched

import (
	"context"
	"errors"
	"math"
	"testing"

	"fnpr/internal/delay"
	"fnpr/internal/guard"
	"fnpr/internal/obs"
	"fnpr/internal/task"
)

func guardedAnalysis(t *testing.T) FNPRAnalysis {
	t.Helper()
	ts := task.Set{
		{Name: "a", C: 1, T: 4, Q: 1},
		{Name: "b", C: 2, T: 8, Q: 1},
		{Name: "c", C: 4, T: 16, Q: 2},
	}
	ts.AssignRateMonotonic()
	fn, err := delay.NewFrontLoaded(0.5, 0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	return FNPRAnalysis{
		Tasks:  ts,
		Delay:  []delay.Function{nil, nil, fn},
		Method: Algorithm1,
	}
}

// longFixpointAnalysis has a lowest-priority task whose monotone fixpoint
// climbs slowly under a preempter of utilization 0.99: about 290 steps, past
// the guard's first context poll, so a guard can trip deep inside it.
func longFixpointAnalysis(t *testing.T) FNPRAnalysis {
	t.Helper()
	ts := task.Set{
		{Name: "fast", C: 0.99, T: 1, Q: 0.5},
		{Name: "slow", C: 9, T: 2000, Q: 2},
	}
	fn, err := delay.NewFrontLoaded(0.5, 0.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	return FNPRAnalysis{Tasks: ts, Delay: []delay.Function{nil, fn}, Method: Algorithm1}
}

// rtaStepsBefore returns the guard steps the analysis charges before its
// fixpoint starts: the effective-WCET bounds.
func rtaStepsBefore(t *testing.T, a FNPRAnalysis) int64 {
	t.Helper()
	g := guard.New(context.Background())
	if _, err := a.EffectiveWCETsCtx(g); err != nil {
		t.Fatal(err)
	}
	return g.Steps()
}

// checkRTACountsAtTrip asserts that a guard tripped inside the fixpoint,
// after pre steps of effective-WCET bounds, and that the RTA flushed its
// iteration counts on the error return: both counters equal the RTA's
// successful ticks (the tick that trips runs no iteration).
func checkRTACountsAtTrip(t *testing.T, g *guard.Ctx, reg *obs.Registry, pre int64) {
	t.Helper()
	ticks := g.Steps() - 1 - pre
	if ticks <= 0 {
		t.Fatalf("guard tripped after %d steps, before the fixpoint (%d steps of bounds)", g.Steps(), pre)
	}
	for _, name := range []string{"sched.rta.iterations", "sched.rta.solver.iterations"} {
		if got := reg.Counter(name).Value(); got != ticks {
			t.Fatalf("%s = %d after the trip, want the %d ticks the RTA charged", name, got, ticks)
		}
	}
}

// TestResponseTimesFPCtxCanceled: a canceled context stops the RTA before it
// runs the fixpoints; the error wraps guard.ErrCanceled. Canceled mid-fixpoint
// it fails the same way, with its counts flushed.
func TestResponseTimesFPCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := guardedAnalysis(t)
	_, err := a.ResponseTimesFPCtx(guard.New(ctx))
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("canceled context: got %v, want ErrCanceled", err)
	}

	long := longFixpointAnalysis(t)
	pre := rtaStepsBefore(t, long)
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	reg := obs.NewRegistry()
	// The checkpoint runs just before the amortised context poll, so the
	// first poll past the bounds' steps sees the cancellation.
	g := guard.New(ctx).WithObs(obs.NewScope(reg)).WithCheckpoint(func(steps int64) {
		if steps > pre {
			cancel()
		}
	})
	if _, err := long.ResponseTimesFPCtx(g); !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("canceled mid-fixpoint: got %v, want ErrCanceled", err)
	}
	checkRTACountsAtTrip(t, g, reg, pre)
}

// TestResponseTimesFPCtxBudget: exhausting the step budget mid-RTA yields
// ErrBudgetExceeded — not +Inf response times, not a hang — with the RTA's
// counts flushed.
func TestResponseTimesFPCtxBudget(t *testing.T) {
	a := guardedAnalysis(t)
	g := guard.New(context.Background()).WithBudget(1)
	rts, err := a.ResponseTimesFPCtx(g)
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("budget 1: got %v, want ErrBudgetExceeded", err)
	}
	for i, r := range rts {
		if math.IsInf(r, 1) {
			t.Fatalf("budget exhaustion returned +Inf at index %d instead of failing", i)
		}
	}

	long := longFixpointAnalysis(t)
	pre := rtaStepsBefore(t, long)
	reg := obs.NewRegistry()
	g = guard.New(context.Background()).WithObs(obs.NewScope(reg)).WithBudget(pre + 100)
	if _, err := long.ResponseTimesFPCtx(g); !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("budget %d: got %v, want ErrBudgetExceeded", pre+100, err)
	}
	checkRTACountsAtTrip(t, g, reg, pre)
}

func TestSchedulableEDFCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := guardedAnalysis(t)
	a.Tasks = append(task.Set{}, a.Tasks...)
	_, err := a.SchedulableEDFCtx(guard.New(ctx))
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("canceled context: got %v, want ErrCanceled", err)
	}
}
