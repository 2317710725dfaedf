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

// edfDemandAnalysis is a schedulable EDF set whose demand test checks about
// 2000 deadlines, past the guard's first context poll, so a guard can trip
// deep inside it.
func edfDemandAnalysis(t *testing.T) FNPRAnalysis {
	t.Helper()
	a := longFixpointAnalysis(t)
	a.Tasks = task.Set{
		{Name: "fast", C: 0.3, T: 1, Q: 0.25},
		{Name: "slow", C: 9, T: 2000, Q: 0.6},
	}
	return a
}

// rtaCounters are the counters a fixed-priority fixpoint flushes; an EDF
// demand walk flushes only the solver's.
var rtaCounters = []string{"sched.rta.iterations", "sched.rta.solver.iterations"}

// checkRTACountsAtTrip asserts that a guard tripped inside the fixpoint or
// demand walk, after pre steps of effective-WCET bounds, and that the walk
// flushed its iteration counts on the error return: each named counter
// equals the walk's successful ticks (the tick that trips runs no
// iteration).
func checkRTACountsAtTrip(t *testing.T, g *guard.Ctx, reg *obs.Registry, pre int64, names ...string) {
	t.Helper()
	ticks := g.Steps() - 1 - pre
	if ticks <= 0 {
		t.Fatalf("guard tripped after %d steps, before the fixpoint (%d steps of bounds)", g.Steps(), pre)
	}
	for _, name := range names {
		if got := reg.Counter(name).Value(); got != ticks {
			t.Fatalf("%s = %d after the trip, want the %d ticks the RTA charged", name, got, ticks)
		}
	}
}

// TestResponseTimesFPCtxCanceled: a canceled context stops the RTA before it
// runs the fixpoints; the error wraps guard.ErrCanceled. Canceled mid-fixpoint
// it fails the same way, with its counts flushed, under Algorithm 1 and
// Equation 4 bounds, and so does an EDF demand walk.
func TestResponseTimesFPCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := guardedAnalysis(t)
	_, err := a.ResponseTimesFPCtx(guard.New(ctx))
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("canceled context: got %v, want ErrCanceled", err)
	}

	for _, m := range []DelayMethod{Algorithm1, Equation4} {
		long := longFixpointAnalysis(t)
		long.Method = m
		reg, g, pre := cancelPastBounds(t, long)
		if _, err := long.ResponseTimesFPCtx(g); !errors.Is(err, guard.ErrCanceled) {
			t.Fatalf("%v: canceled mid-fixpoint: got %v, want ErrCanceled", m, err)
		}
		checkRTACountsAtTrip(t, g, reg, pre, rtaCounters...)
	}
	edf := edfDemandAnalysis(t)
	for _, monotone := range []bool{true, false} {
		reg, g, pre := cancelPastBounds(t, edf)
		if err := edfDemandWalk(edf, g, monotone); !errors.Is(err, guard.ErrCanceled) {
			t.Fatalf("EDF (monotone %v): canceled mid-walk: got %v, want ErrCanceled", monotone, err)
		}
		checkRTACountsAtTrip(t, g, reg, pre, "sched.rta.solver.iterations")
	}
}

// edfDemandWalk runs a's EDF test through the enumeration (monotone) or
// the QPA walk.
func edfDemandWalk(a FNPRAnalysis, g *guard.Ctx, monotone bool) error {
	cp, err := a.EffectiveWCETsCtx(g)
	if err != nil {
		return err
	}
	_, err = edfSchedulable(g, g.Obs(), a.Tasks, cp, monotone)
	return err
}

// cancelPastBounds returns a guard on a fresh registry whose context is
// canceled at the first poll past the effective-WCET bounds of a.
func cancelPastBounds(t *testing.T, a FNPRAnalysis) (*obs.Registry, *guard.Ctx, int64) {
	t.Helper()
	pre := rtaStepsBefore(t, a)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	reg := obs.NewRegistry()
	// The checkpoint runs just before the amortised context poll, so the
	// first poll past the bounds' steps sees the cancellation.
	g := guard.New(ctx).WithObs(obs.NewScope(reg)).WithCheckpoint(func(steps int64) {
		if steps > pre {
			cancel()
		}
	})
	return reg, g, pre
}

// TestResponseTimesFPCtxBudget: exhausting the step budget mid-RTA yields
// ErrBudgetExceeded — not +Inf response times, not a hang — with the RTA's
// counts flushed, under Algorithm 1 and Equation 4 bounds, and likewise
// mid-way through an EDF demand walk.
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

	for _, m := range []DelayMethod{Algorithm1, Equation4} {
		long := longFixpointAnalysis(t)
		long.Method = m
		pre := rtaStepsBefore(t, long)
		reg := obs.NewRegistry()
		g = guard.New(context.Background()).WithObs(obs.NewScope(reg)).WithBudget(pre + 100)
		if _, err := long.ResponseTimesFPCtx(g); !errors.Is(err, guard.ErrBudgetExceeded) {
			t.Fatalf("%v: budget %d: got %v, want ErrBudgetExceeded", m, pre+100, err)
		}
		checkRTACountsAtTrip(t, g, reg, pre, rtaCounters...)
	}
	edf := edfDemandAnalysis(t)
	pre := rtaStepsBefore(t, edf)
	for _, monotone := range []bool{true, false} {
		reg := obs.NewRegistry()
		g = guard.New(context.Background()).WithObs(obs.NewScope(reg)).WithBudget(pre + 100)
		if err := edfDemandWalk(edf, g, monotone); !errors.Is(err, guard.ErrBudgetExceeded) {
			t.Fatalf("EDF (monotone %v): budget %d: got %v, want ErrBudgetExceeded", monotone, pre+100, err)
		}
		checkRTACountsAtTrip(t, g, reg, pre, "sched.rta.solver.iterations")
	}
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
