package sched

import (
	"math"
	"testing"

	"fnpr/internal/delay"
	"fnpr/internal/task"
)

func TestResponseTimesFPLimitedTightens(t *testing.T) {
	// One rare high-priority task: the count refinement knows lo can be
	// preempted at most twice within its deadline, while plain Algorithm
	// 1 charges a preemption every Q.
	ts := task.Set{
		{Name: "hi", C: 5, T: 100, Q: 5, Prio: 0},
		{Name: "lo", C: 60, T: 300, D: 200, Q: 10, Prio: 1},
	}
	f := delay.Constant(3, 60)
	a := FNPRAnalysis{Tasks: ts, Delay: []delay.Function{nil, f}, Method: Algorithm1}

	plain, err := a.ResponseTimesFP()
	if err != nil {
		t.Fatal(err)
	}
	lim, err := a.ResponseTimesFPLimited()
	if err != nil {
		t.Fatal(err)
	}
	if lim.Response[1] > plain[1] {
		t.Fatalf("limited response %g above plain %g", lim.Response[1], plain[1])
	}
	if lim.Response[1] >= plain[1] {
		t.Fatalf("expected strict improvement: limited %g, plain %g", lim.Response[1], plain[1])
	}
	// The fixpoint count: R_lo ~ 60+3*2+5*ceil(R/100) -> R ~ 76; one
	// release of hi in 76 -> limit 1... iterate: with limit 1, C' = 63,
	// R = 63 + 5 = 68, count(68) = 1. Stable.
	if lim.PreemptionLimit[1] != 1 {
		t.Fatalf("preemption limit = %d, want 1", lim.PreemptionLimit[1])
	}
	if lim.EffectiveC[1] != 63 {
		t.Fatalf("C' = %g, want 63", lim.EffectiveC[1])
	}
	if lim.Response[1] != 68 {
		t.Fatalf("R = %g, want 68", lim.Response[1])
	}
}

func TestResponseTimesFPLimitedHandlesDivergentDelay(t *testing.T) {
	// Delay == Q makes plain Algorithm 1 diverge; the count refinement
	// keeps it finite (at most N preemptions each costing max f).
	ts := task.Set{
		{Name: "hi", C: 5, T: 100, Q: 5, Prio: 0},
		{Name: "lo", C: 40, T: 400, D: 300, Q: 4, Prio: 1},
	}
	f := delay.Constant(4, 40)
	a := FNPRAnalysis{Tasks: ts, Delay: []delay.Function{nil, f}, Method: Algorithm1}
	if _, err := a.ResponseTimesFP(); err == nil {
		t.Fatal("plain analysis should reject the divergent bound")
	}
	lim, err := a.ResponseTimesFPLimited()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(lim.Response[1], 1) {
		t.Fatal("limited analysis should recover a finite response")
	}
	// lo: count at deadline 300 -> 3 releases -> C' = 40 + 12 = 52;
	// R = 52 + 5 = 57 -> count 1 -> C' = 44, R = 49 -> count 1 stable.
	if lim.PreemptionLimit[1] != 1 || lim.EffectiveC[1] != 44 || lim.Response[1] != 49 {
		t.Fatalf("fixpoint = %+v, want limit 1, C'=44, R=49", lim)
	}
}

func TestResponseTimesFPLimitedValidation(t *testing.T) {
	ts := task.Set{{Name: "a", C: 5, T: 20, Q: 2, Prio: 0}}
	a := FNPRAnalysis{Tasks: ts, Delay: []delay.Function{delay.Constant(1, 5)}, Method: Equation4}
	if _, err := a.ResponseTimesFPLimited(); err == nil {
		t.Fatal("accepted Equation4 method")
	}
	a.Method = Algorithm1
	a.Delay = nil
	if _, err := a.ResponseTimesFPLimited(); err == nil {
		t.Fatal("accepted missing delay slice")
	}
	a.Delay = []delay.Function{delay.Constant(1, 99)}
	if _, err := a.ResponseTimesFPLimited(); err == nil {
		t.Fatal("accepted domain mismatch")
	}
	b := FNPRAnalysis{
		Tasks:  task.Set{{Name: "a", C: 5, T: 20, Prio: 0}},
		Delay:  []delay.Function{delay.Constant(1, 5)},
		Method: Algorithm1,
	}
	if _, err := b.ResponseTimesFPLimited(); err == nil {
		t.Fatal("accepted missing Q")
	}
}

func TestResponseTimesFPLimitedNeverWorseThanPlain(t *testing.T) {
	// Across a small family of sets, the refined analysis never yields a
	// larger response time than the plain one.
	base := task.Set{
		{Name: "h1", C: 2, T: 30, Q: 2, Prio: 0},
		{Name: "h2", C: 4, T: 70, Q: 3, Prio: 1},
		{Name: "lo", C: 30, T: 300, D: 250, Q: 6, Prio: 2},
	}
	for _, peak := range []float64{0.5, 1, 2, 4} {
		f := delay.FrontLoaded(peak, peak/4, 30)
		a := FNPRAnalysis{
			Tasks:  base,
			Delay:  []delay.Function{nil, delay.Constant(0.2, 4), f},
			Method: Algorithm1,
		}
		plain, err := a.ResponseTimesFP()
		if err != nil {
			t.Fatal(err)
		}
		lim, err := a.ResponseTimesFPLimited()
		if err != nil {
			t.Fatal(err)
		}
		for i := range plain {
			if lim.Response[i] > plain[i]+1e-9 {
				t.Fatalf("peak %g task %d: limited %g above plain %g",
					peak, i, lim.Response[i], plain[i])
			}
		}
	}
}

func TestResponseTimesFPLimitedAdmitsMore(t *testing.T) {
	// A set the plain analysis rejects but the refinement admits: rare
	// preempters, tight deadline.
	ts := task.Set{
		{Name: "hi", C: 10, T: 200, Q: 10, Prio: 0},
		{Name: "lo", C: 50, T: 400, D: 70, Q: 5, Prio: 1},
	}
	f := delay.Constant(2, 50)
	a := FNPRAnalysis{Tasks: ts, Delay: []delay.Function{nil, f}, Method: Algorithm1}
	plain, err := a.ResponseTimesFP()
	if err != nil {
		t.Fatal(err)
	}
	// plain: Alg1 on const 2, Q=5: progress 3 per window from 5:
	// windows at 5,8,...,47 -> 15 preemptions x 2 = 30. C' = 80 > D=70.
	if !math.IsInf(plain[1], 1) {
		t.Fatalf("plain should reject (R=%v)", plain)
	}
	lim, err := a.ResponseTimesFPLimited()
	if err != nil {
		t.Fatal(err)
	}
	// limit: count at D=70 -> 1 release of hi -> C' = 52, R = 52+10=62
	// -> count(62) = 1, stable. 62 <= 70: schedulable.
	if math.IsInf(lim.Response[1], 1) || lim.Response[1] > 70 {
		t.Fatalf("refined analysis should admit: %+v", lim)
	}
	if !Schedulable(ts, lim.Response) {
		t.Fatal("refined response times should be schedulable")
	}
}

// TestCountAtAllocs pins the preemption count to the release buffers built
// once per analysis: a count allocates nothing.
func TestCountAtAllocs(t *testing.T) {
	ts := task.Set{
		{Name: "a", C: 1, T: 10, Jitter: 1},
		{Name: "b", C: 2, T: 25},
		{Name: "c", C: 5, T: 60},
	}
	rel := newReleases(ts)
	allocs := testing.AllocsPerRun(100, func() {
		if n, err := rel.countAt(2, 50); err != nil || n != 8 {
			t.Fatalf("countAt = %d, %v; want 8", n, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("countAt: %v allocs/op, want 0", allocs)
	}
}
