package sim

import (
	"math/rand"
	"testing"

	"fnpr/internal/core"
	"fnpr/internal/delay"
	"fnpr/internal/sched"
	"fnpr/internal/task"
)

// TestAlgorithm1BoundsSimulatedDelay is the end-to-end Theorem 1 check:
// across randomized task sets, release patterns and delay functions, no job
// in a floating-NPR schedule ever pays more cumulative preemption delay than
// Algorithm 1's bound for its task.
func TestAlgorithm1BoundsSimulatedDelay(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(3)
		ts := make(task.Set, 0, n)
		fns := make([]delay.Function, 0, n)
		for i := 0; i < n; i++ {
			c := 5 + r.Float64()*30
			period := c*2 + r.Float64()*100
			maxD := 0.5 + r.Float64()*2
			q := maxD + 1 + r.Float64()*6
			if q > c {
				q = c
			}
			ts = append(ts, task.Task{
				Name: string(rune('a' + i)),
				C:    c, T: period, Q: q, Prio: i,
			})
			// Random peaked delay function on [0, c].
			k := 1 + r.Intn(5)
			xs := []float64{0}
			for j := 1; j < k; j++ {
				xs = append(xs, xs[len(xs)-1]+c/float64(k)*(0.5+r.Float64()))
			}
			if xs[len(xs)-1] >= c {
				xs = []float64{0}
			}
			xs = append(xs, c)
			vs := make([]float64, len(xs)-1)
			for j := range vs {
				vs[j] = r.Float64() * maxD
			}
			f, err := delay.NewPiecewise(xs, vs)
			if err != nil {
				t.Fatal(err)
			}
			fns = append(fns, f)
		}
		policy := FixedPriority
		if trial%2 == 1 {
			policy = EDF
		}
		res, err := Run(nil, Config{
			Tasks: ts, Policy: policy, Mode: FloatingNPR,
			Horizon: 2000, Delay: fns,
		})
		if err != nil {
			t.Fatal(err)
		}
		bounds := make([]float64, n)
		for i := range ts {
			b, err := core.Analyze(nil, fns[i], ts[i].Q, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			bounds[i] = b.TotalDelay
		}
		for _, j := range res.Jobs {
			if j.DelayPaid > bounds[j.Task]+1e-9 {
				t.Fatalf("trial %d (%v): job %d/%d paid %g > bound %g (Q=%g)",
					trial, policy, j.Task, j.Job, j.DelayPaid, bounds[j.Task], ts[j.Task].Q)
			}
		}
	}
}

// TestSimulatedPreemptionCountMatchesTraceEvents cross-checks internal
// bookkeeping: per-task preemption counts equal the number of EvPreempt
// events, and every preempted job later resumes or the horizon ends.
func TestSimulatedPreemptionCountMatchesTraceEvents(t *testing.T) {
	ts := task.Set{
		{Name: "h", C: 1, T: 6, Q: 1, Prio: 0},
		{Name: "lo", C: 17, T: 60, Q: 3, Prio: 1},
	}
	res, err := Run(nil, Config{Tasks: ts, Policy: FixedPriority, Mode: FloatingNPR, Horizon: 600})
	if err != nil {
		t.Fatal(err)
	}
	count := make([]int, len(ts))
	for _, e := range res.Events {
		if e.Kind == EvPreempt {
			count[e.Task]++
		}
	}
	for i, st := range res.Tasks {
		if st.Preemptions != count[i] {
			t.Fatalf("task %d: stat %d vs events %d", i, st.Preemptions, count[i])
		}
	}
	if count[1] == 0 {
		t.Fatal("no preemptions; scenario too weak")
	}
}

// TestDelayAwareRTAMatchesSimulation: the FNPR response-time analysis of
// package sched upper-bounds the simulator's observed response times. (Done
// here rather than in sched to avoid an import cycle in test helpers.)
func TestObservedResponseWithinAnalysis(t *testing.T) {
	ts := task.Set{
		{Name: "hi", C: 3, T: 20, Q: 3, Prio: 0},
		{Name: "lo", C: 10, T: 50, Q: 4, Prio: 1},
	}
	fns := []delay.Function{nil, delay.Constant(1, 10)}
	res, err := Run(nil, Config{
		Tasks: ts, Policy: FixedPriority, Mode: FloatingNPR,
		Horizon: 1000, Delay: fns,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Analytical C' for lo: Alg1 on const 1, Q=4, C=10: pnext=4 -> charge
	// 1 at 4, pnext=7 -> charge 1, pnext=10 -> stop. Bound 2. C'=12.
	// R_lo = 12 + ceil(R/20)*3 -> 15. R_hi = 3 + blocking min(4,12) = 7.
	if res.Tasks[0].MaxResponse > 7+1e-9 {
		t.Fatalf("hi observed response %g exceeds analytical 7", res.Tasks[0].MaxResponse)
	}
	if res.Tasks[1].MaxResponse > 15+1e-9 {
		t.Fatalf("lo observed response %g exceeds analytical 15", res.Tasks[1].MaxResponse)
	}
}

// TestEDFAnalysisAdmitsImplySimulationMeetsDeadlines: any random set the
// delay-aware EDF test admits must run without deadline misses in the
// simulator under synchronous release (a necessary-condition check; the
// converse need not hold).
func TestEDFAnalysisAdmitsImplySimulationMeetsDeadlines(t *testing.T) {
	r := rand.New(rand.NewSource(606))
	admitted := 0
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(3)
		ts := make(task.Set, 0, n)
		fns := make([]delay.Function, n)
		for i := 0; i < n; i++ {
			c := 2 + r.Float64()*15
			ts = append(ts, task.Task{
				Name: string(rune('a' + i)),
				C:    c,
				T:    c*float64(n)*1.5 + r.Float64()*60,
				Q:    1 + r.Float64()*3,
			})
			if i > 0 {
				peak := ts[i].Q * 0.6
				fns[i] = delay.FrontLoaded(peak, peak/4, c)
			}
		}
		ar, err := sched.Analyze(nil, ts, sched.Options{Policy: sched.EDF, Delay: fns, Method: sched.Algorithm1})
		if err != nil || !ar.Schedulable {
			continue
		}
		admitted++
		res, err := Run(nil, Config{
			Tasks: ts, Policy: EDF, Mode: FloatingNPR,
			Horizon: 3000, Delay: fns,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range res.Tasks {
			if st.Missed > 0 {
				t.Fatalf("trial %d: analysis admitted but task %d missed %d deadlines (set %v)",
					trial, i, st.Missed, ts)
			}
		}
	}
	if admitted < 5 {
		t.Fatalf("only %d sets admitted; experiment too weak", admitted)
	}
}
