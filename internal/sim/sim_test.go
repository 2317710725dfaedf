package sim

import (
	"math"
	"strings"
	"testing"

	"fnpr/internal/delay"
	"fnpr/internal/task"
)

func twoTasks() task.Set {
	ts := task.Set{
		{Name: "hi", C: 2, T: 10, Q: 1},
		{Name: "lo", C: 12, T: 40, Q: 3},
	}
	ts.AssignRateMonotonic()
	return ts
}

func TestRunValidation(t *testing.T) {
	ts := twoTasks()
	if _, err := Run(nil, Config{Tasks: task.Set{}, Horizon: 10}); err == nil {
		t.Fatal("accepted empty set")
	}
	if _, err := Run(nil, Config{Tasks: ts, Horizon: 0}); err == nil {
		t.Fatal("accepted zero horizon")
	}
	if _, err := Run(nil, Config{Tasks: ts, Horizon: 10, Delay: make([]delay.Function, 1)}); err == nil {
		t.Fatal("accepted short delay slice")
	}
	if _, err := Run(nil, Config{Tasks: ts, Horizon: 10, ExecTime: 2}); err == nil {
		t.Fatal("accepted ExecTime > 1")
	}
	bad := ts.Clone()
	bad[0].Q = 0
	if _, err := Run(nil, Config{Tasks: bad, Mode: FloatingNPR, Horizon: 10}); err == nil {
		t.Fatal("accepted FNPR mode without Q")
	}
	if _, err := Run(nil, Config{Tasks: ts, Horizon: 10,
		Delay: []delay.Function{delay.Constant(1, 99), nil}}); err == nil {
		t.Fatal("accepted delay domain mismatch")
	}
}

func TestFullyPreemptiveBasicSchedule(t *testing.T) {
	ts := twoTasks()
	res, err := Run(nil, Config{Tasks: ts, Policy: FixedPriority, Mode: FullyPreemptive, Horizon: 40})
	if err != nil {
		t.Fatal(err)
	}
	// hi: 4 jobs (0,10,20,30), each runs immediately for 2.
	if res.Tasks[0].Released != 4 || res.Tasks[0].Finished != 4 {
		t.Fatalf("hi stats = %+v", res.Tasks[0])
	}
	if res.Tasks[0].MaxResponse != 2 {
		t.Fatalf("hi max response = %g, want 2", res.Tasks[0].MaxResponse)
	}
	// lo: released at 0, preempted at 10 (after 8 of 12 done),
	// finishes at 16.
	if res.Tasks[1].Finished != 1 {
		t.Fatalf("lo stats = %+v", res.Tasks[1])
	}
	if res.Tasks[1].Preemptions != 1 {
		t.Fatalf("lo preemptions = %d, want 1", res.Tasks[1].Preemptions)
	}
	if res.Tasks[1].MaxResponse != 16 {
		t.Fatalf("lo max response = %g, want 16", res.Tasks[1].MaxResponse)
	}
	if res.Tasks[0].Missed != 0 || res.Tasks[1].Missed != 0 {
		t.Fatal("unexpected deadline misses")
	}
	// Idle: demand over 40 = 4*2 + 12 = 20 -> idle 20.
	if math.Abs(res.Idle-20) > 1e-6 {
		t.Fatalf("idle = %g, want 20", res.Idle)
	}
}

func TestNonPreemptiveNeverPreempts(t *testing.T) {
	ts := twoTasks()
	res, err := Run(nil, Config{Tasks: ts, Policy: FixedPriority, Mode: NonPreemptive, Horizon: 40})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range res.Tasks {
		if st.Preemptions != 0 {
			t.Fatalf("task %d preempted %d times under non-preemptive mode", i, st.Preemptions)
		}
	}
	// lo starts at 2 (behind hi@0) and holds the processor until 14;
	// hi@10 must wait and finishes at 16.
	found := false
	for _, j := range res.Jobs {
		if j.Task == 0 && j.Release == 10 {
			found = true
			if j.Finish != 16 {
				t.Fatalf("hi@10 finish = %g, want 16 (blocked by lo)", j.Finish)
			}
		}
	}
	if !found {
		t.Fatal("hi@10 job missing")
	}
}

func TestFloatingNPRDefersPreemption(t *testing.T) {
	ts := twoTasks() // lo.Q = 3
	res, err := Run(nil, Config{Tasks: ts, Policy: FixedPriority, Mode: FloatingNPR, Horizon: 40})
	if err != nil {
		t.Fatal(err)
	}
	// lo starts at 2 (after hi@0), runs until hi@10 arrives; NPR of 3
	// defers the preemption to t=13.
	var preemptTime float64 = -1
	for _, e := range res.Events {
		if e.Kind == EvPreempt && e.Task == 1 {
			preemptTime = e.Time
			break
		}
	}
	if math.Abs(preemptTime-13) > 1e-6 {
		t.Fatalf("preemption at %g, want 13 (release 10 + Q 3)", preemptTime)
	}
	// NPR events bracket it.
	var nprStart, nprEnd float64 = -1, -1
	for _, e := range res.Events {
		if e.Kind == EvNPRStart && nprStart < 0 {
			nprStart = e.Time
		}
		if e.Kind == EvNPREnd && nprEnd < 0 {
			nprEnd = e.Time
		}
	}
	if math.Abs(nprStart-10) > 1e-6 || math.Abs(nprEnd-13) > 1e-6 {
		t.Fatalf("NPR window [%g,%g], want [10,13]", nprStart, nprEnd)
	}
}

func TestFloatingNPRCollatesArrivals(t *testing.T) {
	// Two high-priority tasks released during one NPR cause ONE
	// preemption of the low task, not two.
	ts := task.Set{
		{Name: "h1", C: 1, T: 100, Q: 1, Prio: 0},
		{Name: "h2", C: 1, T: 100, Q: 1, Prio: 1},
		{Name: "lo", C: 20, T: 100, Q: 5, Prio: 2},
	}
	rel := [][]float64{{6}, {7}, {0}}
	res, err := Run(nil, Config{
		Tasks: ts, Policy: FixedPriority, Mode: FloatingNPR,
		Horizon: 100, Releases: rel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks[2].Preemptions != 1 {
		t.Fatalf("lo preemptions = %d, want 1 (collated)", res.Tasks[2].Preemptions)
	}
	// The NPR started at 6 and expired at 11; both h jobs run then.
	var preempt float64 = -1
	for _, e := range res.Events {
		if e.Kind == EvPreempt && e.Task == 2 {
			preempt = e.Time
		}
	}
	if math.Abs(preempt-11) > 1e-6 {
		t.Fatalf("preemption at %g, want 11", preempt)
	}
}

func TestPreemptionDelayAccrual(t *testing.T) {
	// lo pays f(progress) at each preemption; check the finish time
	// includes the paid delay.
	ts := twoTasks()
	fLo := delay.Constant(2, 12)
	res, err := Run(nil, Config{
		Tasks: ts, Policy: FixedPriority, Mode: FullyPreemptive,
		Horizon: 60, Delay: []delay.Function{nil, fLo},
	})
	if err != nil {
		t.Fatal(err)
	}
	// lo: starts at 2, preempted at 10 (progress 8, pays 2),
	// resumes at 12, pays debt till 14, progress 4 more -> would finish
	// at 18... check: remaining progress 4, so finish = 12+2+4 = 18.
	var finish float64 = -1
	for _, j := range res.Jobs {
		if j.Task == 1 && j.Job == 0 {
			finish = j.Finish
			if j.DelayPaid != 2 {
				t.Fatalf("delay paid = %g, want 2", j.DelayPaid)
			}
			if j.Preemptions != 1 {
				t.Fatalf("preemptions = %d, want 1", j.Preemptions)
			}
		}
	}
	if math.Abs(finish-18) > 1e-6 {
		t.Fatalf("lo finish = %g, want 18", finish)
	}
}

func TestEDFOrdering(t *testing.T) {
	// Two jobs released together; EDF runs the earlier deadline first
	// regardless of declared Prio.
	ts := task.Set{
		{Name: "late", C: 2, T: 100, D: 50, Prio: 0},
		{Name: "soon", C: 2, T: 100, D: 10, Prio: 1},
	}
	res, err := Run(nil, Config{Tasks: ts, Policy: EDF, Mode: FullyPreemptive, Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	var firstStart Event
	for _, e := range res.Events {
		if e.Kind == EvStart {
			firstStart = e
			break
		}
	}
	if firstStart.Task != 1 {
		t.Fatalf("EDF started task %d first, want 1 (earlier deadline)", firstStart.Task)
	}
}

func TestDeadlineMissDetected(t *testing.T) {
	ts := task.Set{
		{Name: "a", C: 6, T: 10, Prio: 0},
		{Name: "b", C: 6, T: 12, Prio: 1},
	}
	res, err := Run(nil, Config{Tasks: ts, Policy: FixedPriority, Mode: FullyPreemptive, Horizon: 60})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks[1].Missed == 0 {
		t.Fatal("overloaded set produced no misses")
	}
}

func TestUnfinishedJobAtHorizonCountsAsMiss(t *testing.T) {
	ts := task.Set{{Name: "a", C: 10, T: 20, D: 12, Prio: 0}}
	res, err := Run(nil, Config{
		Tasks: ts, Policy: FixedPriority, Mode: FullyPreemptive,
		Horizon: 15, Releases: [][]float64{{0, 14}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Job released at 14 cannot finish by horizon 15; its deadline (26)
	// is beyond the horizon so it is NOT a miss; job at 0 finishes at 10.
	if res.Tasks[0].Missed != 0 {
		t.Fatalf("misses = %d, want 0", res.Tasks[0].Missed)
	}
	// Now a horizon past the deadline with an unfinishable job.
	ts2 := task.Set{
		{Name: "hog", C: 30, T: 100, Prio: 0},
		{Name: "b", C: 10, T: 100, D: 20, Prio: 1},
	}
	res2, err := Run(nil, Config{Tasks: ts2, Policy: FixedPriority, Mode: NonPreemptive, Horizon: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Tasks[1].Missed != 1 {
		t.Fatalf("misses = %d, want 1 (unfinished past deadline)", res2.Tasks[1].Missed)
	}
}

func TestExecTimeFraction(t *testing.T) {
	ts := twoTasks()
	res, err := Run(nil, Config{
		Tasks: ts, Policy: FixedPriority, Mode: FullyPreemptive,
		Horizon: 40, ExecTime: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// hi jobs take 1 instead of 2.
	if res.Tasks[0].MaxResponse != 1 {
		t.Fatalf("hi max response = %g, want 1", res.Tasks[0].MaxResponse)
	}
}

func TestSporadicReleasesRespected(t *testing.T) {
	ts := task.Set{{Name: "a", C: 1, T: 10, Prio: 0}}
	res, err := Run(nil, Config{
		Tasks: ts, Policy: FixedPriority, Mode: FullyPreemptive,
		Horizon: 50, Releases: [][]float64{{3, 17, 42}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks[0].Released != 3 {
		t.Fatalf("released = %d, want 3", res.Tasks[0].Released)
	}
}

// Invariant: under FloatingNPR, consecutive preemptions of one job are at
// least Q apart on the job's execution-time clock.
func TestFNPRSpacingInvariant(t *testing.T) {
	ts := task.Set{
		{Name: "h", C: 1, T: 7, Q: 1, Prio: 0},
		{Name: "m", C: 3, T: 19, Q: 2, Prio: 1},
		{Name: "lo", C: 25, T: 101, Q: 4, Prio: 2},
	}
	fns := []delay.Function{nil, delay.Constant(0.5, 3), delay.Constant(1, 25)}
	res, err := Run(nil, Config{
		Tasks: ts, Policy: FixedPriority, Mode: FloatingNPR,
		Horizon: 500, Delay: fns,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		q := ts[j.Task].Q
		for k := 1; k < len(j.PreemptExecs); k++ {
			gap := j.PreemptExecs[k] - j.PreemptExecs[k-1]
			if gap < q-1e-6 {
				t.Fatalf("job %d/%d preemption spacing %g < Q=%g", j.Task, j.Job, gap, q)
			}
		}
		if len(j.PreemptExecs) > 0 && j.PreemptExecs[0] < q-1e-6 {
			t.Fatalf("job %d/%d first preemption at exec %g < Q=%g", j.Task, j.Job, j.PreemptExecs[0], q)
		}
	}
	if res.Tasks[2].Preemptions == 0 {
		t.Fatal("scenario produced no preemptions; invariant untested")
	}
}

// Cross-check: preemption counts under FNPR never exceed fully-preemptive.
func TestFNPRReducesPreemptions(t *testing.T) {
	ts := task.Set{
		{Name: "h1", C: 1, T: 5, Q: 1, Prio: 0},
		{Name: "h2", C: 2, T: 13, Q: 2, Prio: 1},
		{Name: "lo", C: 20, T: 97, Q: 6, Prio: 2},
	}
	run := func(m Mode) int {
		res, err := Run(nil, Config{Tasks: ts, Policy: FixedPriority, Mode: m, Horizon: 1000})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, st := range res.Tasks {
			total += st.Preemptions
		}
		return total
	}
	fp := run(FullyPreemptive)
	np := run(FloatingNPR)
	if np > fp {
		t.Fatalf("FNPR preemptions %d exceed fully-preemptive %d", np, fp)
	}
	if fp == 0 {
		t.Fatal("no preemptions at all; scenario too weak")
	}
}

func TestTimelineAndSummaryRender(t *testing.T) {
	ts := twoTasks()
	res, err := Run(nil, Config{Tasks: ts, Policy: FixedPriority, Mode: FullyPreemptive, Horizon: 40})
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline(1)
	if !strings.Contains(tl, "hi") || !strings.Contains(tl, "#") {
		t.Fatalf("timeline rendering broken:\n%s", tl)
	}
	sum := res.Summary()
	for _, want := range []string{"task", "hi", "lo", "idle"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestStringers(t *testing.T) {
	if FixedPriority.String() != "FP" || EDF.String() != "EDF" {
		t.Fatal("policy strings wrong")
	}
	if FullyPreemptive.String() == "" || FloatingNPR.String() == "" || NonPreemptive.String() == "" {
		t.Fatal("mode strings empty")
	}
	if EvPreempt.String() != "preempt" {
		t.Fatal("event kind strings wrong")
	}
	if Policy(9).String() == "" || Mode(9).String() == "" || EventKind(99).String() == "" {
		t.Fatal("unknown enum strings empty")
	}
	e := Event{Time: 1, Kind: EvStart, Task: 0, Job: 1}
	if !strings.Contains(e.String(), "start") {
		t.Fatal("event string broken")
	}
}

// Regression: simultaneous higher-priority releases must cause exactly one
// preemption of the running job and no zero-progress preemption of an
// intermediate job (the dispatcher waits for the whole release batch).
func TestSimultaneousReleasesNoSpuriousPreemption(t *testing.T) {
	ts := task.Set{
		{Name: "h1", C: 1, T: 100, Prio: 0},
		{Name: "h2", C: 1, T: 100, Prio: 1},
		{Name: "lo", C: 10, T: 100, Prio: 2},
	}
	// lo starts at 0; h2 and h1 both arrive at t=3. Order the releases so
	// the LOWER-priority h2 is processed first — the dispatcher must not
	// start h2 and then preempt it for h1.
	res, err := Run(nil, Config{
		Tasks: ts, Policy: FixedPriority, Mode: FullyPreemptive,
		Horizon:  50,
		Releases: [][]float64{{3}, {3}, {0}},
		Delay: []delay.Function{
			delay.Constant(5, 1), delay.Constant(5, 1), delay.Constant(0.5, 10),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Tasks[2].Preemptions; got != 1 {
		t.Fatalf("lo preemptions = %d, want 1", got)
	}
	if res.Tasks[0].Preemptions != 0 || res.Tasks[1].Preemptions != 0 {
		t.Fatalf("high tasks preempted: %d, %d — spurious zero-progress preemption",
			res.Tasks[0].Preemptions, res.Tasks[1].Preemptions)
	}
	// h1 runs before h2 despite h2's release being processed first.
	var first int = -1
	for _, e := range res.Events {
		if e.Kind == EvStart && e.Time > 2 {
			first = e.Task
			break
		}
	}
	if first != 0 {
		t.Fatalf("first dispatched high task = %d, want 0 (h1)", first)
	}
}
