package sim

import (
	"math"
	"math/rand"
	"testing"

	"fnpr/internal/delay"
	"fnpr/internal/synth"
)

// randomConfig draws a random simulation config of the kind the Monte-Carlo
// campaign feeds a Runner: random task set, random mode/policy, front-loaded
// delay functions on all but the highest-priority task.
func randomConfig(t *testing.T, r *rand.Rand) Config {
	t.Helper()
	ts, err := synth.TaskSet(r, synth.TaskSetParams{
		N:           2 + r.Intn(4),
		Utilization: 0.3 + 0.5*r.Float64(),
		PeriodLo:    10,
		PeriodHi:    200,
		RoundPeriod: true,
		QFraction:   0.25,
		MinQ:        0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fns := make([]delay.Function, len(ts))
	for i := 1; i < len(ts); i++ {
		peak := 0.1 * ts[i].C
		fn, err := delay.NewFrontLoaded(peak, peak/5, ts[i].C)
		if err != nil {
			t.Fatal(err)
		}
		fns[i] = fn
	}
	mode := []Mode{FullyPreemptive, FloatingNPR, NonPreemptive}[r.Intn(3)]
	policy := []Policy{FixedPriority, EDF}[r.Intn(2)]
	return Config{
		Tasks:      ts,
		Policy:     policy,
		Mode:       mode,
		Horizon:    200 + 300*r.Float64(),
		Delay:      fns,
		ExecTime:   0.5 + 0.5*r.Float64(),
		SwitchCost: 0.05 * r.Float64(),
	}
}

// equalResults compares two results field by field. reflect.DeepEqual is
// deliberately avoided: a reused Runner hands out empty-but-non-nil log
// slices where a fresh run produces nil ones, and that difference is not
// observable through the API.
func equalResults(t *testing.T, trial int, got, want *Result) {
	t.Helper()
	if len(got.Events) != len(want.Events) {
		t.Fatalf("trial %d: %d events, want %d", trial, len(got.Events), len(want.Events))
	}
	for i := range want.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("trial %d: event %d = %v, want %v", trial, i, got.Events[i], want.Events[i])
		}
	}
	if got.Idle != want.Idle {
		t.Fatalf("trial %d: idle %g, want %g", trial, got.Idle, want.Idle)
	}
	if len(got.Tasks) != len(want.Tasks) {
		t.Fatalf("trial %d: %d task stats, want %d", trial, len(got.Tasks), len(want.Tasks))
	}
	for i := range want.Tasks {
		if got.Tasks[i] != want.Tasks[i] {
			t.Fatalf("trial %d: task %d stat = %+v, want %+v", trial, i, got.Tasks[i], want.Tasks[i])
		}
	}
	if len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("trial %d: %d jobs, want %d", trial, len(got.Jobs), len(want.Jobs))
	}
	for i := range want.Jobs {
		g, w := got.Jobs[i], want.Jobs[i]
		sameFinish := g.Finish == w.Finish ||
			(math.IsInf(g.Finish, 1) && math.IsInf(w.Finish, 1))
		if g.Task != w.Task || g.Job != w.Job || g.Release != w.Release ||
			g.Deadline != w.Deadline || !sameFinish ||
			g.Preemptions != w.Preemptions || g.DelayPaid != w.DelayPaid ||
			g.SwitchPaid != w.SwitchPaid || g.ExecDemand != w.ExecDemand ||
			g.Missed != w.Missed {
			t.Fatalf("trial %d: job %d = %+v, want %+v", trial, i, g, w)
		}
		if len(g.PreemptProgs) != len(w.PreemptProgs) || len(g.PreemptExecs) != len(w.PreemptExecs) {
			t.Fatalf("trial %d: job %d preemption logs differ in length", trial, i)
		}
		for k := range w.PreemptProgs {
			if g.PreemptProgs[k] != w.PreemptProgs[k] || g.PreemptExecs[k] != w.PreemptExecs[k] {
				t.Fatalf("trial %d: job %d preemption log %d differs", trial, i, k)
			}
		}
	}
}

// TestRunnerMatchesRun replays many random configs through one reused Runner
// and checks every trial is identical to a fresh package-level Run — the
// buffer reuse must never leak state from a previous trial.
func TestRunnerMatchesRun(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	runner := NewRunner()
	for trial := 0; trial < 60; trial++ {
		cfg := randomConfig(t, r)
		want, err := Run(nil, cfg)
		if err != nil {
			t.Fatalf("trial %d: fresh run: %v", trial, err)
		}
		got, err := runner.Run(nil, cfg)
		if err != nil {
			t.Fatalf("trial %d: pooled run: %v", trial, err)
		}
		equalResults(t, trial, got, want)
	}
}

// TestRunnerRecoversFromError checks a Runner stays usable after a run fails
// validation or aborts.
func TestRunnerRecoversFromError(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	runner := NewRunner()
	good := randomConfig(t, r)
	if _, err := runner.Run(nil, Config{Tasks: good.Tasks, Horizon: -1}); err == nil {
		t.Fatal("accepted negative horizon")
	}
	want, err := Run(nil, good)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runner.Run(nil, good)
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, 0, got, want)
}

// TestRunnerSteadyStateAllocs pins the pooling contract: once buffers hit
// the workload's high-water mark, repeat runs do not allocate.
func TestRunnerSteadyStateAllocs(t *testing.T) {
	ts := twoTasks()
	fn, err := delay.NewFrontLoaded(0.5, 0.1, ts[1].C)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Tasks:   ts,
		Policy:  FixedPriority,
		Mode:    FloatingNPR,
		Horizon: 400,
		Delay:   []delay.Function{nil, fn},
	}
	runner := NewRunner()
	for i := 0; i < 3; i++ { // reach the high-water mark
		if _, err := runner.Run(nil, cfg); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := runner.Run(nil, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("steady-state Runner.Run allocates %.1f times per run, want 0", avg)
	}
}
