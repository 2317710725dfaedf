package sim

import (
	"math"
	"testing"

	"fnpr/internal/delay"
	"fnpr/internal/task"
)

func TestSwitchCostValidation(t *testing.T) {
	ts := task.Set{{Name: "a", C: 1, T: 10, Prio: 0}}
	if _, err := Run(nil, Config{Tasks: ts, Horizon: 10, SwitchCost: -1}); err == nil {
		t.Fatal("accepted negative switch cost")
	}
	if _, err := Run(nil, Config{Tasks: ts, Horizon: 10, SwitchCost: math.NaN()}); err == nil {
		t.Fatal("accepted NaN switch cost")
	}
}

func TestSwitchCostAccountedSeparately(t *testing.T) {
	ts := task.Set{
		{Name: "hi", C: 2, T: 10, Q: 1, Prio: 0},
		{Name: "lo", C: 12, T: 40, Q: 3, Prio: 1},
	}
	fns := []delay.Function{nil, delay.Constant(2, 12)}
	res, err := Run(nil, Config{
		Tasks: ts, Policy: FixedPriority, Mode: FullyPreemptive,
		Horizon: 60, Delay: fns, SwitchCost: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// lo's first job: preempted once at t=10 (progress 8); pays 2 CRPD +
	// 0.5 switch; finish = 12 + 2 + 0.5 + 4 = 18.5.
	var j JobStat
	found := false
	for _, jj := range res.Jobs {
		if jj.Task == 1 && jj.Job == 0 {
			j, found = jj, true
		}
	}
	if !found {
		t.Fatal("lo job missing")
	}
	if j.DelayPaid != 2 || j.SwitchPaid != 0.5 {
		t.Fatalf("delay/switch = %g/%g, want 2/0.5", j.DelayPaid, j.SwitchPaid)
	}
	if math.Abs(j.Finish-18.5) > 1e-6 {
		t.Fatalf("finish = %g, want 18.5", j.Finish)
	}
	// Two lo jobs in the horizon (released at 0 and 40), each preempted
	// once by hi.
	if res.Tasks[1].SwitchPaid != 1.0 {
		t.Fatalf("task switch total = %g, want 1.0", res.Tasks[1].SwitchPaid)
	}
}

func TestSwitchCostZeroByDefault(t *testing.T) {
	ts := task.Set{
		{Name: "hi", C: 2, T: 10, Q: 1, Prio: 0},
		{Name: "lo", C: 12, T: 40, Q: 3, Prio: 1},
	}
	res, err := Run(nil, Config{Tasks: ts, Policy: FixedPriority, Mode: FullyPreemptive, Horizon: 60})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Tasks {
		if st.SwitchPaid != 0 {
			t.Fatalf("default switch cost nonzero: %g", st.SwitchPaid)
		}
	}
}

// Under FNPR the switch overhead still respects the Q spacing, so total
// overhead per job is bounded by (preemptions x SwitchCost).
func TestSwitchCostBoundedByPreemptions(t *testing.T) {
	ts := task.Set{
		{Name: "h", C: 1, T: 7, Q: 1, Prio: 0},
		{Name: "lo", C: 25, T: 101, Q: 4, Prio: 1},
	}
	res, err := Run(nil, Config{
		Tasks: ts, Policy: FixedPriority, Mode: FloatingNPR,
		Horizon: 800, SwitchCost: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		want := float64(j.Preemptions) * 0.3
		if math.Abs(j.SwitchPaid-want) > 1e-9 {
			t.Fatalf("job %d/%d switch paid %g, want %g", j.Task, j.Job, j.SwitchPaid, want)
		}
	}
}
