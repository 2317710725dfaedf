package sim_test

import (
	"fmt"

	"fnpr/internal/delay"
	"fnpr/internal/sim"
	"fnpr/internal/task"
)

// A floating-NPR schedule: the lower task is preempted only after its
// non-preemptive region expires, and pays its progression-dependent delay.
func ExampleRun() {
	ts := task.Set{
		{Name: "hi", C: 2, T: 10, Q: 1, Prio: 0},
		{Name: "lo", C: 12, T: 40, Q: 3, Prio: 1},
	}
	res, _ := sim.Run(nil, sim.Config{
		Tasks:   ts,
		Policy:  sim.FixedPriority,
		Mode:    sim.FloatingNPR,
		Horizon: 40,
		Delay:   []delay.Function{nil, delay.Constant(1, 12)},
	})
	lo := res.Tasks[1]
	fmt.Printf("lo: %d preemption(s), delay paid %.0f, max response %.0f\n",
		lo.Preemptions, lo.DelayPaid, lo.MaxResponse)
	// The floating NPR defers the t=10 arrival of hi until t=13.
	for _, e := range res.Events {
		if e.Kind == sim.EvPreempt {
			fmt.Printf("preempted at t=%g (progression %g)\n", e.Time, e.Progression)
		}
	}
	// Output:
	// lo: 1 preemption(s), delay paid 1, max response 17
	// preempted at t=13 (progression 11)
}
