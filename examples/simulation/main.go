// simulation reproduces the spirit of Figure 2 with the full scheduler: it
// runs a task set under floating non-preemptive regions, records the delay
// every job of the victim task actually pays, and compares the observed
// worst case with Algorithm 1's static bound — the empirical face of
// Theorem 1. It also contrasts preemption counts across the three
// preemption models.
//
// Run with: go run ./examples/simulation
package main

import (
	"fmt"
	"log"

	"fnpr/internal/core"
	"fnpr/internal/delay"
	"fnpr/internal/sim"
	"fnpr/internal/task"
)

func main() {
	ts := task.Set{
		{Name: "fast", C: 1, T: 7, Q: 1},
		{Name: "medium", C: 4, T: 23, Q: 2},
		{Name: "victim", C: 30, T: 120, Q: 6},
	}
	ts.AssignRateMonotonic()

	// The victim's delay function has two expensive regions (working-set
	// builds) separated by cheap computation — the flavour of the
	// paper's "2 local maximum" benchmark.
	f, err := delay.NewPiecewise(
		[]float64{0, 6, 9, 18, 21, 30},
		[]float64{1, 4, 0.5, 4, 0.5},
	)
	if err != nil {
		log.Fatal(err)
	}
	fns := []delay.Function{nil, delay.Constant(0.3, 4), f}

	res, err := sim.Run(nil, sim.Config{
		Tasks: ts, Policy: sim.FixedPriority, Mode: sim.FloatingNPR,
		Horizon: 6000, Delay: fns,
	})
	if err != nil {
		log.Fatal(err)
	}

	r, err := core.Analyze(nil, f, ts[2].Q, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	bound := r.TotalDelay

	fmt.Println("floating-NPR schedule over 6000 time units:")
	fmt.Print(res.Summary())

	fmt.Printf("\nvictim jobs: observed cumulative delay per job vs Algorithm 1 bound %.2f\n", bound)
	shown := 0
	for _, j := range res.Jobs {
		if j.Task != 2 || shown >= 10 {
			continue
		}
		shown++
		fmt.Printf("  job %2d: %d preemptions at progressions %v -> delay %.2f (bound %.2f)\n",
			j.Job, j.Preemptions, j.PreemptProgs, j.DelayPaid, bound)
		if j.DelayPaid > bound {
			fmt.Println("  !! BOUND VIOLATED — this must never print")
		}
	}

	fmt.Println("\npreemption counts by mode:")
	for _, mode := range []sim.Mode{sim.FullyPreemptive, sim.FloatingNPR, sim.NonPreemptive} {
		r, err := sim.Run(nil, sim.Config{
			Tasks: ts, Policy: sim.FixedPriority, Mode: mode,
			Horizon: 6000, Delay: fns,
		})
		if err != nil {
			log.Fatal(err)
		}
		total, misses := 0, 0
		for _, st := range r.Tasks {
			total += st.Preemptions
			misses += st.Missed
		}
		fmt.Printf("  %-18s preemptions=%4d  victim delay=%8.2f  misses=%d\n",
			mode, total, r.Tasks[2].DelayPaid, misses)
	}
}
