// Command schedtest analyses a task set described by a JSON specification
// (see internal/spec) under floating non-preemptive region scheduling and
// prints a comparison of every applicable schedulability test:
//
//   - fixed priority: effective WCETs and response times with Algorithm 1,
//     with the preemption-count refinement, and with the state-of-the-art
//     Equation 4 bound; plus the delay-free RTA as an optimistic reference;
//   - EDF: the delay-aware processor-demand test with both delay methods.
//
// When -assign-q is given, missing Q values are derived from the blocking
// tolerance analysis (npr.AssignQ). With -simulate the schedule is also run
// in the discrete-event simulator and observed response times are reported
// next to the analytical bounds.
//
// Usage:
//
//	schedtest -spec taskset.json [-assign-q] [-simulate] [-horizon 10000]
//	schedtest -example          # print a sample specification and exit
package main

import (
	"flag"
	"fmt"
	"math"

	"fnpr/internal/cli"
	"fnpr/internal/delay"
	"fnpr/internal/guard"
	"fnpr/internal/npr"
	"fnpr/internal/sched"
	"fnpr/internal/sim"
	"fnpr/internal/spec"
)

func main() {
	var (
		specPath = flag.String("spec", "", "path to the JSON task-set specification")
		assignQ  = flag.Bool("assign-q", false, "derive missing Q values from the blocking-tolerance analysis")
		simulate = flag.Bool("simulate", false, "cross-check with the discrete-event simulator")
		horizon  = flag.Float64("horizon", 10000, "simulation horizon (with -simulate)")
		example  = flag.Bool("example", false, "print a sample specification and exit")
		margin   = flag.Bool("margin", false, "also compute the delay criticality margin (FP only)")
	)
	limits := cli.Flags()
	flag.Parse()
	g := limits.Guard()

	if *example {
		printExample()
		fatal(nil)
	}
	if *specPath == "" {
		fatal(cli.Usagef("missing -spec (or use -example)"))
	}
	p, err := spec.LoadFile(*specPath)
	if err != nil {
		fatal(err)
	}
	if *assignQ {
		policy := npr.FixedPriority
		if p.Policy == "edf" {
			policy = npr.EDF
		}
		qs, err := npr.AssignQCtx(g, p.Tasks, policy)
		if err != nil {
			fatal(err)
		}
		for i := range p.Tasks {
			if p.Tasks[i].Q == 0 {
				p.Tasks[i].Q = qs[i].Q
			}
		}
	}

	fmt.Printf("policy: %s   tasks: %d   utilization: %.3f\n\n", p.Policy, len(p.Tasks), p.Tasks.Utilization())
	for _, tk := range p.Tasks {
		fmt.Printf("  %s\n", tk)
	}
	fmt.Println()

	switch p.Policy {
	case "fp":
		analyseFP(g, p)
		if *margin {
			reportMargin(g, p)
		}
	case "edf":
		analyseEDF(g, p)
	}

	if *simulate {
		runSimulation(g, p, *horizon)
	}
	fatal(nil)
}

func analyseFP(g *guard.Ctx, p *spec.Problem) {
	fmt.Printf("%-10s %12s %12s %12s %12s %10s\n",
		"task", "R(no-delay)", "R(alg1)", "R(alg1-lim)", "R(eq4)", "deadline")

	// Delay-free reference: same analysis with all-nil delay functions. Its
	// response times lower-bound every delay-aware variant, so they warm-seed
	// the other fixpoints (bit-identical results, fewer iterations).
	free, err := sched.Analyze(g, p.Tasks, sched.Options{
		Delay: make([]delay.Function, len(p.Tasks)), Method: sched.Algorithm1,
	})
	if err != nil {
		fatal(err)
	}
	rFree := free.Response
	alg, errAlg := sched.Analyze(g, p.Tasks, sched.Options{
		Delay: p.Delay, Method: sched.Algorithm1, Warm: rFree,
	})
	lim, errLim := sched.Analyze(g, p.Tasks, sched.Options{
		Delay: p.Delay, Method: sched.Algorithm1, Limited: true, Warm: rFree,
	})
	eq4, errEq4 := sched.Analyze(g, p.Tasks, sched.Options{
		Delay: p.Delay, Method: sched.Equation4, Warm: rFree,
	})
	for _, err := range []error{errAlg, errLim, errEq4} {
		// Divergence errors are reported per-column below; a tripped
		// resource limit aborts the whole run with exit code 3.
		if err != nil && cli.Code(err) == cli.ExitResource {
			fatal(err)
		}
	}

	for i, tk := range p.Tasks {
		fmt.Printf("%-10s %12s %12s %12s %12s %10g\n",
			tk.Name,
			fmtRes(free, i, nil),
			fmtRes(alg, i, errAlg),
			fmtRes(lim, i, errLim),
			fmtRes(eq4, i, errEq4),
			tk.Deadline())
	}
	fmt.Println()
	report := func(name string, res *sched.Result, err error) {
		switch {
		case err != nil:
			fmt.Printf("  %-22s error: %v\n", name, err)
		case res.Schedulable:
			fmt.Printf("  %-22s SCHEDULABLE\n", name)
		default:
			fmt.Printf("  %-22s not schedulable\n", name)
		}
	}
	report("no delay (optimistic):", free, nil)
	report("Algorithm 1:", alg, errAlg)
	report("Algorithm 1 + limit:", lim, errLim)
	report("Equation 4:", eq4, errEq4)
}

// reportMargin prints the largest factor by which every delay function can
// grow while the set stays schedulable under Algorithm 1.
func reportMargin(g *guard.Ctx, p *spec.Problem) {
	m, err := sched.DelayMargin(g, p.Tasks, sched.Options{
		Delay: p.Delay, Method: sched.Algorithm1,
	}, 100, 0.01)
	if err != nil {
		if cli.Code(err) == cli.ExitResource {
			fatal(err)
		}
		fmt.Printf("\n  delay margin: error: %v\n", err)
		return
	}
	fmt.Printf("\n  delay criticality margin: %.2fx (delay functions can scale by this factor)\n", m)
}

func analyseEDF(g *guard.Ctx, p *spec.Problem) {
	for _, m := range []sched.DelayMethod{sched.Algorithm1, sched.Equation4} {
		res, err := sched.Analyze(g, p.Tasks, sched.Options{
			Policy: sched.EDF, Delay: p.Delay, Method: m,
		})
		switch {
		case err != nil && cli.Code(err) == cli.ExitResource:
			fatal(err)
		case err != nil:
			fmt.Printf("  EDF with %-12s error: %v\n", m, err)
		case res.Schedulable:
			fmt.Printf("  EDF with %-12s SCHEDULABLE\n", m)
		default:
			fmt.Printf("  EDF with %-12s not schedulable\n", m)
		}
	}
}

func runSimulation(g *guard.Ctx, p *spec.Problem, horizon float64) {
	policy := sim.FixedPriority
	if p.Policy == "edf" {
		policy = sim.EDF
	}
	res, err := sim.Run(g, sim.Config{
		Tasks: p.Tasks, Policy: policy, Mode: sim.FloatingNPR,
		Horizon: horizon, Delay: p.Delay,
	})
	if err != nil {
		fatal(err)
	}
	if err := sim.CheckInvariants(res); err != nil {
		fatal(fmt.Errorf("simulator invariant violation: %w", err))
	}
	fmt.Printf("\nsimulation over %g time units (floating NPR, %s):\n", horizon, policy)
	fmt.Print(res.Summary())
}

func fmtRes(res *sched.Result, i int, err error) string {
	if err != nil || res == nil || res.Response == nil {
		return "err"
	}
	if math.IsInf(res.Response[i], 1) {
		return "miss"
	}
	return fmt.Sprintf("%.2f", res.Response[i])
}

func printExample() {
	fmt.Print(`{
  "policy": "fp",
  "tasks": [
    {"name": "hi", "c": 5, "t": 100, "q": 5, "prio": 0},
    {"name": "mid", "c": 9, "t": 250, "q": 6, "prio": 1,
     "delay": {"kind": "constant", "value": 1}},
    {"name": "lo", "c": 60, "t": 600, "d": 400, "q": 10, "prio": 2,
     "delay": {"kind": "frontloaded", "peak": 3, "tail": 0.5}}
  ]
}
`)
}

func fatal(err error) {
	cli.Exit("schedtest", err)
}
