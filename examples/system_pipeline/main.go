// system_pipeline drives the complete analysis stack on a three-task system
// defined by programs rather than hand-written delay functions:
//
//	CFGs + memory accesses
//	  -> loop collapsing, execution intervals, WCET     (cfg)
//	  -> UCB/ECB cache analysis, CRPD per block          (cache)
//	  -> preemption delay functions fi(t)                (delay)
//	  -> floating NPR lengths Qi from blocking tolerance (npr)
//	  -> Algorithm 1 delay bounds and effective WCETs    (core)
//	  -> delay-aware response-time analysis              (sched)
//
// Run with: go run ./examples/system_pipeline
package main

import (
	"fmt"
	"log"

	"fnpr/internal/cache"
	"fnpr/internal/cfg"
	"fnpr/internal/npr"
	"fnpr/internal/system"
)

// program builds a load/loop/store task: load a table, iterate over it,
// write back a summary.
func program(lines []cache.Line, iterMin, iterMax int, unit float64) (*cfg.Graph, cache.AccessMap) {
	g := cfg.New()
	load := g.AddSimple("load", unit*2, unit*3)
	head := g.AddSimple("head", unit/4, unit/4)
	body := g.AddSimple("body", unit, unit*1.5)
	store := g.AddSimple("store", unit, unit)
	g.MustEdge(load, head)
	g.MustEdge(head, body)
	g.MustEdge(body, head)
	g.MustEdge(head, store)
	g.LoopBounds[head] = cfg.Bound{Min: iterMin, Max: iterMax}
	acc := cache.AccessMap{
		load:  lines,
		body:  lines,
		store: lines[:1+len(lines)/3],
	}
	return g, acc
}

func main() {
	g1, a1 := program([]cache.Line{0, 1}, 1, 2, 1)
	g2, a2 := program([]cache.Line{8, 9, 10, 11}, 2, 4, 2)
	g3, a3 := program([]cache.Line{16, 17, 18, 19, 20, 21}, 3, 6, 4)

	cfgSys := system.Config{
		Tasks: []system.TaskProgram{
			// sensor's Q is derived from the blocking tolerance; the
			// lower tasks get explicit, tighter NPRs so that higher-
			// priority jobs are served quickly (long NPRs would be
			// admissible here but inflate blocking).
			{Name: "sensor", T: 80, Prio: 0, Graph: g1, Accesses: a1},
			{Name: "control", T: 400, Prio: 1, Q: 8, Graph: g2, Accesses: a2},
			{Name: "logger", T: 2000, Prio: 2, Q: 6, Graph: g3, Accesses: a3},
		},
		Cache:  cache.Config{Sets: 16, Assoc: 2, LineBytes: 16, ReloadCost: 0.8},
		Policy: npr.FixedPriority,
		UseECB: true,
	}
	res, err := system.Analyze(cfgSys)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("derived task set (C from WCET analysis, Q from blocking tolerance):")
	for _, tk := range res.Set {
		fmt.Printf("  %s\n", tk)
	}
	fmt.Println()
	fmt.Printf("%-10s %10s %10s %12s %12s %12s %12s\n",
		"task", "BCET", "WCET", "max CRPD", "delay bound", "C'", "R")
	for i, ta := range res.Tasks {
		fmt.Printf("%-10s %10.2f %10.2f %12.2f %12.2f %12.2f %12.2f\n",
			ta.Task.Name, ta.BCET, ta.Task.C, ta.MaxCRPD,
			ta.TotalDelay, ta.EffectiveC, res.ResponseTimes[i])
	}
	fmt.Printf("\nschedulable: %v\n", res.Schedulable)

	fmt.Println("\nlogger's preemption delay function (from its program structure):")
	fmt.Printf("  f = %v\n", res.Tasks[2].Delay)
}
