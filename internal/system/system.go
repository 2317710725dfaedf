// Package system is the top-level integration layer: it takes a task set in
// which every task carries its control-flow graph and memory accesses, and
// drives the complete analysis pipeline of the paper end to end:
//
//  1. loop-collapse each task's CFG and compute execution intervals
//     (package cfg) and [BCET, WCET] (package wcet);
//  2. run the UCB analysis per task and the ECB analysis of its preempters
//     (package cache);
//  3. assemble each task's preemption delay function fi(t) (package delay),
//     refined against the union of higher-priority / shorter-deadline
//     evicting cache blocks;
//  4. derive the floating NPR lengths Qi from the blocking tolerances
//     (package npr) unless given;
//  5. bound each task's cumulative preemption delay with Algorithm 1 and
//     run the delay-aware schedulability analysis (packages core, sched).
//
// This is the "WCET-tool side" story a downstream user needs: everything
// upstream of Algorithm 1 produced from program structure rather than
// hand-written delay functions.
package system

import (
	"errors"
	"fmt"

	"fnpr/internal/cache"
	"fnpr/internal/cfg"
	"fnpr/internal/core"
	"fnpr/internal/delay"
	"fnpr/internal/npr"
	"fnpr/internal/sched"
	"fnpr/internal/task"
)

// TaskProgram couples a task's scheduling parameters with its program.
type TaskProgram struct {
	// Name, T, D, Prio, Jitter follow the task model; C is derived from
	// the program's WCET.
	Name   string
	T, D   float64
	Prio   int
	Jitter float64

	// Q is the floating NPR length; 0 means "derive from the blocking
	// tolerance analysis".
	Q float64

	// Graph is the task's control-flow graph (may contain natural loops
	// with bounds); Accesses lists the memory lines touched per block.
	Graph    *cfg.Graph
	Accesses cache.AccessMap
}

// Config describes the whole system.
type Config struct {
	Tasks []TaskProgram
	// Cache is the shared cache configuration.
	Cache cache.Config
	// Policy selects FP (tasks sorted by Prio) or EDF.
	Policy npr.Policy
	// UseECB refines each victim's delay function against the union of
	// the evicting cache blocks of the tasks that can preempt it.
	UseECB bool
}

// TaskAnalysis is the per-task outcome.
type TaskAnalysis struct {
	Task  task.Task
	BCET  float64
	Delay *delay.Piecewise
	// MaxCRPD is the largest single-preemption delay.
	MaxCRPD float64
	// TotalDelay is the Algorithm 1 bound for the task's Q.
	TotalDelay float64
	// EffectiveC is C + TotalDelay (Equation 5).
	EffectiveC float64
}

// Result is the system-level outcome.
type Result struct {
	Tasks []TaskAnalysis
	// Set is the derived task set (C from WCET, Q assigned), priority
	// sorted for FP.
	Set task.Set
	// ResponseTimes holds the FP delay-aware response times (nil under
	// EDF).
	ResponseTimes []float64
	// Schedulable holds the verdict: the EDF demand test under EDF, every
	// response time within its deadline under FP.
	Schedulable bool
}

// Analyze runs the pipeline.
func Analyze(cfgSys Config) (*Result, error) {
	n := len(cfgSys.Tasks)
	if n == 0 {
		return nil, errors.New("system: no tasks")
	}
	if err := cfgSys.Cache.Validate(); err != nil {
		return nil, err
	}

	type prepared struct {
		tp   TaskProgram
		off  *cfg.Offsets
		col  *cfg.Collapsed
		ucb  *cache.UCBResult
		ecb  cache.LineSet
		bcet float64
		wcet float64
	}
	preps := make([]prepared, 0, n)
	for _, tp := range cfgSys.Tasks {
		if tp.Graph == nil {
			return nil, fmt.Errorf("system: task %s has no graph", tp.Name)
		}
		col, err := tp.Graph.CollapseLoops()
		if err != nil {
			return nil, fmt.Errorf("system: task %s: %w", tp.Name, err)
		}
		off, err := col.Graph.AnalyzeOffsets()
		if err != nil {
			return nil, fmt.Errorf("system: task %s: %w", tp.Name, err)
		}
		acc := cache.RemapAccesses(col, tp.Accesses)
		ucb, err := cache.AnalyzeUCB(col.Graph, acc, cfgSys.Cache)
		if err != nil {
			return nil, fmt.Errorf("system: task %s: %w", tp.Name, err)
		}
		preps = append(preps, prepared{
			tp: tp, off: off, col: col, ucb: ucb,
			ecb:  cache.ECB(acc),
			bcet: off.BCET, wcet: off.WCET,
		})
	}

	// Build the task set (C = WCET) and sort for FP.
	set := make(task.Set, 0, n)
	for _, p := range preps {
		set = append(set, task.Task{
			Name: p.tp.Name, C: p.wcet, BCET: p.bcet,
			T: p.tp.T, D: p.tp.D, Prio: p.tp.Prio, Jitter: p.tp.Jitter,
			Q: p.tp.Q,
		})
	}
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("system: %w", err)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if cfgSys.Policy == npr.FixedPriority {
		// Sort indices by (Prio, Name) to keep preps aligned.
		for i := 1; i < n; i++ {
			for j := i; j > 0; j-- {
				a, b := set[order[j-1]], set[order[j]]
				if a.Prio < b.Prio || (a.Prio == b.Prio && a.Name <= b.Name) {
					break
				}
				order[j-1], order[j] = order[j], order[j-1]
			}
		}
	}
	sorted := make(task.Set, n)
	for i, idx := range order {
		sorted[i] = set[idx]
	}

	// Assign missing Q from the blocking tolerances.
	needQ := false
	for _, tk := range sorted {
		if tk.Q == 0 {
			needQ = true
		}
	}
	if needQ {
		qs, err := npr.AssignQ(sorted, cfgSys.Policy)
		if err != nil {
			return nil, fmt.Errorf("system: %w", err)
		}
		for i := range sorted {
			if sorted[i].Q == 0 {
				sorted[i].Q = qs[i].Q
			}
		}
	}

	// Preempter ECBs per victim: under FP, tasks with higher priority;
	// under EDF, any task can have an earlier absolute deadline at run
	// time, so the union of all other tasks' ECBs is the safe choice.
	preempterECB := func(victim int) cache.LineSet {
		union := cache.NewLineSet()
		for i, idx := range order {
			p := preps[idx]
			switch cfgSys.Policy {
			case npr.FixedPriority:
				if i < victim {
					union.Union(p.ecb)
				}
			default: // EDF
				if i != victim {
					union.Union(p.ecb)
				}
			}
		}
		return union
	}

	res := &Result{Set: sorted}
	fns := make([]delay.Function, n)
	for i, idx := range order {
		p := preps[idx]
		var f *delay.Piecewise
		var err error
		if cfgSys.UseECB {
			f, err = delay.FromUCBAgainst(p.off, p.ucb, preempterECB(i))
		} else {
			f, err = delay.FromUCB(p.off, p.ucb)
		}
		if err != nil {
			return nil, fmt.Errorf("system: task %s: %w", p.tp.Name, err)
		}
		_, maxCRPD := f.Max()
		r, err := core.Analyze(nil, f, sorted[i].Q, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("system: task %s: %w", p.tp.Name, err)
		}
		res.Tasks = append(res.Tasks, TaskAnalysis{
			Task: sorted[i], BCET: p.bcet,
			Delay: f, MaxCRPD: maxCRPD,
			TotalDelay: r.TotalDelay,
			EffectiveC: sorted[i].C + r.TotalDelay,
		})
		if maxCRPD > 0 {
			fns[i] = f
		}
	}

	opts := sched.Options{Delay: fns, Method: sched.Algorithm1}
	switch cfgSys.Policy {
	case npr.FixedPriority:
		r, err := sched.Analyze(nil, sorted, opts)
		if err != nil {
			return nil, err
		}
		res.ResponseTimes = r.Response
		res.Schedulable = r.Schedulable
	case npr.EDF:
		opts.Policy = sched.EDF
		r, err := sched.Analyze(nil, sorted, opts)
		if err != nil {
			return nil, err
		}
		res.Schedulable = r.Schedulable
	default:
		return nil, fmt.Errorf("system: unknown policy %v", cfgSys.Policy)
	}
	return res, nil
}
