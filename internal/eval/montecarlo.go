package eval

import (
	"math"
	"runtime"
	"sync/atomic"

	"fnpr/internal/core"
	"fnpr/internal/delay"
	"fnpr/internal/guard"
	"fnpr/internal/obs"
	"fnpr/internal/sim"
	"fnpr/internal/synth"
	"fnpr/internal/task"
)

// MonteCarloParams configures the simulation campaign that stress-tests
// Theorem 1 empirically: draw random floating-NPR jobsets, simulate them,
// and check that Algorithm 1's cumulative-delay bound dominates the delay
// every simulated job actually paid.
type MonteCarloParams struct {
	// Seed makes the campaign reproducible; each trial draws from its
	// own sub-stream (synth.Stream.Sub), so results are independent of the
	// worker count.
	Seed int64
	// Trials is the number of random jobsets to simulate.
	Trials int
	// MaxTasks caps the per-trial task count (each trial draws 2..MaxTasks).
	MaxTasks int
	// Horizon is the simulated span per trial.
	Horizon float64
	// Workers sizes the worker pool; <= 0 selects GOMAXPROCS, 1 runs
	// serially. Each worker owns one pooled sim.Runner.
	Workers int
	// Obs receives campaign progress events and metrics; nil falls back
	// to the guard's scope.
	Obs *obs.Scope
}

// DefaultMonteCarloParams returns the configuration the simulate binary and
// the benchmark suite use.
func DefaultMonteCarloParams() MonteCarloParams {
	return MonteCarloParams{
		Seed:     1,
		Trials:   2000,
		MaxTasks: 4,
		Horizon:  2000,
	}
}

// Validate rejects malformed campaign parameters up front.
func (p MonteCarloParams) Validate() error {
	switch {
	case p.Trials <= 0:
		return guard.Invalidf("eval: Trials %d, need > 0", p.Trials)
	case p.Trials > maxTrials:
		return guard.Invalidf("eval: Trials %d exceeds the limit of %d", p.Trials, maxTrials)
	case p.MaxTasks < 2:
		return guard.Invalidf("eval: MaxTasks %d, need >= 2", p.MaxTasks)
	case p.MaxTasks > maxTasks:
		return guard.Invalidf("eval: MaxTasks %d exceeds the limit of %d", p.MaxTasks, maxTasks)
	case math.IsNaN(p.Horizon) || math.IsInf(p.Horizon, 0) || p.Horizon <= 0:
		return guard.Invalidf("eval: Horizon %g, need finite > 0", p.Horizon)
	}
	return nil
}

func (p MonteCarloParams) scope(g *guard.Ctx) *obs.Scope {
	if p.Obs != nil {
		return p.Obs
	}
	return g.Obs()
}

// MonteCarloReport aggregates the campaign. Violations must be zero: a
// single job paying more than its task's Algorithm 1 bound would falsify
// Theorem 1 (or expose a simulator/analysis bug).
type MonteCarloReport struct {
	Trials      int     // trials simulated
	Jobs        int     // jobs observed across all schedules
	Preemptions int     // preemptions observed
	Violations  int     // jobs whose paid delay exceeded their bound
	MaxPaid     float64 // largest cumulative delay any job paid
	MinSlack    float64 // tightest bound-minus-paid gap over preempted jobs (+Inf if none)
}

// mcVerdict is one trial's contribution, a pure function of (Seed, trial).
type mcVerdict struct {
	jobs, preemptions, violations int
	maxPaid, minSlack             float64
}

// mcWorker is one pool worker's state: its pooled simulator and shard
// stream, and the tally of the campaign scope its analyses count into.
type mcWorker struct {
	runner *sim.Runner
	st     synth.Stream
	sc     *obs.Scope
}

// monteCarloTrial draws the trial's jobset from its own RNG sub-stream,
// simulates it on the worker's pooled runner and compares every job's
// paid delay against its task's Algorithm 1 bound. The generator mirrors the
// sim package's Theorem 1 integration test: peaked random delay functions
// with Q > max delay so every bound converges.
func monteCarloTrial(g *guard.Ctx, p MonteCarloParams, trial int, w *mcWorker) (mcVerdict, error) {
	v := mcVerdict{minSlack: math.Inf(1)}
	if err := g.Tick(); err != nil {
		return v, err
	}
	r := w.st.Sub(p.Seed, 0, trial)
	n := 2 + r.Intn(p.MaxTasks-1)
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
		fns = append(fns, synth.DelayFunction(r, c, maxD, 1+r.Intn(5)))
	}
	policy := sim.FixedPriority
	if trial%2 == 1 {
		policy = sim.EDF
	}
	res, err := w.runner.Run(g, sim.Config{
		Tasks: ts, Policy: policy, Mode: sim.FloatingNPR,
		Horizon: p.Horizon, Delay: fns,
		ExecTime:   0.6 + 0.4*r.Float64(),
		SwitchCost: 0.1 * r.Float64(),
	})
	if err != nil {
		return v, err
	}
	for i := range ts {
		b, err := core.Analyze(g, fns[i], ts[i].Q, core.Options{Obs: w.sc})
		if err != nil {
			return v, err
		}
		bound := b.TotalDelay
		for _, j := range res.Jobs {
			if j.Task != i {
				continue
			}
			v.jobs++
			v.preemptions += j.Preemptions
			if j.DelayPaid > v.maxPaid {
				v.maxPaid = j.DelayPaid
			}
			if j.DelayPaid > bound+1e-9 {
				v.violations++
			}
			if j.Preemptions > 0 {
				if slack := bound - j.DelayPaid; slack < v.minSlack {
					v.minSlack = slack
				}
			}
		}
	}
	return v, nil
}

// MonteCarlo runs the campaign. Trials are sharded over p.Workers
// goroutines, each owning one pooled sim.Runner and synth.Stream and a
// tally of the campaign scope that it flushes after every trial; verdicts
// are aggregated in trial order, so the report is bit-identical for every
// worker count.
func MonteCarlo(g *guard.Ctx, p MonteCarloParams) (*MonteCarloReport, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := g.Err(); err != nil {
		return nil, err
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sc := p.scope(g)
	sc.Emit(obs.Event{Type: obs.CampaignStarted, Spec: "montecarlo", Total: p.Trials})
	mCampaignWorkers.On(sc).Set(float64(workers))
	trialsDone := mCampaignTrials.On(sc)
	// Progress granularity: ten CampaignPoint events across the run.
	chunk := p.Trials / 10
	if chunk == 0 {
		chunk = 1
	}

	verdicts := make([]mcVerdict, p.Trials)
	var completed atomic.Int64
	err := runPool(g, workers, p.Trials, func() func(*guard.Ctx, int) error {
		w := &mcWorker{runner: sim.NewRunner(), sc: sc.Tally()}
		return func(g *guard.Ctx, tr int) error {
			v, err := monteCarloTrial(g, p, tr, w)
			w.sc.Flush()
			if err != nil {
				return err
			}
			verdicts[tr] = v
			trialsDone.Inc()
			if done := completed.Add(1); done%int64(chunk) == 0 {
				sc.Emit(obs.Event{Type: obs.CampaignPoint, Spec: "montecarlo",
					Completed: int(done), Total: p.Trials})
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}

	rep := &MonteCarloReport{Trials: p.Trials, MinSlack: math.Inf(1)}
	for _, v := range verdicts {
		rep.Jobs += v.jobs
		rep.Preemptions += v.preemptions
		rep.Violations += v.violations
		if v.maxPaid > rep.MaxPaid {
			rep.MaxPaid = v.maxPaid
		}
		if v.minSlack < rep.MinSlack {
			rep.MinSlack = v.minSlack
		}
	}
	sc.Emit(obs.Event{Type: obs.CampaignFinished, Spec: "montecarlo",
		Completed: p.Trials, Total: p.Trials})
	return rep, nil
}
