package sched

import (
	"math"

	"fnpr/internal/core"
	"fnpr/internal/guard"
	"fnpr/internal/obs"
	"fnpr/internal/task"
)

// LimitedResult carries the outcome of the preemption-count-refined FNPR
// response-time analysis (the paper's future work (ii), implemented via
// core's Limited mode).
type LimitedResult struct {
	// Response holds the per-task response times (+Inf = unschedulable).
	Response []float64
	// EffectiveC holds the refined C' values used at the fixpoint.
	EffectiveC []float64
	// PreemptionLimit holds the per-task preemption-count bounds at the
	// fixpoint (-1 where no delay function applies).
	PreemptionLimit []int
}

// limitedAnalysis runs the fixed-priority FNPR response-time analysis with
// the cumulative delay of each task refined by the number of higher-priority
// releases within its response time: at most that many preemptions can
// occur, so the delay is bounded by the sum of the largest per-window
// charges of Algorithm 1.
//
// The analysis iterates a decreasing fixpoint from the unlimited bound:
// response times yield preemption-count limits, limits yield tighter C',
// tighter C' yield smaller response times, until stable. When a task's
// response exceeds its deadline the count is computed at the deadline (a job
// that misses is not analysed beyond it), keeping the test sound for all
// tasks it declares schedulable.
func limitedAnalysis(g *guard.Ctx, sc *obs.Scope, ts task.Set, opts Options, monotone bool) (*LimitedResult, error) {
	n := len(ts)
	if len(opts.Delay) != n {
		return nil, guard.Invalidf("sched: %d delay functions for %d tasks", len(opts.Delay), n)
	}
	if opts.Method != Algorithm1 {
		return nil, guard.Invalidf("sched: preemption-count refinement requires Algorithm1, got %v", opts.Method)
	}
	boundAt := func(i, lim int) (core.Result, error) {
		return core.Analyze(g, opts.Delay[i], ts[i].Q, core.Options{
			Limited:        lim >= 0,
			MaxPreemptions: lim,
			Obs:            sc,
			Memo:           opts.Memo,
		})
	}
	// Initial C': the unlimited Algorithm 1 bound, or (for divergent
	// bounds) the count-limited bound at the deadline — the refinement
	// is precisely what makes such tasks analysable.
	rel := newReleases(ts)
	cp := make([]float64, n)
	limits := make([]int, n)
	for i, tk := range ts {
		limits[i] = -1
		if opts.Delay[i] == nil {
			cp[i] = tk.C
			continue
		}
		if d := opts.Delay[i].Domain(); math.Abs(d-tk.C) > 1e-9 {
			return nil, guard.Invalidf("sched: task %s has C=%g but delay function domain %g", tk.Name, tk.C, d)
		}
		if tk.Q <= 0 {
			return nil, guard.Invalidf("sched: task %s has no NPR length Q", tk.Name)
		}
		lim, err := rel.countAt(i, tk.Deadline())
		if err != nil {
			return nil, err
		}
		b, err := boundAt(i, lim)
		if err != nil {
			return nil, err
		}
		limits[i] = lim
		cp[i] = tk.C + b.TotalDelay
	}

	var rts []float64
	for iter := 0; iter < 64; iter++ {
		if err := g.Tick(); err != nil {
			return nil, err
		}
		r, err := fpResponseTimes(g, sc, ts, opts.Warm, cp, monotone)
		if err != nil {
			return nil, err
		}
		rts = r
		changed := false
		for i, tk := range ts {
			if opts.Delay[i] == nil {
				continue
			}
			horizon := rts[i]
			if math.IsInf(horizon, 1) || horizon > tk.Deadline() {
				horizon = tk.Deadline()
			}
			lim, err := rel.countAt(i, horizon)
			if err != nil {
				return nil, err
			}
			if lim != limits[i] {
				limits[i] = lim
				b, err := boundAt(i, lim)
				if err != nil {
					return nil, err
				}
				next := tk.C + b.TotalDelay
				if next != cp[i] {
					cp[i] = next
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return &LimitedResult{Response: rts, EffectiveC: cp, PreemptionLimit: limits}, nil
}

// releases holds the periods and release jitters of a priority-sorted set
// side by side, so the preemption count of task i reads its higher-priority
// prefix in place.
type releases struct{ periods, jitters []float64 }

func newReleases(ts task.Set) releases {
	buf := make([]float64, 2*len(ts))
	r := releases{periods: buf[:len(ts)], jitters: buf[len(ts):]}
	for j, tk := range ts {
		r.periods[j], r.jitters[j] = tk.T, tk.Jitter
	}
	return r
}

// countAt bounds task i's preemptions by the higher-priority releases within
// the horizon.
func (r releases) countAt(i int, horizon float64) (int, error) {
	return core.PreemptionCount(horizon, r.periods[:i], r.jitters[:i])
}
