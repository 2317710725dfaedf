// Package npr computes the lengths Qi of floating non-preemptive regions.
//
// Section III of the paper assumes Qi given, citing two ways to obtain it:
// the EDF demand-bound-function analysis of Bertogna and Baruah (reference
// [2]) and the fixed-priority analysis of Yao, Buttazzo and Bertogna
// (reference [11]) / Marinho and Petters (reference [12]). This package
// implements both, so the library is self-contained: the blocking tolerance
// of each task is derived from the schedulability analysis, and the floating
// NPR length of a task is the largest blocking every task it may delay can
// absorb.
package npr

import (
	"fmt"
	"math"
	"sort"

	"fnpr/internal/guard"
	"fnpr/internal/task"
)

// DemandBound returns the EDF demand bound function of the task set at t:
// the cumulative execution demand of all jobs with both release and deadline
// inside any interval of length t.
func DemandBound(ts task.Set, t float64) float64 {
	var d float64
	for _, tk := range ts {
		n := math.Floor((t-tk.Deadline())/tk.T) + 1
		if n > 0 {
			d += n * tk.C
		}
	}
	return d
}

// maxDeadlinePoints caps the number of demand-test checkpoints; horizons
// near U = 1 can otherwise explode the candidate set.
const maxDeadlinePoints = 2_000_000

// deadlinesUpTo lists the distinct absolute deadlines k*T + D <= limit of
// all tasks, sorted ascending. The list is truncated at maxDeadlinePoints
// (callers treat analyses on a truncated list as failed via
// checkDeadlineBudget).
func deadlinesUpTo(ts task.Set, limit float64) []float64 {
	set := make(map[float64]struct{})
	for _, tk := range ts {
		for d := tk.Deadline(); d <= limit; d += tk.T {
			set[d] = struct{}{}
			if len(set) > maxDeadlinePoints {
				break
			}
		}
	}
	out := make([]float64, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Float64s(out)
	return out
}

// checkDeadlineBudget reports whether the horizon fits the checkpoint cap.
func checkDeadlineBudget(ts task.Set, limit float64) error {
	var points float64
	for _, tk := range ts {
		points += limit / tk.T
	}
	if points > maxDeadlinePoints {
		return guard.Budgetf("npr: demand test needs ~%.0f checkpoints over horizon %g (cap %d); utilization too close to 1", points, limit, maxDeadlinePoints)
	}
	return nil
}

// AnalysisHorizon returns the interval length up to which the EDF demand
// test needs to be checked: beyond it, slack t - dbf(t) can only grow.
// For U < 1 the classic bound max(D_max, U/(1-U) * max(T_i - D_i)) applies,
// capped by the hyperperiod when available.
func AnalysisHorizon(ts task.Set) (float64, error) {
	u := ts.Utilization()
	if u > 1 {
		return 0, guard.Invalidf("npr: utilization %.3f exceeds 1, no horizon", u)
	}
	var dmax, shift float64
	for _, tk := range ts {
		dmax = math.Max(dmax, tk.Deadline())
		shift = math.Max(shift, tk.T-tk.Deadline())
	}
	h := dmax
	if u < 1 {
		h = math.Max(h, u/(1-u)*shift)
	} else if hp, ok := ts.Hyperperiod(); ok {
		h = math.Max(h, hp+dmax)
	} else {
		return 0, guard.Invalidf("npr: U = 1 with non-integral periods: unbounded horizon")
	}
	if hp, ok := ts.Hyperperiod(); ok && hp+dmax < h {
		h = hp + dmax
	}
	return h, nil
}

// EDFBlockingTolerance computes, for every task (sorted by any order), the
// maximum blocking βi that jobs with absolute deadlines earlier than τi's can
// tolerate from a non-preemptive region of a later-deadline job:
//
//	βi = min over absolute deadlines t < Di of (t - dbf(t))
//
// following Bertogna and Baruah's limited-preemption EDF analysis. A negative
// tolerance means the set is not EDF-schedulable even fully preemptively.
// Tasks with the earliest relative deadline get +Inf (no earlier deadline to
// protect, so their own NPR length is unconstrained — they can only be
// "blocked" by even-earlier deadlines, of which there are none shorter).
//
// The demand sweep runs under the guard scope g (nil = no limits), charging
// one guard step per deadline checkpoint.
func EDFBlockingTolerance(g *guard.Ctx, ts task.Set) ([]float64, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if len(ts) == 0 {
		return nil, guard.Invalidf("npr: empty task set")
	}
	horizon, err := AnalysisHorizon(ts)
	if err != nil {
		return nil, err
	}
	if err := checkDeadlineBudget(ts, horizon); err != nil {
		return nil, err
	}
	deadlines := deadlinesUpTo(ts, horizon)
	slacks := make([]float64, len(deadlines))
	for i, t := range deadlines {
		if err := g.Tick(); err != nil {
			return nil, err
		}
		slacks[i] = t - DemandBound(ts, t)
	}
	// Prefix minima: minSlackBelow[i] = min slack at deadlines < x.
	out := make([]float64, len(ts))
	for i, tk := range ts {
		m := math.Inf(1)
		for j, t := range deadlines {
			if t >= tk.Deadline() {
				break
			}
			if slacks[j] < m {
				m = slacks[j]
			}
		}
		out[i] = m
	}
	return out, nil
}

// RequestBound returns the fixed-priority level-i request bound function:
// the worst-case execution demand of τi and all higher-priority tasks over
// an interval of length t, with the set sorted by priority and i an index
// into it. Release jitter is accounted in the standard way.
func RequestBound(ts task.Set, i int, t float64) float64 {
	w := ts[i].C
	for j := 0; j < i; j++ {
		w += math.Ceil((t+ts[j].Jitter)/ts[j].T) * ts[j].C
	}
	return w
}

// FPBlockingTolerance computes, for every task of a priority-sorted set, the
// maximum blocking βi tolerable by τi under fixed-priority scheduling:
//
//	βi = max over t in (0, Di] of (t - Wi(t))
//
// where Wi is the level-i request bound and the maximum is taken over the
// finitely many points where Wi changes (multiples of higher-priority
// periods, plus Di itself). A negative tolerance means τi misses deadlines
// even without blocking.
//
// The level-i sweep runs under the guard scope g (nil = no limits), charging
// one guard step per scheduling point.
func FPBlockingTolerance(g *guard.Ctx, ts task.Set) ([]float64, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if len(ts) == 0 {
		return nil, guard.Invalidf("npr: empty task set")
	}
	out := make([]float64, len(ts))
	for i, tk := range ts {
		points := schedulingPoints(ts, i, tk.Deadline())
		best := math.Inf(-1)
		for _, t := range points {
			if err := g.Tick(); err != nil {
				return nil, err
			}
			if s := t - RequestBound(ts, i, t); s > best {
				best = s
			}
		}
		out[i] = best
	}
	return out, nil
}

// schedulingPoints lists the candidate points for the level-i analysis:
// all multiples of higher-priority periods up to limit, plus limit itself.
func schedulingPoints(ts task.Set, i int, limit float64) []float64 {
	set := map[float64]struct{}{limit: {}}
	for j := 0; j < i; j++ {
		for t := ts[j].T; t < limit; t += ts[j].T {
			set[t] = struct{}{}
		}
	}
	out := make([]float64, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Float64s(out)
	return out
}

// Policy selects the scheduling policy Q is derived for.
type Policy int

const (
	// EDF uses the demand-bound-function tolerance of Bertogna & Baruah.
	EDF Policy = iota
	// FixedPriority uses the level-i tolerance of Yao et al.; the set
	// must already be sorted highest priority first.
	FixedPriority
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case EDF:
		return "EDF"
	case FixedPriority:
		return "FP"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// AssignQ returns a copy of the task set with each task's floating NPR
// length Q set to the largest value permitted by the policy's blocking
// analysis:
//
//	EDF:  Qi = βi — a non-preemptive region of τi can only block jobs
//	      with absolute deadlines earlier than τi's, and βi is by
//	      construction the minimum slack over those deadlines;
//	FP:   Qi = min over tasks τj with higher priority of βj.
//
// A task that can block nobody (earliest deadline / highest priority) gets
// Qi = Ci, making it effectively non-preemptive, which is always safe for
// that task. Tolerances are clamped to [0, Ci]; an error is returned when
// any tolerance is negative (the set is unschedulable even fully
// preemptively).
func AssignQ(ts task.Set, p Policy) (task.Set, error) {
	return AssignQCtx(nil, ts, p)
}

// AssignQCtx is AssignQ under a guard scope.
func AssignQCtx(g *guard.Ctx, ts task.Set, p Policy) (task.Set, error) {
	var tol []float64
	var err error
	switch p {
	case EDF:
		tol, err = EDFBlockingTolerance(g, ts)
	case FixedPriority:
		tol, err = FPBlockingTolerance(g, ts)
	default:
		return nil, guard.Invalidf("npr: unknown policy %v", p)
	}
	if err != nil {
		return nil, err
	}
	out := ts.Clone()
	for i := range out {
		var q float64
		switch p {
		case EDF:
			q = tol[i]
		case FixedPriority:
			q = math.Inf(1)
			for j := 0; j < i; j++ {
				if tol[j] < q {
					q = tol[j]
				}
			}
		}
		if q < 0 {
			return nil, guard.Invalidf("npr: task %s faces negative blocking tolerance %g", out[i].Name, q)
		}
		if q > out[i].C {
			q = out[i].C
		}
		out[i].Q = q
	}
	return out, nil
}

// ValidateQ checks that the Q values carried by the task set are admissible
// under the given policy: every task's non-preemptive region fits within the
// blocking tolerance of everything it can delay. This is the acceptance-side
// counterpart of AssignQ for task sets whose Q was chosen externally. The
// tolerance sweeps run under the guard scope g (nil = no limits).
func ValidateQ(g *guard.Ctx, ts task.Set, p Policy) error {
	var tol []float64
	var err error
	switch p {
	case EDF:
		tol, err = EDFBlockingTolerance(g, ts)
	case FixedPriority:
		tol, err = FPBlockingTolerance(g, ts)
	default:
		return guard.Invalidf("npr: unknown policy %v", p)
	}
	if err != nil {
		return err
	}
	for i, tk := range ts {
		switch p {
		case EDF:
			if tk.Q > tol[i]+1e-9 {
				return fmt.Errorf("npr: task %s Q=%g exceeds EDF tolerance %g", tk.Name, tk.Q, tol[i])
			}
		case FixedPriority:
			for j := 0; j < i; j++ {
				if tk.Q > tol[j]+1e-9 {
					return fmt.Errorf("npr: task %s Q=%g exceeds tolerance %g of higher-priority %s",
						tk.Name, tk.Q, tol[j], ts[j].Name)
				}
			}
		}
	}
	return nil
}
