package sched

import (
	"fmt"

	"fnpr/internal/delay"
	"fnpr/internal/guard"
	"fnpr/internal/obs"
	"fnpr/internal/task"
)

// Policy selects the scheduling policy analysed.
type Policy int

const (
	// FP is fixed-priority scheduling (tasks in priority order, index 0
	// highest); the analysis is the response-time fixpoint.
	FP Policy = iota
	// EDF is earliest-deadline-first; the analysis is the processor-demand
	// test with the floating-NPR blocking term.
	EDF
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case FP:
		return "fp"
	case EDF:
		return "edf"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Options configures Analyze.
type Options struct {
	// Policy selects fixed-priority (default) or EDF analysis.
	Policy Policy

	// Method selects the per-task cumulative-delay bound used for the
	// effective WCETs when Delay is set: Algorithm1 (default, the paper's
	// contribution), Equation4 (the state-of-the-art baseline) or Exact
	// (the schedule-graph exploration of internal/exact, with per-task
	// degradation to Algorithm 1 where the state budget trips).
	Method DelayMethod

	// ExactStates caps the exact exploration's state count per task when
	// Method is Exact: zero selects exact.DefaultMaxStates, negative means
	// unbounded. Tasks over the budget degrade to Algorithm 1 (see
	// Result.Degraded).
	ExactStates int

	// Delay holds one preemption-delay function per task (nil entries =
	// no delay for that task; nil slice = classic analysis without
	// effective-WCET inflation). Mutually exclusive with CRPD.
	Delay []delay.Function

	// CRPD selects a CRPD-aware RTA variant (FP only); NoCRPD (default)
	// disables it. Mutually exclusive with Delay.
	CRPD CRPDMethod

	// CRPDParams carries the cache quantities CRPD methods consume.
	CRPDParams CRPDParams

	// Limited enables the preemption-count refinement (paper future work
	// (ii)): per-task delay bounds limited to the higher-priority release
	// count within the response time, iterated to a decreasing fixpoint.
	// Requires FP policy, Algorithm1 method and a Delay slice.
	Limited bool

	// Warm optionally seeds the FP fixpoint with previously computed
	// response times (jitter-inclusive scale). Callers must guarantee
	// warm[i] is at or below task i's true response time; see
	// responseTimes for the soundness argument. Ignored by EDF.
	Warm []float64

	// Obs overrides the observability scope (default: the guard's scope).
	Obs *obs.Scope
}

// Result carries the outcome of Analyze.
type Result struct {
	// Response holds per-task response times (+Inf = unschedulable);
	// nil for EDF, whose demand test yields only a verdict.
	Response []float64
	// EffectiveC holds the effective WCETs C' = C + delay bound used by
	// the analysis (+Inf where the bound diverged); nil when no delay
	// functions were supplied.
	EffectiveC []float64
	// PreemptionLimit holds the per-task preemption-count bounds at the
	// refined fixpoint (-1 where no delay function applies); nil unless
	// Options.Limited.
	PreemptionLimit []int
	// Degraded, non-nil only for Method Exact, flags tasks whose exact
	// exploration was infeasible and whose bound fell back to Algorithm 1.
	Degraded []bool
	// Schedulable is the verdict: every deadline met.
	Schedulable bool
}

// Analyze is the package's single entry point: it runs the schedulability
// analysis selected by opts on task set ts under guard scope g (nil = no
// limits). Fixed-priority paths return per-task response times; the EDF path
// returns a verdict only. A divergent delay bound is a Divergedf error for
// the FP response-time paths (no finite response exists to report) and an
// unschedulable verdict for EDF.
//
// Fixpoints run on the cutting-plane / QPA solvers of solver.go, which fall
// back to the plain monotone iterations on numerical doubt (DESIGN.md §15).
func Analyze(g *guard.Ctx, ts task.Set, opts Options) (*Result, error) {
	return analyze(g, ts, opts, false)
}

// analyze is Analyze with the solver made explicit: monotone selects the
// plain one-step iterations (every FP fixpoint step and every EDF deadline)
// instead of the accelerated solvers. Only the tests pass true, for the
// reference the accelerated solvers must match bit for bit.
func analyze(g *guard.Ctx, ts task.Set, opts Options, monotone bool) (*Result, error) {
	sc := opts.Obs
	if sc == nil {
		sc = g.Obs()
	}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if len(ts) == 0 {
		return nil, guard.Invalidf("sched: empty task set")
	}
	if opts.CRPD != NoCRPD && opts.Delay != nil {
		return nil, guard.Invalidf("sched: CRPD inflation and delay functions are mutually exclusive")
	}
	if opts.Limited {
		if opts.Policy != FP || opts.Method != Algorithm1 || opts.Delay == nil {
			return nil, guard.Invalidf("sched: preemption-count refinement requires FP policy, Algorithm1 and delay functions")
		}
	}
	switch opts.Policy {
	case FP:
	case EDF:
		if opts.CRPD != NoCRPD {
			return nil, guard.Invalidf("sched: CRPD inflation is FP-only")
		}
	default:
		return nil, guard.Invalidf("sched: unknown policy %v", opts.Policy)
	}

	if opts.Policy == EDF {
		cp, degraded, err := effectiveWCETs(g, sc, ts, opts)
		if err != nil {
			return nil, err
		}
		ok, err := edfSchedulable(g, sc, ts, cp, monotone)
		if err != nil {
			return nil, err
		}
		res := &Result{Schedulable: ok, Degraded: degraded}
		if opts.Delay != nil {
			res.EffectiveC = cp
		}
		return res, nil
	}

	if opts.CRPD != NoCRPD {
		gamma, err := crpdGamma(ts, opts.CRPD, opts.CRPDParams)
		if err != nil {
			return nil, err
		}
		rts, err := responseTimes(g, sc, ts, gamma, nil, opts.Warm, monotone)
		if err != nil {
			return nil, err
		}
		return &Result{Response: rts, Schedulable: Schedulable(ts, rts)}, nil
	}

	if opts.Limited {
		lr, err := limitedAnalysis(g, sc, ts, opts, monotone)
		if err != nil {
			return nil, err
		}
		return &Result{
			Response:        lr.Response,
			EffectiveC:      lr.EffectiveC,
			PreemptionLimit: lr.PreemptionLimit,
			Schedulable:     Schedulable(ts, lr.Response),
		}, nil
	}

	if opts.Delay == nil {
		rts, err := responseTimes(g, sc, ts, nil, nil, opts.Warm, monotone)
		if err != nil {
			return nil, err
		}
		return &Result{Response: rts, Schedulable: Schedulable(ts, rts)}, nil
	}

	cp, degraded, err := effectiveWCETs(g, sc, ts, opts)
	if err != nil {
		return nil, err
	}
	rts, err := fpResponseTimes(g, sc, ts, opts.Warm, cp, monotone)
	if err != nil {
		return nil, err
	}
	return &Result{
		Response:    rts,
		EffectiveC:  cp,
		Schedulable: Schedulable(ts, rts),
		Degraded:    degraded,
	}, nil
}
