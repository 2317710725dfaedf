// Package sched provides schedulability analyses that consume the
// preemption-delay bounds of package core: classic fixed-priority
// response-time analysis (RTA), the CRPD-aware RTA variants the paper's
// related-work section surveys (Busquets-style maximum-cost inflation and
// Petters-style preempter-damage inflation), and the floating-NPR analyses
// that plug in the effective WCET C' = C + total_delay of Equation 5 for
// both fixed-priority and EDF scheduling.
//
// Analyze is the package's single entry point; Options selects the policy
// (fixed-priority or EDF), the delay method, CRPD inflation, the
// preemption-count refinement, the fixpoint solver and warm seeding. The
// former ResponseTimes*/FNPRAnalysis.* entry points survive only as test
// shims in compat_test.go.
package sched

import (
	"errors"
	"fmt"
	"math"

	"fnpr/internal/core"
	"fnpr/internal/delay"
	"fnpr/internal/exact"
	"fnpr/internal/guard"
	"fnpr/internal/obs"
	"fnpr/internal/task"
)

// maxRTAIterations caps the response-time fixpoint iteration.
const maxRTAIterations = 1_000_000

// CRPDMethod selects how preemption costs inflate the RTA.
type CRPDMethod int

const (
	// NoCRPD ignores preemption delay (the classic, optimistic RTA).
	NoCRPD CRPDMethod = iota
	// BusquetsMax charges every preemption of τi the maximum CRPD of
	// τi, following Busquets-Mataix et al. (reference [5]).
	BusquetsMax
	// PettersDamage charges each preemption by τj the smaller of τi's
	// maximum CRPD and the maximum damage τj can cause (its ECB-limited
	// eviction cost), following Petters and Färber (reference [1]).
	PettersDamage
)

// String implements fmt.Stringer.
func (m CRPDMethod) String() string {
	switch m {
	case NoCRPD:
		return "none"
	case BusquetsMax:
		return "busquets-max"
	case PettersDamage:
		return "petters-damage"
	default:
		return fmt.Sprintf("CRPDMethod(%d)", int(m))
	}
}

// CRPDParams carries the per-task cache quantities the CRPD-aware RTAs use.
type CRPDParams struct {
	// MaxCRPD[i] is the largest preemption delay task i can suffer
	// (max of its fi).
	MaxCRPD []float64
	// Damage[j] is the largest eviction damage task j can inflict when
	// it preempts (Petters-style preempter cost). Only used by
	// PettersDamage.
	Damage []float64
}

// crpdGamma builds the per-preemption cost function for the CRPD-aware RTA.
func crpdGamma(ts task.Set, m CRPDMethod, p CRPDParams) (func(i, j int) float64, error) {
	if m == NoCRPD {
		return nil, nil
	}
	if len(p.MaxCRPD) != len(ts) {
		return nil, guard.Invalidf("sched: MaxCRPD has %d entries for %d tasks", len(p.MaxCRPD), len(ts))
	}
	return func(i, j int) float64 {
		switch m {
		case BusquetsMax:
			return p.MaxCRPD[i]
		case PettersDamage:
			g := p.MaxCRPD[i]
			if len(p.Damage) == len(ts) && p.Damage[j] < g {
				g = p.Damage[j]
			}
			return g
		default:
			return 0
		}
	}, nil
}

// DelayMethod selects the cumulative-delay bound used for C'.
type DelayMethod int

const (
	// Algorithm1 uses the paper's Algorithm 1 (the contribution).
	Algorithm1 DelayMethod = iota
	// Equation4 uses the state-of-the-art iterative bound.
	Equation4
	// Exact uses the schedule-graph exploration of internal/exact — the
	// true worst-case cumulative delay rather than an upper bound. Bounded
	// by Options.ExactStates; tasks whose exploration exceeds the budget
	// (or whose delay function is not piecewise-constant) degrade to
	// Algorithm 1, reported per task in Result.Degraded.
	Exact
)

// String implements fmt.Stringer.
func (m DelayMethod) String() string {
	switch m {
	case Algorithm1:
		return "algorithm1"
	case Equation4:
		return "equation4"
	case Exact:
		return "exact"
	default:
		return fmt.Sprintf("DelayMethod(%d)", int(m))
	}
}

// responseTimes is the shared fixpoint engine over a set its caller has
// validated. gamma(i,j) is the preemption cost added to each release of
// higher-priority task j while analysing task i (nil = 0). blocking[i] is the
// blocking term added to task i (nil = 0). The fixpoint charges one guard
// step per iteration.
//
// warm optionally seeds each task's iteration with a previously computed
// response time (in the same jitter-inclusive scale the function returns).
// Soundness: the recurrence's right-hand side is monotone in r, so from ANY
// seed at or below the least fixpoint the iterates stay below it and — the
// reachable values form a finite lattice of release-count combinations —
// settle on exactly the least fixpoint. The result is therefore bit-identical
// to a cold start; only the iteration count shrinks. Callers must guarantee
// warm[i] <= task i's true response time; entries that are non-finite or
// below the cold-start value are ignored (cold start is always sound).
//
// Between monotone steps the solver jumps to the shaved root of the
// linearized recurrence — same fixpoints, far fewer iterations; see solver.go
// for the cut construction and the fallback rules. monotone disables the
// jumps and the refutation, iterating the recurrence one step at a time: the
// reference the tests compare against.
func responseTimes(g *guard.Ctx, sc *obs.Scope, ts task.Set, gamma func(i, j int) float64, blocking []float64, warm []float64, monotone bool) ([]float64, error) {
	if len(ts) == 0 {
		return nil, guard.Invalidf("sched: empty task set")
	}
	if err := g.EntryErr(); err != nil {
		return nil, err
	}
	// Counts accumulate in locals and are flushed once per return, as in
	// core.upperBoundFrom: the fixpoint loop performs no atomic operations.
	var iters, seeded, cuts, falls int64
	defer func() {
		mRTAIterations.On(sc).Add(iters)
		mSolverIterations.On(sc).Add(iters)
		mWarmSeeded.On(sc).Add(seeded)
		mSolverCuts.On(sc).Add(cuts)
		mSolverFallbacks.On(sc).Add(falls)
	}()
	out := make([]float64, len(ts))
	var segBuf cutScratch // lent to every cutRoot call below
	for i, tk := range ts {
		base := tk.C
		if blocking != nil {
			base += blocking[i]
		}
		r := base
		if i < len(warm) {
			// warm values include jitter; the iteration variable does not.
			if w := warm[i] - tk.Jitter; w > r && !math.IsInf(w, 1) && !math.IsNaN(w) {
				r = w
				seeded++
			}
		}
		deadline := tk.Deadline()
		// Cutting-plane state: lastSound is the most recent iterate
		// produced by plain monotone steps (always a certified lower bound
		// on the least fixpoint); iterates past a jump are speculative
		// until the chain re-converges, and any doubt signal reverts to
		// lastSound with jumps disabled — a warm-started monotone run.
		lastSound := r
		speculative, jumpedLast := false, false
		// jumps gates cutting-plane acceleration; refute gates the
		// no-fixpoint-below-deadline certificate. A deadline fallback
		// disables jumps but keeps refuting (the certificate anchors only
		// at certified monotone iterates, so it stays sound and can end
		// the re-climb early); an overshoot fallback disables both, since
		// it casts doubt on the relaxation itself.
		jumps := !monotone && i > 0
		refute := jumps
		ok := false
		for iter := 0; iter < maxRTAIterations; iter++ {
			if err := g.Tick(); err != nil {
				return nil, err
			}
			iters++
			next := base
			for j := 0; j < i; j++ {
				gm := 0.0
				if gamma != nil {
					gm = gamma(i, j)
				}
				next += math.Ceil((r+ts[j].Jitter)/ts[j].T) * (ts[j].C + gm)
			}
			if next == r && (!speculative || !jumpedLast) {
				ok = true
				break
			}
			if next <= r && speculative {
				// A non-increasing iterate on a speculative chain means the
				// jump overshot or landed on a fixpoint it cannot certify
				// as least. Revert and iterate plainly. (Outside
				// speculation a decreasing iterate only arises from a
				// contract-violating warm seed; the chain then follows the
				// legacy decreasing path below.)
				falls++
				r = lastSound
				speculative, jumpedLast = false, false
				jumps, refute = false, false
				continue
			}
			jumpedLast = false
			r = next
			if !speculative {
				lastSound = r
			}
			if r+tk.Jitter > deadline {
				if !speculative {
					break
				}
				// The deadline verdict must come from a certified chain:
				// re-derive it monotonically from the last sound iterate.
				falls++
				r = lastSound
				speculative, jumps = false, false
				continue
			}
			if jumps || (refute && !speculative) {
				root, found, unsat := cutRoot(ts, gamma, i, base, r, deadline-tk.Jitter, &segBuf)
				if unsat && !speculative {
					// The relaxation stays above the diagonal all the way to
					// the deadline: no fixpoint exists at or below it, so the
					// monotone climb could only end past the deadline. Same
					// +Inf verdict, without the climb. (Speculative chains
					// may not conclude verdicts; they never reach here with
					// unsat anyway, as speculation starts only after a root
					// was found.)
					cuts++
					break
				}
				if jumps && found {
					cut := min(root-max(cutRelShave*math.Abs(root), cutAbsShave), deadline-tk.Jitter)
					if cut > r {
						r = cut
						speculative, jumpedLast = true, true
						cuts++
					}
				}
			}
		}
		if !ok || r+tk.Jitter > deadline {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = r + tk.Jitter
	}
	return out, nil
}

// Schedulable reports whether all response times meet their deadlines.
func Schedulable(ts task.Set, rts []float64) bool {
	for i, r := range rts {
		if math.IsInf(r, 1) || r > ts[i].Deadline() {
			return false
		}
	}
	return true
}

// effectiveWCETs computes C'i = Ci + delay_bound(fi, Qi) for every task
// (Equation 5 of the paper). A nil Delay slice means no task suffers
// preemption delay. Per-task bounds run through core.Analyze (counted by
// sched.cprime.computed) or, for Method Exact, the exact engine.
//
// The second return is non-nil only for Method Exact: degraded[i] reports
// that task i's exact exploration was infeasible (state budget exceeded, or
// a delay function the exact engine cannot lower) and its bound fell back
// to Algorithm 1 — still sound, just an upper bound instead of the exact
// value. Degradations are counted by exact.degraded.
func effectiveWCETs(g *guard.Ctx, sc *obs.Scope, ts task.Set, opts Options) ([]float64, []bool, error) {
	out := make([]float64, len(ts))
	if opts.Delay == nil {
		for i, tk := range ts {
			out[i] = tk.C
		}
		return out, nil, nil
	}
	if len(opts.Delay) != len(ts) {
		return nil, nil, guard.Invalidf("sched: %d delay functions for %d tasks", len(opts.Delay), len(ts))
	}
	// Computed bounds count in a local and flush once per call, on every
	// return path from here on.
	var computed int64
	defer func() { mCPrimeComputed.On(sc).Add(computed) }()
	var degraded []bool
	if opts.Method == Exact {
		degraded = make([]bool, len(ts))
	}
	for i, tk := range ts {
		if opts.Delay[i] == nil {
			out[i] = tk.C
			continue
		}
		if d := opts.Delay[i].Domain(); math.Abs(d-tk.C) > 1e-9 {
			return nil, nil, guard.Invalidf("sched: task %s has C=%g but delay function domain %g", tk.Name, tk.C, d)
		}
		if tk.Q <= 0 {
			return nil, nil, guard.Invalidf("sched: task %s has no NPR length Q", tk.Name)
		}
		copts := core.Options{Obs: sc}
		switch opts.Method {
		case Algorithm1:
		case Equation4:
			copts.Method = core.Equation4
		case Exact:
			d, ok, err := exactDelay(g, sc, tk, opts.Delay[i], opts)
			if err != nil {
				return nil, nil, fmt.Errorf("sched: task %s: %w", tk.Name, err)
			}
			if ok {
				out[i] = tk.C + d
				continue
			}
			// Degrade this task to Algorithm 1 (copts is already set up).
			degraded[i] = true
			mExactDegraded.On(sc).Inc()
		default:
			return nil, nil, guard.Invalidf("sched: unknown delay method %v", opts.Method)
		}
		r, err := core.Analyze(g, opts.Delay[i], tk.Q, copts)
		if err != nil {
			return nil, nil, fmt.Errorf("sched: task %s: %w", tk.Name, err)
		}
		computed++
		out[i] = tk.C + r.TotalDelay
	}
	return out, degraded, nil
}

// exactDelay runs one task's delay function through the exact engine. The
// second return is false where the exact method cannot apply — a
// non-piecewise-constant function, or a state space above the budget — and
// the caller degrades to Algorithm 1.
func exactDelay(g *guard.Ctx, sc *obs.Scope, tk task.Task, f delay.Function, opts Options) (float64, bool, error) {
	p, ok := exact.AsPiecewise(f)
	if !ok {
		return 0, false, nil
	}
	res, err := exact.Delay(g, p, tk.Q, exact.Options{
		MaxStates: opts.ExactStates,
		Obs:       sc,
	})
	if err != nil {
		var sse *exact.StateSpaceError
		if errors.As(err, &sse) {
			return 0, false, nil
		}
		return 0, false, err
	}
	return res.Delay, true, nil
}

// inflateBuf is how many tasks an inflated copy of a set keeps on the stack.
const inflateBuf = 16

// inflate copies ts into dst's storage (growing it past its capacity) with
// C replaced by the effective WCETs; a divergent entry yields a Divergedf
// error.
func inflate(dst, ts task.Set, cp []float64) (task.Set, error) {
	inflated := append(dst[:0], ts...)
	for i := range inflated {
		if math.IsInf(cp[i], 1) {
			return nil, guard.Divergedf("sched: task %s has divergent delay bound", inflated[i].Name)
		}
		inflated[i].C = cp[i]
	}
	return inflated, nil
}

// fpBlocking returns the floating-NPR blocking term of every task of the
// inflated set: a lower-priority task inside its NPR can delay τi by up to
// min(Qk, C'k), so τi's term is the maximum of that over k > i, built in one
// suffix pass.
func fpBlocking(inflated task.Set, cp []float64) []float64 {
	out := make([]float64, len(inflated))
	var b float64
	for k := len(inflated) - 1; k >= 0; k-- {
		out[k] = b
		if q := min(inflated[k].Q, cp[k]); q > b {
			b = q
		}
	}
	return out
}

// fpResponseTimes runs the fixed-priority RTA with effective WCETs and the
// floating-NPR blocking term:
//
//	Ri = C'i + max_{k>i} min(Qk, C'k) + Σ_{j<i} ceil((Ri+Jj)/Tj) * C'j
func fpResponseTimes(g *guard.Ctx, sc *obs.Scope, ts task.Set, warm, cp []float64, monotone bool) ([]float64, error) {
	var buf [inflateBuf]task.Task
	inflated, err := inflate(buf[:0], ts, cp)
	if err != nil {
		return nil, err
	}
	// Validation of the inflated set may fail C <= D before the RTA can
	// report it gracefully, so check tasks individually here.
	for _, tk := range inflated {
		if tk.C > tk.Deadline() {
			rts := make([]float64, len(inflated))
			for i := range rts {
				rts[i] = math.Inf(1)
			}
			return rts, nil
		}
	}
	return responseTimes(g, sc, inflated, nil, fpBlocking(inflated, cp), warm, monotone)
}
