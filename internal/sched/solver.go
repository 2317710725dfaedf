package sched

import (
	"math"
	"sort"

	"fnpr/internal/guard"
	"fnpr/internal/npr"
	"fnpr/internal/obs"
	"fnpr/internal/task"
)

// This file implements the cutting-plane / QPA fixpoint solvers behind
// Analyze (DESIGN.md §15): the response-time recurrence is accelerated by
// jumping to the root of its linear relaxation, and the EDF demand test by
// the QPA-style descending deadline walk. Both produce bit-identical results
// to the monotone iterations — differentially asserted on 10k random task
// sets in solver_test.go and fuzzed continuously by FuzzSolverEquivalence.

// Cutting-plane safety margins (mirroring the constants in internal/core):
// a jump target is the relaxation root shaved by max(cutRelShave·|root|,
// cutAbsShave), which exceeds the worst-case floating-point error of the
// root computation by orders of magnitude, so the target stays strictly
// below the real root and therefore at or below the least fixpoint the
// monotone iteration converges to. Relaxation slopes above cutSlopeCap
// would amplify rounding in lin/(1-slope) beyond what the shave covers, so
// no jump is attempted there.
const (
	cutRelShave = 1e-9
	cutAbsShave = 1e-12
	cutSlopeCap = 0.999
)

// cutRoot analyses the linear relaxation of task i's response-time
// recurrence anchored at a:
//
//	g(x) = base + Σ_{j<i} ceil((x+Jj)/Tj) · uj      (uj = Cj + γij)
//	h(x) = base + Σ_{j<i} max(nj, (x+Jj)/Tj) · uj   (nj = ceil((a+Jj)/Tj))
//
// h ≤ g for every x ≥ a (ceil dominates both its argument and its value at
// a), so h's least root lower-bounds the recurrence's least fixpoint above
// a. h is continuous, convex and piecewise linear with breakpoints nj·Tj −
// Jj where term j switches from its constant floor nj·uj to its linear part;
// the walk visits segments in breakpoint order, maintaining the running
// intercept and slope, and returns the first segment-consistent root
// (found). Segments whose accumulated slope reaches cutSlopeCap contribute
// no root: near- or super-unit slope would amplify rounding in lin/(1-slope)
// beyond what the shave covers.
//
// The walk doubles as a refutation: when h(x) - x clears the safety margin
// at the anchor, at every breakpoint and at limit, then h — and therefore g
// — has no fixpoint in [a, limit] (the difference is linear between checked
// points), and unsat is reported. With limit the deadline, the caller can
// conclude the monotone climb would only end past it, skipping the climb
// entirely. At most one of found/unsat is set; both false means the
// relaxation is inconclusive (e.g. a root hides in a slope-capped segment).
func cutRoot(ts task.Set, gamma func(i, j int) float64, i int, base, a, limit float64) (root float64, found, unsat bool) {
	type cutSeg struct{ bp, linD, slopeD float64 }
	segs := make([]cutSeg, 0, i)
	lin := base
	slope := 0.0
	for j := 0; j < i; j++ {
		u := ts[j].C
		if gamma != nil {
			u += gamma(i, j)
		}
		t, jit := ts[j].T, ts[j].Jitter
		n := math.Ceil((a + jit) / t)
		lin += n * u
		segs = append(segs, cutSeg{
			bp:     n*t - jit,
			linD:   u*(jit/t) - n*u,
			slopeD: u / t,
		})
	}
	sort.Slice(segs, func(x, y int) bool { return segs[x].bp < segs[y].bp })
	margin := func(x float64) float64 {
		return math.Max(cutRelShave*math.Abs(x), cutAbsShave)
	}
	// At an exact fixpoint h(a) - a is zero, which voids the refutation
	// (there IS a fixpoint at or below limit); the margin keeps float noise
	// from resurrecting it.
	certified := lin-a > margin(a)
	for k := 0; ; k++ {
		end, last := limit, true
		if k < len(segs) && segs[k].bp < limit {
			end, last = segs[k].bp, false
		}
		if slope < cutSlopeCap {
			if r := lin / (1 - slope); r <= end {
				if math.IsNaN(r) || math.IsInf(r, 0) {
					return 0, false, false
				}
				return r, true, false
			}
		}
		if certified && lin+slope*end-end <= margin(end) {
			certified = false
		}
		if last {
			return 0, false, certified
		}
		lin += segs[k].linD
		slope += segs[k].slopeD
	}
}

// edfMaxPoints caps the deadline list the QPA walk materializes (16 MB of
// float64 at the cap); sets beyond it fall back to the plain enumeration,
// which streams the deadlines instead.
const edfMaxPoints = 2_000_000

// edfDeadlines lists every absolute deadline d = Di + k·Ti ≤ horizon of the
// task set, sorted ascending, accumulated exactly like the monotone
// enumeration (d += T) so both solvers test identical float values. ok is
// false when the list would exceed edfMaxPoints.
func edfDeadlines(ts task.Set, horizon float64) (pts []float64, ok bool) {
	for _, tk := range ts {
		for d := tk.Deadline(); d <= horizon; d += tk.T {
			if len(pts) >= edfMaxPoints {
				return nil, false
			}
			pts = append(pts, d)
		}
	}
	sort.Float64s(pts)
	return pts, true
}

// edfDemandTest checks dbf'(t) + max_{Dj > t} min(Qj, C'j) <= t at every
// absolute deadline t up to the horizon with the QPA-style descending walk,
// or, with monotone (the tests' reference), by enumerating every deadline.
// Verdicts are identical (solver_test.go).
func edfDemandTest(g *guard.Ctx, sc *obs.Scope, inflated task.Set, cp []float64, horizon float64, monotone bool) (bool, error) {
	if monotone {
		return edfDemandEnum(g, sc, inflated, cp, horizon)
	}
	pts, ok := edfDeadlines(inflated, horizon)
	if !ok {
		sc.Counter("sched.rta.solver.fallbacks").Inc()
		return edfDemandEnum(g, sc, inflated, cp, horizon)
	}
	return edfDemandQPA(g, sc, inflated, cp, pts)
}

// edfDemandEnum checks every absolute deadline, one guard step per deadline:
// the reference walk, and the fallback when the deadline list is too long to
// materialize.
func edfDemandEnum(g *guard.Ctx, sc *obs.Scope, inflated task.Set, cp []float64, horizon float64) (bool, error) {
	solverIters := sc.Counter("sched.rta.solver.iterations")
	for _, tk := range inflated {
		for d := tk.Deadline(); d <= horizon; d += tk.T {
			if err := g.Tick(); err != nil {
				return false, err
			}
			solverIters.Inc()
			demand := npr.DemandBound(inflated, d)
			if demand+edfBlocking(inflated, cp, d) > d+1e-9 {
				return false, nil
			}
		}
	}
	return true, nil
}

// edfBlocking is the floating-NPR blocking term at deadline d: the largest
// min(Qj, C'j) over tasks whose relative deadline exceeds d. It is zero for
// d at or above the largest relative deadline.
func edfBlocking(inflated task.Set, cp []float64, d float64) float64 {
	var blocking float64
	for j := range inflated {
		if inflated[j].Deadline() > d {
			if q := math.Min(inflated[j].Q, cp[j]); q > blocking {
				blocking = q
			}
		}
	}
	return blocking
}

// edfDemandQPA runs the two-phase QPA-style walk over the sorted deadline
// list pts.
//
// Phase 1 descends over deadlines above Dmax (the largest relative
// deadline), where the blocking term is identically zero: after checking
// deadline t with demand h = dbf(t) ≤ t + 1e-9, every deadline d' in
// [h, t) satisfies dbf(d') ≤ dbf(t) = h ≤ d' (dbf is monotone in d and both
// solvers evaluate it on identical floats), so the walk skips straight to
// the largest deadline below min(h, t). Phase 2 checks every deadline at or
// below Dmax exhaustively — there the blocking term grows as d shrinks, so
// the skip argument does not apply. Every skipped point is provably
// violation-free and every other point is checked with the enumeration's
// exact predicate, so the verdict is identical.
func edfDemandQPA(g *guard.Ctx, sc *obs.Scope, inflated task.Set, cp []float64, pts []float64) (bool, error) {
	solverIters := sc.Counter("sched.rta.solver.iterations")
	var dmax float64
	for _, tk := range inflated {
		if d := tk.Deadline(); d > dmax {
			dmax = d
		}
	}
	// Phase 1: QPA descent above Dmax (blocking = 0).
	i := len(pts) - 1
	for i >= 0 && pts[i] > dmax {
		t := pts[i]
		if err := g.Tick(); err != nil {
			return false, err
		}
		solverIters.Inc()
		demand := npr.DemandBound(inflated, t)
		if demand > t+1e-9 {
			return false, nil
		}
		// Largest remaining deadline strictly below min(demand, t).
		i = sort.SearchFloat64s(pts[:i], math.Min(demand, t)) - 1
	}
	// Phase 2: exhaustive check at and below Dmax.
	limit := sort.Search(len(pts), func(k int) bool { return pts[k] > dmax })
	for k := 0; k < limit; k++ {
		if err := g.Tick(); err != nil {
			return false, err
		}
		solverIters.Inc()
		d := pts[k]
		demand := npr.DemandBound(inflated, d)
		if demand+edfBlocking(inflated, cp, d) > d+1e-9 {
			return false, nil
		}
	}
	return true, nil
}

// edfSchedulable runs the processor-demand test with effective WCETs and the
// floating-NPR blocking term of Bertogna and Baruah. Divergent effective
// WCETs and over-unit utilization are unschedulable, not errors.
func edfSchedulable(g *guard.Ctx, sc *obs.Scope, ts task.Set, cp []float64, monotone bool) (bool, error) {
	inflated := ts.Clone()
	for i := range inflated {
		if math.IsInf(cp[i], 1) {
			return false, nil
		}
		inflated[i].C = cp[i]
	}
	if inflated.Utilization() > 1 {
		return false, nil
	}
	horizon, err := npr.AnalysisHorizon(inflated)
	if err != nil {
		return false, err
	}
	return edfDemandTest(g, sc, inflated, cp, horizon, monotone)
}
