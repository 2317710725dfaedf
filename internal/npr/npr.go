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

// mergeNext is the point enumeration shared by both tolerance sweeps: each
// cursor next[j] walks task j's progression next[j], next[j]+T_j, ...
// (accumulated as next[j] += T_j), and mergeNext returns the smallest
// pending value and advances every cursor holding it. Successive calls
// therefore yield the union of the progressions in ascending order with
// equal values merged, without materialising it. With no cursors it
// returns +Inf.
func mergeNext(ts task.Set, next []float64) float64 {
	m := math.Inf(1)
	for _, t := range next {
		if t < m {
			m = t
		}
	}
	for j, t := range next {
		if t == m {
			next[j] += ts[j].T
		}
	}
	return m
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
	// One cursor per task walks its absolute deadlines D_j + k·T_j; every
	// checkpoint up to the horizon costs one guard step. βi is the minimum
	// slack over the checkpoints below Di, so slack at or above the largest
	// relative deadline is read by no task and is not computed.
	out := make([]float64, len(ts))
	next := make([]float64, len(ts))
	var dmax float64
	for i, tk := range ts {
		out[i] = math.Inf(1)
		next[i] = tk.Deadline()
		dmax = math.Max(dmax, tk.Deadline())
	}
	for t := mergeNext(ts, next); t <= horizon; t = mergeNext(ts, next) {
		if err := g.Tick(); err != nil {
			return nil, err
		}
		if t >= dmax {
			continue
		}
		slack := t - DemandBound(ts, t)
		for i, tk := range ts {
			if t < tk.Deadline() && slack < out[i] {
				out[i] = slack
			}
		}
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

// fpCursorBuf is how many cursors fpBlockingTolerance keeps on the stack,
// and how many tolerances and caps ClampQ does.
const fpCursorBuf = 16

// fpLevels is how many levels the Q derivations sweep under fixed
// priority: they read βj only for tasks that have a lower-priority task to
// be blocked by, so the last task's sweep, the longest one, is skipped.
func fpLevels(ts task.Set) int { return max(len(ts)-1, 0) }

// fpBlockingTolerance validates the priority-sorted set ts and writes into
// out, for each of its first len(out) tasks, the maximum blocking βi
// tolerable by τi under fixed-priority scheduling:
//
//	βi = max over t in (0, Di] of (t - Wi(t))
//
// where Wi is the level-i request bound, evaluated at the scheduling points:
// the multiples k·Tj < Di of the higher-priority periods, plus Di itself.
// Without release jitter these are exactly the points where Wi steps, so
// the maximum is exact. With jitter Wi steps at k·Tj − Jj instead, which
// the enumeration does not visit, so the result is a conservative (lower)
// tolerance for jittered sets. A negative tolerance means τi misses
// deadlines even without blocking.
//
// The points are merged from one cursor per higher-priority task (no point
// list is built). Each level starts from the slack at Di and skips the
// points that cannot raise it (see skipPoints), so only some points are
// evaluated, yet β is the maximum over all of them bit for bit. The
// level-i sweep runs under the guard scope g (nil = no limits), charging
// one guard step per evaluated point and, per skip, one per point of its
// longest cursor run: never more than one per scheduling point.
//
// caps, when not nil, holds one cap per level: level i stops as soon as its
// best slack reaches caps[i] and writes that slack, which lies in
// [caps[i], βi]. best only rises during a sweep, so the written value is
// βi itself whenever it is below caps[i]; a caller that reads βi only
// through min(βi, x) with x ≤ caps[i] gets the same bits either way.
func fpBlockingTolerance(g *guard.Ctx, ts task.Set, out, caps []float64) error {
	if err := ts.Validate(); err != nil {
		return err
	}
	if len(ts) == 0 {
		return guard.Invalidf("npr: empty task set")
	}
	// βi depends on tasks 0…i only, so the sweep needs no task past the
	// last level. Cutting ts itself (not just the loop) keeps every index
	// below len(ts) provable, and the hot loops free of bounds checks.
	ts = ts[:len(out)]
	var buf [fpCursorBuf]float64
	next := buf[:]
	if len(ts) > fpCursorBuf {
		next = make([]float64, len(ts))
	}
	for i, tk := range ts {
		limit := tk.Deadline()
		stop := math.Inf(1)
		if caps != nil {
			stop = caps[i]
		}
		// Di first: its slack seeds best, so the skip can pass over every
		// point below it that cannot do better.
		if err := g.Tick(); err != nil {
			return err
		}
		best := limit - RequestBound(ts, i, limit)
		hp := next[:i]
		for j := range hp {
			hp[j] = ts[j].T
		}
		for t := mergeNext(ts, hp); t < limit && best < stop; t = mergeNext(ts, hp) {
			if err := g.Tick(); err != nil {
				return err
			}
			w := RequestBound(ts, i, t)
			if s := t - w; s > best {
				best = s
			}
			if best >= stop {
				break
			}
			if err := skipPoints(g, ts, hp, limit, w, best); err != nil {
				return err
			}
		}
		out[i] = best
	}
	return nil
}

// skipTickBatch is how many skipped points skipPoints charges to the guard
// at once, so a long run is polled about as often as the merge polled it.
const skipTickBatch = 256

// skipPoints advances every cursor of the level sweep past the points
// whose slack cannot exceed best, given w = Wi(a) at the point a just
// evaluated. All pending points t lie above a, and the float request bound
// is non-decreasing in t (every term is a monotone float operation), so
// fl(t − Wi(t)) ≤ fl(t − w); a point with t − w ≤ best therefore cannot
// raise best, and skipping it leaves β unchanged. Each cursor stops at its
// first point that might (t − w > best, which holds for all its later points
// too) or at its first point at or past the deadline, which the sweep never
// evaluates. A skipped cursor keeps accumulating by += Tj, so every point
// still visited has the value the full merge gives it.
//
// The points skipped are distinct scheduling points below the next one
// evaluated, so the longest cursor run is at most as many points as the
// merge would have ticked for. skipPoints charges g that many steps, in
// batches as the run grows, so a budget, a deadline or a cancellation stops
// a long run; a cursor whose period no longer moves it (t + Tj == t) spins
// here as it spun in the merge, stopped only by the guard.
func skipPoints(g *guard.Ctx, ts task.Set, next []float64, limit, w, best float64) error {
	var charged int64 // the longest run so far
	for j, t := range next {
		var n int64
		for t < limit && t-w <= best {
			t += ts[j].T
			if n++; n-charged == skipTickBatch {
				if err := g.TickN(skipTickBatch); err != nil {
					return err
				}
				charged = n
			}
		}
		next[j] = t
		if n > charged {
			if err := g.TickN(n - charged); err != nil {
				return err
			}
			charged = n
		}
	}
	return nil
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
		tol = make([]float64, fpLevels(ts))
		err = fpBlockingTolerance(g, ts, tol, nil)
	default:
		return nil, guard.Invalidf("npr: unknown policy %v", p)
	}
	if err != nil {
		return nil, err
	}
	out := ts.Clone()
	if err := setQ(out, p, tol, false); err != nil {
		return nil, err
	}
	return out, nil
}

// ClampQ lowers, in place, each task's Q to the value AssignQ would give
// it wherever that is smaller: afterwards Qi = min(Qi, AssignQ's Qi), bit
// for bit, and the error is AssignQ's. On an error no Q changes. The
// tolerance sweeps run under the guard scope g (nil = no limits).
//
// Under fixed priority a task's new Q reads βj only through
// min(βj, min(Qk, Ck)) for the tasks k below j, so level j's sweep stops
// once its slack reaches cap_j = max over k > j of min(Qk, Ck) (see
// fpBlockingTolerance): it evaluates fewer points, and charges g no more
// steps than AssignQCtx does. A level whose βj is negative never reaches
// its cap, since caps are non-negative, so the error fires on exactly the
// sets AssignQ rejects. Up to fpCursorBuf tasks ClampQ allocates nothing.
// Under EDF it sweeps in full, as AssignQ does, and then clamps.
func ClampQ(g *guard.Ctx, ts task.Set, p Policy) error {
	var tol []float64
	var err error
	switch p {
	case EDF:
		tol, err = EDFBlockingTolerance(g, ts)
	case FixedPriority:
		var tolBuf, capBuf [fpCursorBuf]float64
		n := fpLevels(ts)
		caps := capBuf[:]
		tol = tolBuf[:]
		if n > fpCursorBuf {
			tol, caps = make([]float64, n), make([]float64, n)
		}
		tol, caps = tol[:n], caps[:n]
		// cap_j is a suffix maximum over the tasks below level j. A Q
		// that Validate rejects yields a meaningless cap, which the sweep
		// never reads: it validates the set first.
		m := 0.0
		for k := n; k > 0; k-- {
			m = max(m, min(ts[k].Q, ts[k].C))
			caps[k-1] = m
		}
		err = fpBlockingTolerance(g, ts, tol, caps)
	default:
		return guard.Invalidf("npr: unknown policy %v", p)
	}
	if err != nil {
		return err
	}
	return setQ(ts, p, tol, true)
}

// setQ is the tolerance→Q mapping of AssignQ and ClampQ. It sets each Qi of
// ts to the policy's bound over the blocking tolerances tol (EDF: βi; FP:
// the least βj of the tasks above τi, so tol may stop one task short),
// clamped to Ci; with lower set, only where the bound is below Qi. A
// negative tolerance is an error naming the first task it binds, and is
// reported before any Q changes.
func setQ(ts task.Set, p Policy, tol []float64, lower bool) error {
	for j, b := range tol {
		if b < 0 {
			if p == FixedPriority {
				j++ // βj binds the task below τj first
			}
			return guard.Invalidf("npr: task %s faces negative blocking tolerance %g", ts[j].Name, b)
		}
	}
	least := math.Inf(1) // under FP, the least βj over the tasks so far
	for i := range ts {
		q := least
		switch p {
		case EDF:
			q = tol[i]
		case FixedPriority:
			if i < len(tol) && tol[i] < least {
				least = tol[i]
			}
		}
		if q > ts[i].C {
			q = ts[i].C
		}
		if !lower || q < ts[i].Q {
			ts[i].Q = q
		}
	}
	return nil
}
