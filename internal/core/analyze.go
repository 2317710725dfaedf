package core

import (
	"math"
	"slices"

	"fnpr/internal/delay"
	"fnpr/internal/guard"
	"fnpr/internal/memo"
	"fnpr/internal/obs"
)

// Method selects which bound Analyze computes.
type Method int

const (
	// Algorithm1 is the paper's contribution (Section V): the default.
	Algorithm1 Method = iota
	// Equation4 is the state-of-the-art baseline: every possible preemption
	// charged the global maximum of f, preemption count from the fixpoint.
	Equation4
	// NaiveUnsound is the naive point-selection bound refuted by Figure 2.
	// It is retained only to reproduce the paper's counter-example; never
	// use it for analysis. Requires a piecewise-constant function.
	NaiveUnsound
)

// String names the method.
func (m Method) String() string {
	switch m {
	case Algorithm1:
		return "algorithm1"
	case Equation4:
		return "equation4"
	case NaiveUnsound:
		return "naive"
	default:
		return "unknown"
	}
}

// Options configures one Analyze call. The zero value is the common case:
// the traceless, allocation-free Algorithm 1 bound over the whole job.
type Options struct {
	// Method selects the bound; Algorithm1 by default.
	Method Method

	// Trace records the per-iteration trace into Result.Iterations
	// (Algorithm1 only). The traceless walk allocates nothing.
	Trace bool

	// Limited applies the preemption-count refinement (Section VII future
	// work (ii), Algorithm1 only): with at most MaxPreemptions preemptions
	// the bound is the sum of the MaxPreemptions largest per-iteration
	// charges. MaxPreemptions may be 0 (no preemption can occur).
	Limited        bool
	MaxPreemptions int

	// Remaining switches to the run-time refinement (Algorithm1 only,
	// piecewise functions): bound the delay still ahead of a job just
	// preempted at progression From — the current preemption's cost f(From)
	// plus the suffix analysis whose first protected window shrinks by the
	// pending payback.
	Remaining bool
	From      float64

	// Obs overrides the observability scope for this call; when nil the
	// scope attached to the guard (guard.Ctx.WithObs) is used. Metric names
	// are catalogued in DESIGN.md §10.
	Obs *obs.Scope

	// Memo, when non-nil, caches results content-addressed by the canonical
	// fingerprint of (f, q, options) — see memo.go and DESIGN.md §14. Only
	// traceless calls on fingerprintable functions consult it; everything
	// else computes as usual. Build the cache with NewResultCache so it can
	// persist across runs.
	Memo *memo.Cache
}

// Analyze is the single entry point of this package: it computes the selected
// preemption-delay bound for the delay function f under floating-NPR
// scheduling with region length q, under an optional guard scope g
// (cancellation, deadline, step budget — nil means no limits) and with
// observability threaded through (Algorithm 1 iteration counts, Equation 4
// fixpoint iterations and kernel query counts flow into the scope's
// registry).
//
// With Options.Memo set, traceless calls are answered from the
// content-addressed result cache when the exact same (function, Q, options)
// request was analyzed before; hits are bit-identical to a fresh computation
// and marked Result.Cached. See memo.go.
func Analyze(g *guard.Ctx, f delay.Function, q float64, opts Options) (Result, error) {
	if opts.Memo != nil && !opts.Trace {
		if key, verify, ok := memoKeyFor(f, q, opts); ok {
			if v, hit := opts.Memo.Get(key, verify); hit {
				res := v.(Result)
				res.Cached = true
				return res, nil
			}
			res, err := analyze(g, f, q, opts)
			if err == nil {
				opts.Memo.Put(key, verify, res, memoResultSize)
			}
			return res, err
		}
	}
	return analyze(g, f, q, opts)
}

// analyze is the uncached analysis dispatch behind Analyze.
func analyze(g *guard.Ctx, f delay.Function, q float64, opts Options) (Result, error) {
	sc := opts.Obs
	if sc == nil {
		sc = g.Obs()
	}
	switch opts.Method {
	case Algorithm1:
		// Handled below.
	case Equation4:
		if opts.Trace || opts.Limited || opts.Remaining {
			return Result{}, guard.Invalidf("core: Trace/Limited/Remaining apply to Algorithm1 only (method %v)", opts.Method)
		}
		return analyzeEq4(g, sc, f, q)
	case NaiveUnsound:
		if opts.Trace || opts.Limited || opts.Remaining {
			return Result{}, guard.Invalidf("core: Trace/Limited/Remaining apply to Algorithm1 only (method %v)", opts.Method)
		}
		return analyzeNaive(g, sc, f, q)
	default:
		return Result{}, guard.Invalidf("core: unknown analysis method %d", int(opts.Method))
	}

	if opts.Remaining {
		return analyzeRemaining(g, sc, f, q, opts)
	}

	// The n-largest refinement needs the per-iteration charges: the walk
	// writes them into a stack buffer that spills to the heap only for walks
	// longer than limitChargeBuf.
	limited := opts.Limited && opts.MaxPreemptions >= 0
	var charges []float64
	if limited {
		var buf [limitChargeBuf]float64
		charges = buf[:0]
	}
	res, charges, err := upperBoundFrom(g, sc, f, q, q, opts.traceBuf(), charges)
	if err != nil {
		return Result{}, err
	}
	if limited {
		res.TotalDelay = limitCharges(f, res, charges, opts.MaxPreemptions)
		res.Diverged = math.IsInf(res.TotalDelay, 1)
	}
	return res, nil
}

// limitChargeBuf is how many per-iteration charges a limited walk keeps on
// the stack.
const limitChargeBuf = 32

// traceBuf returns the iteration destination: a fresh slice for Trace, or
// nil for the allocation-free walk.
func (o Options) traceBuf() *[]Iteration {
	if !o.Trace {
		return nil
	}
	return new([]Iteration)
}

// limitCharges applies the preemption-count refinement to a completed walk
// and its per-iteration charges: the cumulative delay of a job preemptible at
// most n times is bounded by the sum of the n largest charges, added largest
// first. A divergent (truncated) walk only supports the charge-free n × max f
// bound. The charges are sorted in place. Summed in another order than the
// walk's, the n largest can round one ulp above the walk's total when only
// zero charges are dropped; the min keeps the bound at or below Algorithm
// 1's in floats, which the acceptance trial's verdict order relies on.
func limitCharges(f delay.Function, res Result, charges []float64, n int) float64 {
	if res.Diverged {
		_, maxF := f.MaxOn(0, f.Domain())
		return float64(n) * maxF
	}
	if n >= len(charges) {
		return res.TotalDelay
	}
	slices.Sort(charges)
	var total float64
	for k := len(charges) - 1; k >= len(charges)-n; k-- {
		total += charges[k]
	}
	return min(total, res.TotalDelay)
}

// analyzeEq4 is the Equation 4 baseline under Analyze: validation, the global
// maximum, then the fixpoint.
func analyzeEq4(g *guard.Ctx, sc *obs.Scope, f delay.Function, q float64) (Result, error) {
	if f == nil {
		return Result{}, guard.Invalidf("core: nil delay function")
	}
	if q <= 0 || math.IsNaN(q) || math.IsInf(q, 0) {
		return Result{}, guard.Invalidf("core: Q must be positive and finite, got %g", q)
	}
	c := f.Domain()
	_, maxF := f.MaxOn(0, c)
	v, err := eq4Fixpoint(g, sc, c, q, maxF, true)
	if err != nil {
		return Result{}, err
	}
	return Result{TotalDelay: v, Diverged: math.IsInf(v, 1)}, nil
}

// analyzeNaive is the demonstration-only naive bound under Analyze; it
// accepts a *delay.Piecewise directly or through its indexed view.
func analyzeNaive(g *guard.Ctx, sc *obs.Scope, f delay.Function, q float64) (Result, error) {
	mNaiveRuns.On(sc).Inc()
	v, err := naivePointSelection(g, piecewiseOf(f), q)
	if err != nil {
		return Result{}, err
	}
	return Result{TotalDelay: v}, nil
}

// analyzeRemaining is the run-time refinement under Analyze: the current
// preemption's cost plus the suffix walk with a shrunken first window.
func analyzeRemaining(g *guard.Ctx, sc *obs.Scope, f delay.Function, q float64, opts Options) (Result, error) {
	p := piecewiseOf(f)
	if p == nil {
		return Result{}, guard.Invalidf("core: remaining-delay analysis needs a piecewise function")
	}
	c := p.Domain()
	if opts.From < 0 || opts.From >= c || math.IsNaN(opts.From) {
		return Result{}, guard.Invalidf("core: progression %g outside [0, %g)", opts.From, c)
	}
	current := p.Eval(opts.From)
	suffix, err := p.Suffix(opts.From)
	if err != nil {
		return Result{}, err
	}
	res, _, err := upperBoundFrom(g, sc, suffix, q, q-current, opts.traceBuf(), nil)
	if err != nil {
		return Result{}, err
	}
	res.TotalDelay += current
	return res, nil
}

// piecewiseOf unwraps the scan-kernel view of f: a *delay.Piecewise directly,
// or the one behind an indexed view; nil for anything else.
func piecewiseOf(f delay.Function) *delay.Piecewise {
	switch p := f.(type) {
	case *delay.Piecewise:
		return p
	case *delay.Indexed:
		return p.Piecewise()
	}
	return nil
}

// kernelQueryCounter names the query counter charged for f: the indexed
// kernel and the linear scan are accounted separately, so a -metrics snapshot
// shows which kernel a sweep actually ran on.
func kernelQueryCounter(sc *obs.Scope, f delay.Function) *obs.Counter {
	if sc == nil {
		return nil
	}
	if _, ok := f.(*delay.Indexed); ok {
		return mIndexQueries.On(sc)
	}
	return mScanQueries.On(sc)
}

// Eq4Fixpoint computes the Equation 4 fixpoint from raw parameters, for
// callers that already know C and the maximum preemption delay and have no
// delay.Function to hand to Analyze. The returned value is the cumulative
// delay C' - C; +Inf when the fixpoint diverges (maxDelay >= q). It charges
// one guard step per fixpoint iteration.
func Eq4Fixpoint(g *guard.Ctx, c, q, maxDelay float64) (float64, error) {
	return eq4Fixpoint(g, g.Obs(), c, q, maxDelay, true)
}

// eq4Fixpoint is the shared Equation 4 fixpoint loop, instrumented with
// core.eq4.runs / core.eq4.iterations (plus core.eq4.cuts and
// core.eq4.fallbacks for the cutting-plane jumps).
//
// The recurrence is cur' = c + ceil(cur/q)·m with m = maxDelay < q. With
// jumps, the linear relaxation ceil(x/q) ≥ x/q yields the global cutting
// plane h(x) = c + (x/q)·m ≤ g(x), whose root c·q/(q-m) lower-bounds the
// least fixpoint (Singh-style, DESIGN.md §15); one shaved jump there replaces
// the O(root/q) monotone ramp, and the remaining monotone steps settle the
// exact ceil terms. A post-jump iterate that fails to increase would mean the
// jump overshot (the shave makes that practically impossible — see the
// cutRelShave comment), in which case the loop reverts to the last
// monotonically-produced value and continues without jumps, counting
// core.eq4.fallbacks. Without jumps the loop is the plain monotone
// iteration: every caller passes true, and the tests pass false for the
// reference the jumps must match bit for bit.
func eq4Fixpoint(g *guard.Ctx, sc *obs.Scope, c, q, maxDelay float64, jumps bool) (float64, error) {
	if c <= 0 || q <= 0 || maxDelay < 0 ||
		math.IsNaN(c) || math.IsNaN(q) || math.IsNaN(maxDelay) ||
		math.IsInf(c, 0) || math.IsInf(q, 0) || math.IsInf(maxDelay, 0) {
		return 0, guard.Invalidf("core: invalid parameters C=%g Q=%g max=%g", c, q, maxDelay)
	}
	mEq4Runs.On(sc).Inc()
	itc := mEq4Iterations.On(sc)
	if maxDelay == 0 {
		return 0, nil
	}
	if maxDelay >= q {
		// Each iteration adds at least one extra preemption's worth of
		// delay per window: the fixpoint diverges.
		return math.Inf(1), nil
	}
	var cut float64
	haveCut := false
	if jumps && maxDelay <= cutSlopeCap*q {
		root := c * q / (q - maxDelay)
		cut = root - math.Max(cutRelShave*root, cutAbsShave)
		haveCut = !math.IsInf(cut, 0) && !math.IsNaN(cut)
	}
	cur := c
	lastSound := cur
	speculative, jumpedLast := false, false
	var iters, cuts, falls int64
	defer func() {
		itc.Add(iters)
		if cuts > 0 {
			mEq4Cuts.On(sc).Add(cuts)
		}
		if falls > 0 {
			mEq4Fallbacks.On(sc).Add(falls)
		}
	}()
	for i := 0; i < maxIterations; i++ {
		if err := g.Tick(); err != nil {
			return 0, err
		}
		iters++
		next := c + math.Ceil(cur/q)*maxDelay
		if next <= cur {
			if !speculative || (!jumpedLast && next == cur) {
				return cur - c, nil
			}
			// Numerical doubt right after a jump: revert to the last
			// monotonically-produced value and iterate plainly.
			falls++
			cur, speculative, jumpedLast, haveCut = lastSound, false, false, false
			continue
		}
		jumpedLast = false
		cur = next
		if !speculative {
			lastSound = cur
		}
		if haveCut && cut > cur {
			cur, speculative, jumpedLast = cut, true, true
			haveCut = false
			cuts++
		}
	}
	return math.Inf(1), nil
}
