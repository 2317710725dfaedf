// Package core implements the paper's contribution: Algorithm 1, an upper
// bound on the cumulative preemption delay suffered by a task scheduled with
// floating non-preemptive regions (Section V), together with the
// state-of-the-art baseline it is compared against (Equation 4) and the
// naive point-selection bound shown unsound by Figure 2.
//
// # Model
//
// A task with isolated WCET C executes under floating non-preemptive region
// (FNPR) scheduling with region length Q: once a higher-priority job arrives,
// the task keeps the processor for at most Q more time units, so consecutive
// preemptions are at least Q apart in the task's execution time. A preemption
// occurring when the task has progressed t units into its operations costs at
// most f(t) additional execution time (the preemption delay function built by
// package delay).
//
// # Algorithm 1
//
// The bound walks through the task's execution window by window. With the
// current progression prog, it considers the descending line D(x) = prog+Q-x
// and finds p∩, the first point in [prog, prog+Q] where f reaches D; a
// preemption past p∩ would leave the progression short of that point, so it
// will be reconsidered by a later iteration and can be ignored now. The worst
// delay in [prog, p∩] is charged, and the guaranteed progression over the Q
// window is Q - delaymax. Theorem 1 of the paper proves the result is an
// upper bound for every feasible preemption scenario.
//
// Divergence: when the charged delay consumes the entire window
// (delaymax >= Q), no progression can be guaranteed and the bound diverges;
// the analysis then reports +Inf, exactly as Equation 4's fixpoint does when
// max f >= Q.
//
// # Entry point
//
// Analyze is the package's single entry point; Options selects the method
// (Algorithm 1, the Equation 4 baseline, the naive demonstration bound), the
// trace, the preemption-count refinement and the run-time remaining-delay
// refinement.
package core

import (
	"math"
	"sort"

	"fnpr/internal/delay"
	"fnpr/internal/guard"
	"fnpr/internal/obs"
)

// Epsilon guards the progression loop: a guaranteed progression per window
// below this threshold is treated as divergence.
const epsilon = 1e-9

// maxIterations caps the iteration count of both Algorithm 1 and the
// Equation 4 fixpoint as a defence against pathological inputs; the bounds
// are reported as +Inf when exceeded.
const maxIterations = 50_000_000

// Iteration records one step of Algorithm 1 for inspection and plotting.
type Iteration struct {
	// Prog is the progression at the start of the iteration (the value
	// assigned from pnext on line 6 of Algorithm 1).
	Prog float64
	// PIntersect is p∩, the first point in [Prog, Prog+Q] where f
	// reaches the descending line; Prog+Q when there is no crossing.
	PIntersect float64
	// PMax is the earliest point of [Prog, PIntersect] attaining the
	// window's maximum delay.
	PMax float64
	// DelayMax is f(PMax), the delay charged by this iteration.
	DelayMax float64
	// PNext is the next progression point, Prog + Q - DelayMax.
	PNext float64
	// Total is the cumulative delay accounted after this iteration.
	Total float64
}

// Result carries the bound plus its per-iteration trace.
type Result struct {
	// TotalDelay is the upper bound on cumulative preemption delay
	// (+Inf when the analysis diverges because Q <= the local delay).
	TotalDelay float64
	// Preemptions is the number of preemptions charged (iterations).
	Preemptions int
	// Iterations is the step-by-step trace (only with Options.Trace).
	Iterations []Iteration
	// Diverged reports whether the analysis hit a zero-progress window.
	Diverged bool
	// Cached reports that this result was answered from Options.Memo rather
	// than computed. Runtime-only: excluded from every serialized form so
	// journals and API responses are byte-identical cache-on vs cache-off.
	Cached bool `json:"-"`
}

// EffectiveWCET returns C' = C + TotalDelay (Equation 5 of the paper); +Inf
// when the analysis diverged.
func (r Result) EffectiveWCET(c float64) float64 {
	return c + r.TotalDelay
}

// upperBoundFrom runs the Algorithm 1 loop with an explicit first candidate
// preemption point, used by Analyze (first = Q) and its remaining-delay mode
// (first = Q - pending payback). When trace is non-nil the per-iteration
// records are appended to it (reusing its capacity) and returned as
// Result.Iterations. When charges is non-nil each iteration's delaymax is
// appended to it and the grown slice is returned, so a caller's stack buffer
// stays in its frame unless the walk outgrows it. Nil destinations skip the
// bookkeeping entirely, making the walk allocation-free.
//
// Observability: iteration and kernel-query counts are accumulated in locals
// and flushed to the scope's counters once per return site, so the hot loop
// performs no atomic operations and the walk stays allocation-free whether or
// not a scope is attached (nil instruments make the flush a no-op). A walk
// step counts as the two queries it replaces, and the cursor's index tallies
// (delay.index.rechecks, delay.index.bisections) flush at the same sites.
func upperBoundFrom(g *guard.Ctx, sc *obs.Scope, f delay.Function, q, first float64, trace *[]Iteration, charges []float64) (Result, []float64, error) {
	if f == nil {
		return Result{}, nil, guard.Invalidf("core: nil delay function")
	}
	if q <= 0 || math.IsNaN(q) || math.IsInf(q, 0) {
		return Result{}, nil, guard.Invalidf("core: Q must be positive and finite, got %g", q)
	}
	c := f.Domain()
	if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
		return Result{}, nil, guard.Invalidf("core: delay function has invalid domain %g", c)
	}
	if err := g.EntryErr(); err != nil {
		return Result{}, nil, err
	}

	mAlg1Runs.On(sc).Inc()
	itc := mAlg1Iterations.On(sc)
	qc := kernelQueryCounter(sc, f)
	var iters int64

	var res Result
	if first <= 0 {
		// The pending payback consumes the whole protected window:
		// a preemption can strike before any further progression and
		// the bound diverges.
		res.TotalDelay = math.Inf(1)
		res.Diverged = true
		mAlg1Diverged.On(sc).Inc()
		return res, charges, nil
	}
	prog := 0.0
	pnext := first
	// Piecewise-constant functions answer each window in one cursor step;
	// every other Function takes the two queries the step fuses.
	cur, stepped := delay.NewCursor(f)

	for pnext < c {
		if err := g.Tick(); err != nil {
			itc.Add(iters)
			qc.Add(2 * iters)
			cur.Flush()
			return res, charges, err
		}
		iters++
		prog = pnext

		// p∩: first crossing of f with D(x) = prog + Q - x on
		// [prog, prog+Q]; prog+Q when f stays below the line. The
		// window's delay is the earliest maximum of f on [prog, p∩].
		var pIntersect, pmax, delayMax float64
		if stepped {
			pIntersect, pmax, delayMax = cur.Step(prog, q)
		} else {
			var ok bool
			pIntersect, ok = f.FirstReachDescending(prog, prog+q, prog+q)
			if !ok {
				pIntersect = prog + q
			}
			pmax, delayMax = f.MaxOn(prog, pIntersect)
		}
		pnext = prog + q - delayMax
		res.TotalDelay += delayMax
		res.Preemptions++
		if trace != nil {
			*trace = append(*trace, Iteration{
				Prog:       prog,
				PIntersect: pIntersect,
				PMax:       pmax,
				DelayMax:   delayMax,
				PNext:      pnext,
				Total:      res.TotalDelay,
			})
			res.Iterations = *trace
		}
		if charges != nil {
			charges = append(charges, delayMax)
		}

		if q-delayMax <= epsilon {
			// The whole window can be consumed by delay: no
			// guaranteed progression, the bound diverges.
			res.TotalDelay = math.Inf(1)
			res.Diverged = true
			break
		}
		if res.Preemptions >= maxIterations {
			res.TotalDelay = math.Inf(1)
			res.Diverged = true
			break
		}
	}
	itc.Add(iters)
	qc.Add(2 * iters)
	cur.Flush()
	if res.Diverged {
		mAlg1Diverged.On(sc).Inc()
	}
	return res, charges, nil
}

// naivePointSelection computes the (unsound!) bound discussed at the top of
// Section V and refuted by Figure 2: select preemption points at least Q
// apart in *progression* maximising the sum of f. It underestimates the real
// worst case because time spent repaying delay lets the adversary fit more
// preemptions than progression-spacing suggests.
//
// The maximisation is performed by dynamic programming over a candidate grid
// containing every breakpoint of f plus shifted copies at multiples of Q, so
// for piecewise-constant f the result is exact. The DP charges one guard step
// per candidate point.
func naivePointSelection(g *guard.Ctx, f *delay.Piecewise, q float64) (float64, error) {
	if f == nil {
		return 0, guard.Invalidf("core: nil delay function")
	}
	if q <= 0 || math.IsNaN(q) || math.IsInf(q, 0) {
		return 0, guard.Invalidf("core: Q must be positive and finite, got %g", q)
	}
	c := f.Domain()
	// Candidate points: piece starts shifted by k*Q, clipped to [Q, C).
	// An optimal selection can always be normalised so each point is
	// either a piece start or exactly Q after the previous point, whose
	// chain bottoms out at a piece start or at Q.
	var candidates []float64
	seen := map[float64]bool{}
	add := func(x float64) {
		if x >= q && x < c && !seen[x] {
			seen[x] = true
			candidates = append(candidates, x)
		}
	}
	for _, s := range f.Breakpoints() {
		for x := s; x < c; x += q {
			add(x)
		}
	}
	for x := q; x < c; x += q {
		add(x)
	}
	const maxCandidates = 20000
	if len(candidates) > maxCandidates {
		return 0, guard.Budgetf("core: naive selection grid too large (%d candidates); this demonstration-only bound is meant for small functions", len(candidates))
	}
	sort.Float64s(candidates)
	n := len(candidates)
	if n == 0 {
		return 0, nil
	}
	// best[i] = max sum selecting candidate i last.
	best := make([]float64, n)
	ans := 0.0
	for i := 0; i < n; i++ {
		if err := g.Tick(); err != nil {
			return 0, err
		}
		best[i] = f.Eval(candidates[i])
		for j := 0; j < i; j++ {
			if candidates[i]-candidates[j] >= q-1e-12 && best[j]+f.Eval(candidates[i]) > best[i] {
				best[i] = best[j] + f.Eval(candidates[i])
			}
		}
		if best[i] > ans {
			ans = best[i]
		}
	}
	return ans, nil
}
