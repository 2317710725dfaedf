package exact

import (
	"math"
	"slices"

	"fnpr/internal/delay"
	"fnpr/internal/guard"
)

// DelayResult carries the outcome of one exact-delay exploration.
type DelayResult struct {
	// Delay is the exact worst-case cumulative preemption delay of one job
	// under FNPR semantics; +Inf when max f >= Q (the adversary can stall
	// progression forever).
	Delay float64
	// States is the number of states expanded.
	States int
	// Merges counts successor states absorbed by an equal-progression
	// state (same e, lower-or-equal paid delay).
	Merges int
	// Prunes counts successor states dominated by a visited state with
	// earlier-or-equal progression and higher-or-equal paid delay.
	Prunes int
	// Depth is the number of BFS layers (preemptions along the deepest
	// explored scenario).
	Depth int
	// PeakFrontier is the widest per-layer frontier after merging.
	PeakFrontier int
	// Successors is the number of successor states emitted: at most one
	// per expanded state for its earliest strike, plus at most one per
	// breakpoint and layer standing for every state that strikes there
	// (Naive: at most one per expanded state and strike). A strike that
	// would land after the job completes emits nothing.
	Successors int
	// Cached reports a whole-result memo hit; the counters above are the
	// original run's.
	Cached bool
}

// dstate is one exploration state: e is the progression at the earliest
// admissible next preemption strike, d the cumulative delay paid so far.
type dstate struct{ e, d float64 }

// succ is one emitted successor and the number n of expanded states it
// stands for: all strike at the same breakpoint, and the emitted one paid
// the most delay.
type succ struct {
	dstate
	n int
}

// Explorer runs exact-delay explorations with reusable state slabs: the
// frontier, successor and visited-frontier buffers survive across calls, so
// steady-state explorations of same-sized instances allocate nothing (the
// sim.Runner discipline). Not safe for concurrent use: give each goroutine
// its own Explorer.
type Explorer struct {
	cur    []dstate
	next   []succ
	merged []succ   // the run merge's other half
	runs   []int    // start offsets of the ascending runs of next
	spare  []dstate // the naive successor layer; the next visited frontier
	front  []dstate // visited pareto frontier: e ascending, d ascending
	starts []float64
	vals   []float64
}

// NewExplorer returns an Explorer with empty slabs; they grow to the
// largest instance explored and are reused from then on.
func NewExplorer() *Explorer { return &Explorer{} }

// Delay computes the exact worst-case cumulative FNPR preemption delay for
// delay function f with non-preemptive region length q, by layered
// breadth-first exploration of normalised preemption-strike scenarios with
// state merging and dominance pruning (exactness argument in DESIGN.md
// §16). It is the convenience wrapper over a fresh Explorer.
func Delay(g *guard.Ctx, f *delay.Piecewise, q float64, opts Options) (DelayResult, error) {
	return NewExplorer().Delay(g, f, q, opts)
}

// Delay runs one exploration on the Explorer's slabs; see the package-level
// Delay.
func (ex *Explorer) Delay(g *guard.Ctx, f *delay.Piecewise, q float64, opts Options) (DelayResult, error) {
	if f == nil {
		return DelayResult{}, guard.Invalidf("exact: nil delay function")
	}
	if q <= 0 || math.IsNaN(q) || math.IsInf(q, 0) {
		return DelayResult{}, guard.Invalidf("exact: Q must be positive and finite, got %g", q)
	}
	if err := g.EntryErr(); err != nil {
		return DelayResult{}, err
	}
	sc := opts.Obs
	mRuns.On(sc).Inc()

	var key uint64
	var verify string
	memoOK := false
	if opts.Memo != nil {
		key, verify, memoOK = delayMemoKey(f, q)
		if memoOK {
			if v, ok := opts.Memo.Get(key, verify); ok {
				if r, ok := v.(DelayResult); ok {
					mMemoHits.On(sc).Inc()
					r.Cached = true
					return r, nil
				}
			}
		}
	}

	c := f.Domain()
	_, maxF := f.Max()
	res := DelayResult{}
	if maxF >= q {
		res.Delay = math.Inf(1)
	} else {
		var err error
		res, err = ex.explore(g, f, q, c, opts)
		if err != nil {
			return DelayResult{}, err
		}
	}
	mStates.On(sc).Add(int64(res.States))
	mMerges.On(sc).Add(int64(res.Merges))
	mPrunes.On(sc).Add(int64(res.Prunes))
	if memoOK {
		opts.Memo.Put(key, verify, res, int64(len(verify))+64)
		mMemoStores.On(sc).Inc()
	}
	return res, nil
}

// explore is the layered BFS over normalised scenarios: every preemption
// strikes either as early as the spacing constraint allows or at the first
// instant its progression enters a later piece. Moving a strike earlier
// within its piece keeps its charge and only relaxes the spacing of later
// strikes, so some worst-case scenario has this shape (DESIGN.md §16.1).
func (ex *Explorer) explore(g *guard.Ctx, f *delay.Piecewise, q, c float64, opts Options) (DelayResult, error) {
	ex.starts = f.AppendBreakpoints(ex.starts[:0])
	ex.vals = f.AppendValues(ex.vals[:0])
	budget := opts.maxStates()
	res := DelayResult{}
	best := 0.0

	ex.cur = append(ex.cur[:0], dstate{e: q, d: 0})
	ex.front = append(ex.front[:0], dstate{e: q, d: 0})

	for len(ex.cur) > 0 {
		res.Depth++
		if len(ex.cur) > res.PeakFrontier {
			res.PeakFrontier = len(ex.cur)
		}
		if budget > 0 && res.States+len(ex.cur) > budget {
			return DelayResult{}, &StateSpaceError{States: res.States + len(ex.cur), Limit: budget}
		}
		expand := ex.expandStaircase
		if opts.Naive {
			expand = ex.expandFull
		}
		layerBest, err := expand(g, f, q, c)
		if err != nil {
			return DelayResult{}, err
		}
		res.States += len(ex.cur)
		if layerBest > best {
			best = layerBest
		}
		if opts.Naive {
			res.Successors += len(ex.spare)
			ex.cur, ex.spare = ex.spare, ex.cur
			continue
		}
		res.Successors += len(ex.next)
		ex.admit(&res)
	}
	res.Delay = best
	return res, nil
}

// expandFull is the naive expansion: every state of ex.cur strikes at its
// earliest admissible progression and at every later breakpoint, one
// successor each, into ex.spare (reset first). It returns the best paid
// delay seen.
func (ex *Explorer) expandFull(g *guard.Ctx, f *delay.Piecewise, q, c float64) (best float64, err error) {
	out := ex.spare[:0]
	for _, s := range ex.cur {
		if err := g.Tick(); err != nil {
			return 0, err
		}
		if !completes(c, s.e, s.d) {
			out = append(out, strike(q, s, s.e, f.Eval(s.e), &best))
		}
		for _, st := range ex.starts {
			if st > s.e && st < c && !completes(c, st, s.d) {
				out = append(out, strike(q, s, st, f.Eval(st), &best))
			}
		}
	}
	ex.spare = out
	return best, nil
}

// expandStaircase expands ex.cur, a staircase (e and d strictly
// ascending), into ex.next (reset first) and returns the best paid delay
// seen. The layer is charged to the guard up front, one step per state.
// Every state strikes at its earliest admissible progression, one successor
// each; its charge is read through a piece cursor that moves forward as e
// ascends. A strike at breakpoint st from any state with e < st lands at
// the same progression st + q − f(st), so only the one with the most paid
// delay is emitted, standing for itself and every state below it; the rest
// would be merged or pruned behind it. That is the last state with e < st
// whose strike does not complete the job first: the completion tolerance
// grows with d, so the walk down stops at the first that strikes.
func (ex *Explorer) expandStaircase(g *guard.Ctx, _ *delay.Piecewise, q, c float64) (best float64, err error) {
	if err := g.TickN(int64(len(ex.cur))); err != nil {
		return 0, err
	}
	xs, vs := ex.starts, ex.vals // piece p is [xs[p], xs[p+1]) with charge vs[p]
	out := ex.next[:0]
	p := 0
	for _, s := range ex.cur {
		for p < len(vs)-1 && xs[p+1] <= s.e {
			p++
		}
		if !completes(c, s.e, s.d) {
			out = append(out, succ{strike(q, s, s.e, vs[p], &best), 1})
		}
	}
	k := 0 // ex.cur[:k] are the states with e < st
	for b, st := range xs[:len(vs)] {
		for k < len(ex.cur) && ex.cur[k].e < st {
			k++
		}
		i := k - 1
		for i >= 0 && completes(c, st, ex.cur[i].d) {
			i--
		}
		if i >= 0 {
			out = append(out, succ{strike(q, ex.cur[i], st, vs[b], &best), i + 1})
		}
	}
	ex.next = out
	return best, nil
}

// completes reports whether the job, having paid delay d, finishes before a
// strike at progression prog lands.
func completes(c, prog, d float64) bool {
	return prog >= c-completionTol(c, prog+d)
}

// strike charges delay d for a strike at progression prog from state s,
// raises *best to the paid delay and returns the successor state.
func strike(q float64, s dstate, prog, d float64, best *float64) dstate {
	paid := s.d + d
	if paid > *best {
		*best = paid
	}
	return dstate{e: prog + q - d, d: paid}
}

// admit turns the successor layer ex.next into the next layer ex.cur: its
// pareto-undominated states that no visited state dominates, in e order.
// Every other successor counts as n merges (an equal-e state was kept) or n
// prunes, and a kept successor's n-1 stand-ins count as merges. The same
// sweep folds the kept states into the visited frontier.
func (ex *Explorer) admit(res *DelayResult) {
	// In sweep order (e asc, d desc), one ascending sweep keeps exactly the
	// pareto-undominated states.
	ex.orderLayer()
	next := ex.next
	kept := ex.cur[:0] // reuse the consumed layer's slab
	if len(next) == 0 {
		ex.cur = kept
		return
	}
	// Every successor of this layer and of all later ones lands at or after
	// next[0].e (a strike moves progression forward by q − f > 0), so of
	// the visited states before it only the last, which paid the most, can
	// still dominate one.
	old := ex.front
	fi := 0
	for fi < len(old) && old[fi].e < next[0].e {
		fi++
	}
	front := ex.spare[:0]
	if fi > 0 {
		front = append(front, old[fi-1])
	}
	maxD := math.Inf(-1)
	lastKeptE := math.Inf(-1)
	for _, s := range next {
		if s.d <= maxD {
			// Dominated within the layer by an earlier-or-equal e with
			// at-least-equal d.
			if s.e == lastKeptE {
				res.Merges += s.n
			} else {
				res.Prunes += s.n
			}
			continue
		}
		// A visited state dominates s when it has e' <= s.e and d' >= s.d.
		// The new frontier holds the running maximum of d up to s.e; the
		// states kept in this layer have d <= maxD < s.d, so it answers as
		// the frontier did when the layer began.
		for ; fi < len(old) && old[fi].e <= s.e; fi++ {
			front = appendFront(front, old[fi])
		}
		if n := len(front); n > 0 && front[n-1].d >= s.d {
			res.Prunes += s.n
			continue
		}
		kept = append(kept, s.dstate)
		front = append(front, s.dstate)
		res.Merges += s.n - 1
		maxD = s.d
		lastKeptE = s.e
	}
	for ; fi < len(old); fi++ {
		front = appendFront(front, old[fi])
	}
	ex.cur = kept
	ex.front, ex.spare = front, old
}

// appendFront appends visited state s to the frontier when it raises the
// running maximum of paid delay; otherwise an earlier entry dominates it.
func appendFront(front []dstate, s dstate) []dstate {
	if n := len(front); n == 0 || front[n-1].d < s.d {
		front = append(front, s)
	}
	return front
}

// before is the sweep order: e ascending, then d descending.
func before(a, b succ) bool {
	return a.e < b.e || (a.e == b.e && a.d > b.d)
}

// orderLayer puts ex.next in sweep order without a comparison sort. The
// layer is a few ascending runs: the earliest strikes ascend within each
// piece their states lie in (e′ = e + q − f(e) with f constant there), and
// the breakpoint strikes follow the breakpoints' landing points. So the
// runs are found in one pass and merged pairwise, each merge stable, until
// one is left; equal (e, d) pairs may come in any order, as under a sort.
func (ex *Explorer) orderLayer() {
	a := ex.next
	runs := append(ex.runs[:0], 0)
	for i := 1; i < len(a); i++ {
		if before(a[i], a[i-1]) {
			runs = append(runs, i)
		}
	}
	runs = append(runs, len(a))
	if len(runs) > 2 {
		b := slices.Grow(ex.merged[:0], len(a))[:len(a)]
		for len(runs) > 2 {
			w := 0
			for r := 0; r+1 < len(runs); r += 2 {
				lo, mid, hi := runs[r], runs[r+1], runs[r+1]
				if r+2 < len(runs) {
					hi = runs[r+2]
				}
				mergeRuns(b[lo:hi], a[lo:mid], a[mid:hi])
				runs[w] = lo
				w++
			}
			runs[w] = len(a)
			runs = runs[:w+1]
			a, b = b, a
		}
		ex.next, ex.merged = a, b
	}
	ex.runs = runs
}

// mergeRuns merges the sweep-ordered runs x and y into dst (len(x)+len(y)
// long), taking from x on ties.
func mergeRuns(dst, x, y []succ) {
	i, j := 0, 0
	for k := range dst {
		if j == len(y) || (i < len(x) && !before(y[j], x[i])) {
			dst[k] = x[i]
			i++
		} else {
			dst[k] = y[j]
			j++
		}
	}
}
