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
	spare  []dstate // the naive successor layer; the frontier merge's scratch
	front  []dstate // visited pareto frontier: e ascending, d ascending
	starts []float64
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
	if err := g.Err(); err != nil {
		return DelayResult{}, err
	}
	sc := opts.Obs
	sc.Counter("exact.runs").Inc()

	var key uint64
	var verify string
	memoOK := false
	if opts.Memo != nil {
		key, verify, memoOK = delayMemoKey(f, q)
		if memoOK {
			if v, ok := opts.Memo.Get(key, verify); ok {
				if r, ok := v.(DelayResult); ok {
					sc.Counter("exact.memo.hits").Inc()
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
	sc.Counter("exact.states").Add(int64(res.States))
	sc.Counter("exact.merges").Add(int64(res.Merges))
	sc.Counter("exact.prunes").Add(int64(res.Prunes))
	if memoOK {
		opts.Memo.Put(key, verify, res, int64(len(verify))+64)
		sc.Counter("exact.memo.stores").Inc()
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
			out = append(out, strike(f, q, s, s.e, &best))
		}
		for _, st := range ex.starts {
			if st > s.e && st < c && !completes(c, st, s.d) {
				out = append(out, strike(f, q, s, st, &best))
			}
		}
	}
	ex.spare = out
	return best, nil
}

// expandStaircase expands ex.cur, a staircase (e ascending, d strictly
// ascending), into ex.next (reset first) and returns the best paid delay
// seen. Every state strikes at its earliest admissible progression, one
// successor each. A strike at breakpoint st from any state with e < st
// lands at the same progression st + q − f(st), so only the one with the
// most paid delay is emitted, standing for itself and every state below
// it; the rest would be merged or pruned behind it. That is the last state
// with e < st whose strike does not complete the job first: the completion
// tolerance grows with d, so the walk down stops at the first that strikes.
func (ex *Explorer) expandStaircase(g *guard.Ctx, f *delay.Piecewise, q, c float64) (best float64, err error) {
	out := ex.next[:0]
	for _, s := range ex.cur {
		if err := g.Tick(); err != nil {
			return 0, err
		}
		if !completes(c, s.e, s.d) {
			out = append(out, succ{strike(f, q, s, s.e, &best), 1})
		}
	}
	k := 0 // ex.cur[:k] are the states with e < st
	for _, st := range ex.starts {
		if st >= c {
			break
		}
		for k < len(ex.cur) && ex.cur[k].e < st {
			k++
		}
		i := k - 1
		for i >= 0 && completes(c, st, ex.cur[i].d) {
			i--
		}
		if i >= 0 {
			out = append(out, succ{strike(f, q, ex.cur[i], st, &best), i + 1})
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

// strike charges a strike at progression prog from state s, raises *best to
// the paid delay and returns the successor state.
func strike(f *delay.Piecewise, q float64, s dstate, prog float64, best *float64) dstate {
	d := f.Eval(prog)
	paid := s.d + d
	if paid > *best {
		*best = paid
	}
	return dstate{e: prog + q - d, d: paid}
}

// admit turns the successor layer ex.next into the next layer ex.cur: its
// pareto-undominated states that no visited state dominates, in e order.
// Every other successor counts as n merges (an equal-e state was kept) or n
// prunes, and a kept successor's n-1 stand-ins count as merges.
func (ex *Explorer) admit(res *DelayResult) {
	// Sorted by (e asc, d desc), one ascending sweep keeps exactly the
	// pareto-undominated states.
	slices.SortFunc(ex.next, sweepOrder)
	kept := ex.cur[:0] // reuse the consumed layer's slab
	front := ex.front
	fi := 0 // front[:fi] are the visited states with e <= s.e
	maxD := math.Inf(-1)
	lastKeptE := math.Inf(-1)
	for _, s := range ex.next {
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
		// States kept in this layer have d <= maxD < s.d, so the frontier as
		// it stood when the layer began answers, read through a cursor
		// that only moves forward as s.e ascends.
		for fi < len(front) && front[fi].e <= s.e {
			fi++
		}
		if fi > 0 && front[fi-1].d >= s.d {
			res.Prunes += s.n
			continue
		}
		kept = append(kept, s.dstate)
		res.Merges += s.n - 1
		maxD = s.d
		lastKeptE = s.e
	}
	ex.cur = kept
	ex.mergeFront(kept)
}

// sweepOrder orders successors by e ascending, then d descending.
func sweepOrder(a, b succ) int {
	switch {
	case a.e < b.e || (a.e == b.e && a.d > b.d):
		return -1
	case b.e < a.e || (a.e == b.e && b.d > a.d):
		return 1
	}
	return 0
}

// mergeFront folds a layer's kept states (e and d strictly ascending) into
// the visited frontier, keeping it sorted by e with d strictly increasing
// (the running maximum of paid delay over all visited states up to each
// e). Entries below kept[0].e stay as they are; the tail from there on is
// merged with kept in e order, dropping every entry that does not raise
// the running maximum.
func (ex *Explorer) mergeFront(kept []dstate) {
	if len(kept) == 0 {
		return
	}
	front := ex.front
	i := len(front)
	for i > 0 && front[i-1].e >= kept[0].e {
		i--
	}
	tail := append(ex.spare[:0], front[i:]...)
	ex.spare = tail
	front = front[:i]
	for a, b := 0, 0; a < len(tail) || b < len(kept); {
		var s dstate
		if b == len(kept) || (a < len(tail) && tail[a].e <= kept[b].e) {
			s, a = tail[a], a+1
		} else {
			s, b = kept[b], b+1
		}
		if n := len(front); n == 0 || front[n-1].d < s.d {
			front = append(front, s)
		}
	}
	ex.front = front
}
