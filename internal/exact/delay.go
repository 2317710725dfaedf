package exact

import (
	"math"

	"fnpr/internal/delay"
	"fnpr/internal/guard"
)

// DelayResult carries the outcome of one exact-delay exploration.
type DelayResult struct {
	// Delay is the exact worst-case cumulative preemption delay of one job
	// under FNPR semantics; +Inf when max f >= Q (the adversary can stall
	// progression forever).
	Delay float64
	// States is the number of states expanded: settled by the sweep
	// (Naive: every state of every layer).
	States int
	// Merges counts states the sweep dropped because a settled state with
	// the same e paid at least as much delay.
	Merges int
	// Prunes counts states the sweep dropped because a settled state with
	// earlier e paid at least as much delay.
	Prunes int
	// Depth is the number of strike layers: one more than the preemptions
	// along the deepest expanded scenario.
	Depth int
	// PeakFrontier is the largest number of pending states (Naive: the
	// widest layer).
	PeakFrontier int
	// Successors is the number of successor states emitted: at most one
	// per expanded state for its earliest strike, plus at most one per
	// breakpoint standing for every settled state that strikes there
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

// sstate is a state of the sweep and the strike layer n it was reached in
// (1 for the job's start).
type sstate struct {
	dstate
	n int
}

// Explorer runs exact-delay explorations with reusable state slabs: the
// pending heap, the settled staircase and the naive layers survive across
// calls, so steady-state explorations of same-sized instances allocate
// nothing (the sim.Runner discipline). Not safe for concurrent use: give
// each goroutine its own Explorer.
type Explorer struct {
	heap   []sstate // pending states, a binary heap in sweep order
	stair  []sstate // settled states: e ascending, d strictly ascending
	cur    []dstate // the naive layer
	spare  []dstate // the naive successor layer
	starts []float64
	vals   []float64
}

// NewExplorer returns an Explorer with empty slabs; they grow to the
// largest instance explored and are reused from then on.
func NewExplorer() *Explorer { return &Explorer{} }

// Delay computes the exact worst-case cumulative FNPR preemption delay for
// delay function f with non-preemptive region length q, by one sweep over
// normalised preemption-strike scenarios in progression order with state
// merging and dominance pruning (exactness argument in DESIGN.md §16). It
// is the convenience wrapper over a fresh Explorer.
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
		ex.starts = f.AppendBreakpoints(ex.starts[:0])
		ex.vals = f.AppendValues(ex.vals[:0])
		explore := ex.sweep
		if opts.Naive {
			explore = ex.enumerate
		}
		var err error
		res, err = explore(g, f, q, c, opts.maxStates())
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

// sweep explores normalised scenarios in progression order: every
// preemption strikes either as early as the spacing constraint allows or at
// the first instant its progression enters a later piece. Moving a strike
// earlier within its piece keeps its charge and only relaxes the spacing of
// later strikes, so some worst-case scenario has this shape (DESIGN.md
// §16.1).
//
// Pending states pop from a heap in sweep order, e ascending and then d
// descending. A popped state is settled only when it paid more than every
// settled state, which all lie at or before it; otherwise one of them
// dominates it, and it is merged (same e) or pruned. A settled state
// strikes at its own e, its charge read through a piece cursor that moves
// forward as e ascends. A strike at breakpoint st from any state with
// e < st lands at the same progression st + q − f(st), so it is emitted
// once, when the heap's minimum reaches st or the heap empties: every
// state before st is settled by then, since a strike always lands later
// than the state it leaves. It comes from the settled state that paid the
// most and whose strike there does not complete the job first: the
// completion tolerance grows with d, so the walk down the staircase stops
// at the first that strikes.
func (ex *Explorer) sweep(g *guard.Ctx, _ *delay.Piecewise, q, c float64, budget int) (DelayResult, error) {
	xs, vs := ex.starts, ex.vals // piece p is [xs[p], xs[p+1]) with charge vs[p]
	res := DelayResult{}
	best := 0.0
	h := append(ex.heap[:0], sstate{dstate{e: q, d: 0}, 1})
	stair := ex.stair[:0]
	// top is the last settled state, p the piece cursor and b the next
	// breakpoint to fire.
	top := dstate{e: math.Inf(-1), d: math.Inf(-1)}
	p, b := 0, 0
	for {
		for b < len(vs) && (len(h) == 0 || xs[b] <= h[0].e) {
			st := xs[b]
			i := len(stair) - 1
			for i >= 0 && completes(c, st, stair[i].d) {
				i--
			}
			if i >= 0 {
				s := stair[i]
				h = push(h, sstate{strike(q, s.dstate, st, vs[b], &best), s.n + 1})
				res.Successors++
			}
			b++
		}
		if len(h) == 0 {
			break
		}
		res.PeakFrontier = max(res.PeakFrontier, len(h))
		var s sstate
		s, h = pop(h)
		if s.d <= top.d {
			if s.e == top.e {
				res.Merges++
			} else {
				res.Prunes++
			}
			continue
		}
		if res.States >= budget {
			return DelayResult{}, &StateSpaceError{States: res.States + 1, Limit: budget}
		}
		if err := g.Tick(); err != nil {
			return DelayResult{}, err
		}
		res.States++
		res.Depth = max(res.Depth, s.n)
		top = s.dstate
		stair = append(stair, s)
		for p < len(vs)-1 && xs[p+1] <= s.e {
			p++
		}
		if !completes(c, s.e, s.d) {
			h = push(h, sstate{strike(q, s.dstate, s.e, vs[p], &best), s.n + 1})
			res.Successors++
		}
	}
	ex.heap, ex.stair = h, stair
	res.Delay = best
	return res, nil
}

// sweepsBefore is the sweep order: e ascending, then d descending.
func sweepsBefore(a, b sstate) bool {
	return a.e < b.e || (a.e == b.e && a.d > b.d)
}

// push adds s to the binary heap h.
func push(h []sstate, s sstate) []sstate {
	h = append(h, s)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !sweepsBefore(s, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = s
	return h
}

// pop removes and returns the first state of the binary heap h.
func pop(h []sstate) (sstate, []sstate) {
	first := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	i := 0
	for {
		kid := 2*i + 1
		if kid >= n {
			break
		}
		if kid+1 < n && sweepsBefore(h[kid+1], h[kid]) {
			kid++
		}
		if !sweepsBefore(h[kid], last) {
			break
		}
		h[i] = h[kid]
		i = kid
	}
	if n > 0 {
		h[i] = last
	}
	return first, h
}

// enumerate is the naive layered exploration of Options.Naive: no merging,
// no dominance, every state of a layer expanded.
func (ex *Explorer) enumerate(g *guard.Ctx, f *delay.Piecewise, q, c float64, budget int) (DelayResult, error) {
	res := DelayResult{}
	best := 0.0
	ex.cur = append(ex.cur[:0], dstate{e: q, d: 0})
	for len(ex.cur) > 0 {
		res.Depth++
		if len(ex.cur) > res.PeakFrontier {
			res.PeakFrontier = len(ex.cur)
		}
		if budget > 0 && res.States+len(ex.cur) > budget {
			return DelayResult{}, &StateSpaceError{States: res.States + len(ex.cur), Limit: budget}
		}
		layerBest, err := ex.expandFull(g, f, q, c)
		if err != nil {
			return DelayResult{}, err
		}
		res.States += len(ex.cur)
		if layerBest > best {
			best = layerBest
		}
		res.Successors += len(ex.spare)
		ex.cur, ex.spare = ex.spare, ex.cur
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
