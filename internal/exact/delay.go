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
	// Cached reports a whole-result memo hit; the counters above are the
	// original run's.
	Cached bool
}

// dstate is one exploration state: e is the progression at the earliest
// admissible next preemption strike, d the cumulative delay paid so far.
type dstate struct{ e, d float64 }

// Explorer runs exact-delay explorations with reusable state slabs: the
// frontier, successor and visited-frontier buffers survive across calls, so
// steady-state explorations of same-sized instances allocate nothing (the
// sim.Runner discipline). Not safe for concurrent use: give each goroutine
// its own Explorer.
type Explorer struct {
	cur, next []dstate
	front     []dstate // visited pareto frontier: e ascending, d ascending
	starts    []float64
	lastF     *delay.Piecewise // breakpoints cache key for starts
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
	if ex.lastF != f {
		ex.starts = append(ex.starts[:0], f.Breakpoints()...)
		ex.lastF = f
	}
	budget := opts.maxStates()
	res := DelayResult{}
	best := 0.0

	ex.cur = append(ex.cur[:0], dstate{e: q, d: 0})
	ex.front = ex.front[:0]
	if !opts.Naive {
		ex.front = append(ex.front, dstate{e: q, d: 0})
	}

	for len(ex.cur) > 0 {
		res.Depth++
		if len(ex.cur) > res.PeakFrontier {
			res.PeakFrontier = len(ex.cur)
		}
		if budget > 0 && res.States+len(ex.cur) > budget {
			return DelayResult{}, &StateSpaceError{States: res.States + len(ex.cur), Limit: budget}
		}
		layerBest, expanded, err := ex.expandLayer(g, f, q, c)
		if err != nil {
			return DelayResult{}, err
		}
		res.States += expanded
		if layerBest > best {
			best = layerBest
		}
		if opts.Naive {
			ex.cur, ex.next = ex.next, ex.cur
			continue
		}
		// Canonicalise the successor layer: sort by (e asc, d desc) so one
		// ascending sweep keeps exactly the pareto-undominated states.
		slices.SortFunc(ex.next, func(a, b dstate) int {
			switch {
			case a.e != b.e:
				if a.e < b.e {
					return -1
				}
				return 1
			case a.d != b.d:
				if a.d > b.d {
					return -1
				}
				return 1
			default:
				return 0
			}
		})
		kept := ex.cur[:0] // reuse the consumed layer's slab
		maxD := math.Inf(-1)
		lastKeptE := math.Inf(-1)
		for _, s := range ex.next {
			if s.d <= maxD {
				// Dominated within the layer by an earlier-or-equal e
				// with at-least-equal d.
				if s.e == lastKeptE {
					res.Merges++
				} else {
					res.Prunes++
				}
				continue
			}
			if ex.frontDominates(s) {
				res.Prunes++
				continue
			}
			kept = append(kept, s)
			maxD = s.d
			lastKeptE = s.e
			ex.frontInsert(s)
		}
		// kept lives on the consumed layer's slab; ex.next keeps its own
		// slab and is reset by the next expandLayer, so the two frontiers
		// never alias.
		ex.cur = kept
	}
	res.Delay = best
	return res, nil
}

// expandLayer expands every state of ex.cur into ex.next (reset first) and
// returns the best paid delay seen plus the number of states expanded.
// Successors are emitted in (state, candidate) order.
func (ex *Explorer) expandLayer(g *guard.Ctx, f *delay.Piecewise, q, c float64) (best float64, expanded int, err error) {
	out := ex.next[:0]
	for _, s := range ex.cur {
		if err := g.Tick(); err != nil {
			return 0, 0, err
		}
		expanded++
		out = emit(f, q, c, s, s.e, out, &best)
		for _, st := range ex.starts {
			if st > s.e && st < c {
				out = emit(f, q, c, s, st, out, &best)
			}
		}
	}
	ex.next = out
	return best, expanded, nil
}

// emit charges a strike at progression prog from state s and appends the
// successor to out, raising *best to the paid delay, unless the job
// completes before the strike.
func emit(f *delay.Piecewise, q, c float64, s dstate, prog float64, out []dstate, best *float64) []dstate {
	if prog >= c-completionTol(c, prog+s.d) {
		return out // job finishes before this strike lands
	}
	d := f.Eval(prog)
	paid := s.d + d
	if paid > *best {
		*best = paid
	}
	return append(out, dstate{e: prog + q - d, d: paid})
}

// frontDominates reports whether a visited state with e' <= s.e carries
// d' >= s.d. The frontier is kept sorted by e with d strictly increasing
// (the running maximum of paid delay over all visited states up to each e),
// so one binary search answers the query.
func (ex *Explorer) frontDominates(s dstate) bool {
	// Largest index with front[i].e <= s.e.
	i, _ := slices.BinarySearchFunc(ex.front, s.e, func(st dstate, e float64) int {
		if st.e <= e {
			return -1
		}
		return 1
	})
	// i is the first index with front[i].e > s.e.
	return i > 0 && ex.front[i-1].d >= s.d
}

// frontInsert records a kept state in the visited frontier, preserving the
// e-ascending / d-strictly-increasing invariant: entries at or after the
// insertion point with d <= s.d are absorbed (their running maximum is now
// s.d).
func (ex *Explorer) frontInsert(s dstate) {
	i, _ := slices.BinarySearchFunc(ex.front, s.e, func(st dstate, e float64) int {
		if st.e <= e {
			return -1
		}
		return 1
	})
	// frontDominates ran first, so front[i-1].d < s.d here. Drop the run of
	// entries starting at i whose d <= s.d, then splice s in.
	j := i
	for j < len(ex.front) && ex.front[j].d <= s.d {
		j++
	}
	if j == i {
		ex.front = slices.Insert(ex.front, i, s)
		return
	}
	ex.front[i] = s
	ex.front = append(ex.front[:i+1], ex.front[j:]...)
}
