package delay

import "fnpr/internal/obs"

// This file implements the walk-step query: one Algorithm 1 window answered
// in a single call. Each iteration of the walk asks for p∩, the first point
// of [prog, prog+Q] where f reaches the descending line prog+Q-x, and then
// for the earliest maximum of f on [prog, p∩]. As two independent queries
// (FirstReachDescending, then MaxOn) they locate four pieces by binary
// search, although prog only moves forward within a walk and the crossing
// query already knows the piece holding p∩. A Cursor carries the piece of
// the last window's start, finds the pieces of prog and prog+Q by galloping
// forward from it, and answers the maximum from the crossing's piece.
//
// The step is an exact rewrite of the two queries: p∩, p_max and delay_max
// are bit for bit what FirstReachDescending and MaxOn return, and the index
// kernel's rechecks and bisections are counted exactly as its
// FirstReachDescending counts them. Those two queries stay the oracle of
// TestCursorMatchesTwoQueries and FuzzCursorStep.

// Cursor walks Algorithm 1's windows over a piecewise-constant function,
// scan (*Piecewise) or indexed (*Indexed). It is a value a walk owns; it
// is not safe for concurrent use.
type Cursor struct {
	p  *Piecewise
	ix *Indexed // nil on the scan kernel
	// piece is the piece holding the start of the last window: a lower
	// bound on the next window's pieces while prog moves forward.
	piece int
	// Index-kernel tallies, reported by Flush.
	rechecks, bisections int64
}

// NewCursor returns a walk cursor over f when f is a *Piecewise or an
// *Indexed, and ok=false for every other Function (PiecewiseLinear,
// wrappers and test doubles), which answer the window through
// FirstReachDescending and MaxOn. The match is on the concrete type, so a
// wrapper embedding a *Piecewise keeps its own query methods.
func NewCursor(f Function) (c Cursor, ok bool) {
	switch v := f.(type) {
	case *Piecewise:
		return Cursor{p: v}, true
	case *Indexed:
		return Cursor{p: v.p, ix: v}, true
	}
	return Cursor{}, false
}

// Step answers one Algorithm 1 window starting at prog with region length
// q: pIntersect is FirstReachDescending(prog, prog+q, prog+q), or prog+q
// when f stays below the line, and (pmax, delayMax) is MaxOn(prog,
// pIntersect). Consecutive steps should start at non-decreasing prog; a
// step that starts earlier than its predecessor falls back to a binary
// search and stays exact.
func (c *Cursor) Step(prog, q float64) (pIntersect, pmax, delayMax float64) {
	if c.ix != nil {
		return c.ix.walkStep(c, prog, q)
	}
	return c.p.walkStep(c, prog, q)
}

// Flush reports the index kernel's rechecks and bisections accumulated
// since the last Flush to the delay.index.* counters (when obs is enabled)
// and clears them. A walk calls it once, at its end.
func (c *Cursor) Flush() {
	if (c.rechecks != 0 || c.bisections != 0) && obs.Enabled() {
		flushIndexQuery(c.rechecks, c.bisections)
	}
	c.rechecks, c.bisections = 0, 0
}

// seek returns pieceAt(t), searching forward from piece from: it gallops
// over the breakpoints after from and bisects the last gap. When t lies
// before xs[from] (or is NaN) it falls back to pieceAt.
func (p *Piecewise) seek(from int, t float64) int {
	n := len(p.vs)
	if t <= p.xs[0] {
		return 0
	}
	if t >= p.xs[n] {
		return n - 1
	}
	if !(p.xs[from] <= t) {
		return p.pieceAt(t)
	}
	// Invariant: xs[lo] <= t < xs[hi]; xs[n] > t holds from the check above.
	lo, hi := from, n
	for step := 1; lo+step < n; step <<= 1 {
		if p.xs[lo+step] > t {
			hi = lo + step
			break
		}
		lo += step
	}
	for hi-lo > 1 {
		m := int(uint(lo+hi) >> 1)
		if p.xs[m] <= t {
			lo = m
		} else {
			hi = m
		}
	}
	return lo
}

// window locates the pieces of one step: the clamped window [a, b] of
// [prog, end], the piece i holding a (which becomes the cursor) and the
// piece j holding b.
func (p *Piecewise) window(c *Cursor, prog, end float64) (a, b float64, i, j int) {
	a, b = p.clampRange(prog, end)
	i = p.seek(c.piece, a)
	j = p.seek(i, b)
	c.piece = i
	return a, b, i, j
}

// walkStep is the scan kernel's step: one pass over the pieces of the
// window folds the crossing test and the running maximum of MaxOn. The
// maximum covers the pieces up to and including the crossing's: p∩ lies in
// that piece, since a crossing sits on its piece's right end only when
// that end is the last piece's, which owns it.
func (p *Piecewise) walkStep(c *Cursor, prog, q float64) (pIntersect, pmax, delayMax float64) {
	end := prog + q
	a, b, i, j := p.window(c, prog, end)
	pmax, delayMax = a, p.vs[i]
	for k := i; k <= j; k++ {
		if k > i && p.vs[k] > delayMax {
			pmax, delayMax = p.xs[k], p.vs[k]
		}
		if x, ok := p.reachInPiece(k, a, b, end); ok {
			return x, pmax, delayMax
		}
	}
	return end, pmax, delayMax
}

// walkStep is the index kernel's step: the crossing search of
// FirstReachDescending, then the O(1) earliest argmax over the pieces up to
// the crossing's piece (or the window's last piece when there is none) —
// the piece MaxOn's second search would find.
func (ix *Indexed) walkStep(c *Cursor, prog, q float64) (pIntersect, pmax, delayMax float64) {
	p := ix.p
	end := prog + q
	a, b, i, j := p.window(c, prog, end)
	pIntersect, k, ok := ix.firstReach(a, b, end, i, j, &c.rechecks, &c.bisections)
	if !ok {
		pIntersect, k = end, j
	}
	if k > i {
		if m := ix.argmax(i+1, k); p.vs[m] > p.vs[i] {
			return pIntersect, p.xs[m], p.vs[m]
		}
	}
	return pIntersect, a, p.vs[i]
}
