package delay

import (
	"math"
	"math/bits"
	"sync"
	"time"

	"fnpr/internal/obs"
)

// This file implements the query-accelerated view of a Piecewise function:
// the performance kernel behind the figure-level sweeps. A Piecewise answers
// MaxOn and FirstReachDescending by scanning every piece overlapping the
// query window — O(pieces) per Algorithm 1 window, so fine-grained
// CFG-derived functions (hundreds of basic blocks) make each (task, Q)
// analysis quadratic and a whole Figure 5 grid multiplies that cost. Indexed
// preprocesses the pieces once — O(n log n) time and memory — and then
// answers every query in O(log n), bit-for-bit identical to the scan (the
// differential and golden tests in this package and internal/eval prove the
// equivalence; the fuzzers drive it continuously).

// autoIndexMinPieces is the piece count below which AutoIndex leaves a
// function un-indexed: the scan over a handful of pieces is cheaper than the
// sparse-table lookups, and the index memory would be pure overhead.
const autoIndexMinPieces = 32

// Indexed is a Piecewise function with precomputed query structures:
//
//   - a sparse table of earliest-argmax piece indices, so MaxOn is two O(1)
//     table lookups instead of an O(pieces) scan;
//   - a sparse table of range maxima over s[k] = vs[k] + xs[k+1] (the
//     largest value the descending-line test can meet inside piece k), so
//     FirstReachDescending binary-searches the first piece that can contain
//     a crossing instead of scanning up to the whole window.
//
// Indexed implements Function and answers every query bit-for-bit identically
// to the underlying Piecewise, including the earliest-maximizer tie-break of
// MaxOn on plateaus. It is immutable after construction and therefore safe
// for concurrent use by the sweep worker pool; build it once per function and
// share it across the whole Q grid.
type Indexed struct {
	p *Piecewise
	// arg[l][i] is the index of the earliest maximum-value piece in
	// vs[i : i+2^l]. Ties prefer the lower index, preserving the
	// earliest-maximizer contract of Piecewise.MaxOn.
	arg [][]int32
	// reach[l][i] is max(s[i : i+2^l]) with s[k] = vs[k] + xs[k+1].
	reach [][]float64
	// slack over-approximates the rounding error between the exact
	// per-piece crossing test (computed on c - vs[k]) and the indexed
	// pre-filter (computed on vs[k] + xs[k+1]): a piece whose s value is
	// below c - slack provably contains no crossing, so the search may
	// skip it; pieces above the threshold are re-checked with the exact
	// scan test, keeping results bit-identical.
	slack float64

	// fp caches the canonical fingerprint (fingerprint.go), computed
	// lazily: sweeps fingerprint the same shared Indexed once per grid
	// point, and sync.Once keeps that safe and amortized.
	fpOnce sync.Once
	fp     Fingerprint
}

// NewIndexed builds the query index for p in O(n log n) time and memory
// (roughly 12·n·log2(n) bytes for n pieces). The result shares p's piece
// storage; p must not be mutated afterwards (Piecewise has no mutating
// methods, so this only matters for code reaching into unexported state).
func NewIndexed(p *Piecewise) *Indexed {
	var start time.Time
	if obs.Enabled() {
		start = time.Now()
	}
	n := len(p.vs)
	levels := bits.Len(uint(n))
	ix := &Indexed{
		p:     p,
		arg:   make([][]int32, levels),
		reach: make([][]float64, levels),
	}
	base := make([]int32, n)
	s := make([]float64, n)
	maxSum := 0.0
	for k := 0; k < n; k++ {
		base[k] = int32(k)
		s[k] = p.vs[k] + p.xs[k+1]
		if s[k] > maxSum {
			maxSum = s[k]
		}
	}
	ix.arg[0] = base
	ix.reach[0] = s
	for lvl := 1; lvl < levels; lvl++ {
		width := 1 << lvl
		half := width >> 1
		prevA, prevR := ix.arg[lvl-1], ix.reach[lvl-1]
		m := n - width + 1
		a := make([]int32, m)
		r := make([]float64, m)
		for i := 0; i < m; i++ {
			l, rt := prevA[i], prevA[i+half]
			if p.vs[l] >= p.vs[rt] {
				a[i] = l
			} else {
				a[i] = rt
			}
			if prevR[i] >= prevR[i+half] {
				r[i] = prevR[i]
			} else {
				r[i] = prevR[i+half]
			}
		}
		ix.arg[lvl] = a
		ix.reach[lvl] = r
	}
	// 8 units in the last place of the largest s value bounds the combined
	// rounding of (c - vs[k]) vs (vs[k] + xs[k+1]) with a 4x margin; +Inf
	// (overflowing sums) degrades to a full exact scan, never to a wrong
	// answer.
	const eps = 2.220446049250313e-16
	ix.slack = 8 * eps * math.Max(1, maxSum)
	if obs.Enabled() {
		flushIndexBuild(time.Since(start).Nanoseconds())
	}
	return ix
}

// AutoIndex wraps f in a query index when that is worthwhile: piecewise
// functions with at least autoIndexMinPieces pieces gain O(log n) queries,
// smaller ones and non-piecewise implementations pass through unchanged, and
// an already-indexed function is returned as-is (so repeated AutoIndex calls
// never rebuild).
func AutoIndex(f Function) Function {
	switch pf := f.(type) {
	case *Indexed:
		return pf
	case *Piecewise:
		if pf != nil && pf.Pieces() >= autoIndexMinPieces {
			return NewIndexed(pf)
		}
	}
	return f
}

// Piecewise returns the underlying scan-kernel function.
func (ix *Indexed) Piecewise() *Piecewise { return ix.p }

// Pieces returns the number of constant pieces.
func (ix *Indexed) Pieces() int { return ix.p.Pieces() }

// Domain implements Function.
func (ix *Indexed) Domain() float64 { return ix.p.Domain() }

// Eval implements Function.
func (ix *Indexed) Eval(t float64) float64 { return ix.p.Eval(t) }

// String renders the underlying function.
func (ix *Indexed) String() string { return ix.p.String() }

// argmax returns the index of the earliest maximum-value piece in [l, r]
// (inclusive). The two overlapping sparse-table windows preserve the
// earliest tie-break: if the overall earliest maximizer lies in the left
// window it wins its window and the >= comparison keeps it; otherwise the
// left window's maximum is strictly smaller and the right window — which
// starts at or before the earliest maximizer — supplies it.
func (ix *Indexed) argmax(l, r int) int {
	lvl := bits.Len(uint(r-l+1)) - 1
	a, b := ix.arg[lvl][l], ix.arg[lvl][r-(1<<lvl)+1]
	if ix.p.vs[a] >= ix.p.vs[b] {
		return int(a)
	}
	return int(b)
}

// reachMax returns max(s[l : r+1]).
func (ix *Indexed) reachMax(l, r int) float64 {
	lvl := bits.Len(uint(r-l+1)) - 1
	a, b := ix.reach[lvl][l], ix.reach[lvl][r-(1<<lvl)+1]
	if a >= b {
		return a
	}
	return b
}

// firstReachAtLeast returns the smallest k in [l, r] with s[k] >= threshold,
// or -1 when the whole range stays below it. O(log n): a binary search
// driven by O(1) range-maximum lookups.
func (ix *Indexed) firstReachAtLeast(l, r int, threshold float64) int {
	if ix.reachMax(l, r) < threshold {
		return -1
	}
	for l < r {
		m := (l + r) / 2
		if ix.reachMax(l, m) >= threshold {
			r = m
		} else {
			l = m + 1
		}
	}
	return l
}

// MaxOn implements Function with the same contract as Piecewise.MaxOn —
// including the earliest-maximizer tie-break: when several pieces share the
// maximum, the earliest one wins, and when the query start a lies in a piece
// attaining the maximum, tmax is a itself.
func (ix *Indexed) MaxOn(a, b float64) (tmax, fmax float64) {
	p := ix.p
	a, b = p.clampRange(a, b)
	i, j := p.pieceAt(a), p.pieceAt(b)
	if j > i {
		if k := ix.argmax(i+1, j); p.vs[k] > p.vs[i] {
			return p.xs[k], p.vs[k]
		}
	}
	return a, p.vs[i]
}

// FirstReachDescending implements Function, bit-identical to the Piecewise
// scan. The first and last pieces of the query window are checked with the
// exact scan test directly; for the interior — where the scan walks every
// piece — the reach table locates the first piece whose s[k] = vs[k]+xs[k+1]
// can meet the line at all, and only candidate pieces within rounding slack
// of the threshold are re-checked exactly. Pieces skipped by the pre-filter
// provably fail the exact test, so the first accepted crossing is the same
// one the scan finds.
func (ix *Indexed) FirstReachDescending(a, b, c float64) (x float64, found bool) {
	// Plain local tallies (register increments) keep the query loop free of
	// atomics; the single flush is skipped unless obs.Enable() has been
	// called, so the uninstrumented cost is one atomic bool load.
	var rechecks, bisections int64
	p := ix.p
	a, b = p.clampRange(a, b)
	x, _, found = ix.firstReach(a, b, c, p.pieceAt(a), p.pieceAt(b), &rechecks, &bisections)
	if obs.Enabled() {
		flushIndexQuery(rechecks, bisections)
	}
	return x, found
}

// firstReach is the crossing search of FirstReachDescending on the clamped
// window [a, b], whose first and last pieces are i and j. It also returns
// the piece k holding the crossing and adds its exact re-checks and
// range-maximum bisections to the caller's tallies; the walk step
// (walk.go) shares it, so both count the same work.
func (ix *Indexed) firstReach(a, b, c float64, i, j int, rechecks, bisections *int64) (x float64, k int, found bool) {
	p := ix.p
	*rechecks++
	if x, ok := p.reachInPiece(i, a, b, c); ok {
		return x, i, true
	}
	if j > i {
		cLo := c - ix.slack
		for lo, hi := i+1, j-1; lo <= hi; {
			*bisections++
			k := ix.firstReachAtLeast(lo, hi, cLo)
			if k < 0 {
				break
			}
			*rechecks++
			if x, ok := p.reachInPiece(k, a, b, c); ok {
				return x, k, true
			}
			lo = k + 1
		}
		*rechecks++
		if x, ok := p.reachInPiece(j, a, b, c); ok {
			return x, j, true
		}
	}
	return 0, -1, false
}
