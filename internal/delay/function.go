// Package delay implements the per-task preemption delay function fi(t) of
// the paper: an upper bound on the cost of a (first) preemption occurring
// when the task has progressed t time units into its execution (Section III
// and IV).
//
// The canonical representation is the piecewise-constant Piecewise type —
// the natural shape of a function built as fi(t) = max_{b in BB(t)} CRPD_b
// over the block windows of a control-flow graph (FromCFG). Smooth synthetic
// functions such as the paper's Gaussian benchmarks (synth.go) are lifted to
// piecewise-constant upper envelopes by sampling (envelope.go). Running the
// analysis on an upper envelope g >= f is sound for f, though Algorithm 1's
// bound is not monotone in the function: the exact worst-case delay is
// (internal/exact), so exact(f) <= exact(g) <= Alg1(g), the last step by
// Theorem 1 applied to g.
package delay

import (
	"fmt"
	"math"
	"sort"

	"fnpr/internal/guard"
)

// Function is the query interface Algorithm 1 needs from a preemption delay
// function.
type Function interface {
	// Domain returns C, the length of the interval [0, C] on which the
	// function is defined (the task's isolated WCET).
	Domain() float64

	// Eval returns f(t). Arguments outside [0, Domain] are clamped.
	Eval(t float64) float64

	// MaxOn returns the maximum of f over [a, b] (clamped to the domain)
	// together with the earliest point attaining it.
	MaxOn(a, b float64) (tmax, fmax float64)

	// FirstReachDescending returns the smallest x in [a, b] such that
	// f(x) >= c - x (the first point where f reaches the descending
	// unit-slope line D used by Algorithm 1), or ok=false when f stays
	// strictly below the line on the whole interval.
	FirstReachDescending(a, b, c float64) (x float64, ok bool)
}

// Piecewise is a piecewise-constant function on [0, C]: value vs[i] on
// [xs[i], xs[i+1]). The last piece includes its right endpoint.
type Piecewise struct {
	xs []float64 // len n+1, strictly increasing, xs[0] == 0
	vs []float64 // len n, all >= 0
}

// NewPiecewise builds a piecewise-constant function from breakpoints and
// per-piece values. Requirements: len(xs) == len(vs)+1, xs strictly
// increasing, finite, xs[0] == 0, values non-negative and finite. All
// validation failures wrap guard.ErrInvalidInput.
func NewPiecewise(xs, vs []float64) (*Piecewise, error) {
	p := new(Piecewise)
	if err := p.Reset(xs, vs); err != nil {
		return nil, err
	}
	return p, nil
}

// Reset is NewPiecewise in place: it makes p the function with breakpoints
// xs and values vs under the same validation, reusing p's storage, and
// leaves p unchanged on error. A Piecewise is otherwise immutable, so Reset
// is for a caller that owns p outright (no Indexed wraps it, no analysis
// holds it), such as a campaign worker rebuilding its curves each trial.
func (p *Piecewise) Reset(xs, vs []float64) error {
	if len(xs) != len(vs)+1 {
		return guard.Invalidf("delay: %d breakpoints need %d values, got %d", len(xs), len(xs)-1, len(vs))
	}
	if len(vs) == 0 {
		return guard.Invalidf("delay: empty function")
	}
	if xs[0] != 0 {
		return guard.Invalidf("delay: domain must start at 0, got %g", xs[0])
	}
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return guard.Invalidf("delay: breakpoint %d is non-finite (%g)", i, x)
		}
		if i > 0 && !(x > xs[i-1]) {
			return guard.Invalidf("delay: breakpoints not strictly increasing at %d", i)
		}
	}
	for i, v := range vs {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return guard.Invalidf("delay: piece %d has invalid value %g", i, v)
		}
	}
	p.xs = append(p.xs[:0], xs...)
	p.vs = append(p.vs[:0], vs...)
	return nil
}

// NewConstant returns the constant function v on [0, c].
func NewConstant(v, c float64) (*Piecewise, error) {
	return NewPiecewise([]float64{0, c}, []float64{v})
}

// Constant returns the constant function v on [0, c]. It panics on invalid
// parameters, so it is for tests and fixtures ONLY; library code should use
// NewConstant and propagate the error.
func Constant(v, c float64) *Piecewise {
	p, err := NewPiecewise([]float64{0, c}, []float64{v})
	if err != nil {
		panic(err)
	}
	return p
}

// Domain implements Function.
func (p *Piecewise) Domain() float64 { return p.xs[len(p.xs)-1] }

// Pieces returns the number of constant pieces.
func (p *Piecewise) Pieces() int { return len(p.vs) }

// Breakpoints returns a copy of the breakpoint slice.
func (p *Piecewise) Breakpoints() []float64 { return append([]float64(nil), p.xs...) }

// AppendBreakpoints appends the breakpoints to dst and returns the extended
// slice: Breakpoints without the allocation when dst has room.
func (p *Piecewise) AppendBreakpoints(dst []float64) []float64 { return append(dst, p.xs...) }

// Values returns a copy of the per-piece values.
func (p *Piecewise) Values() []float64 { return append([]float64(nil), p.vs...) }

// AppendValues appends the per-piece values to dst and returns the extended
// slice: Values without the allocation when dst has room.
func (p *Piecewise) AppendValues(dst []float64) []float64 { return append(dst, p.vs...) }

// pieceAt returns the index of the piece containing t (clamped).
func (p *Piecewise) pieceAt(t float64) int {
	if t <= p.xs[0] {
		return 0
	}
	if t >= p.Domain() {
		return len(p.vs) - 1
	}
	// Find the first breakpoint > t; the piece is the one before it.
	i := sort.SearchFloat64s(p.xs, t)
	if i < len(p.xs) && p.xs[i] == t {
		return i // piece starting exactly at t
	}
	return i - 1
}

// Eval implements Function.
func (p *Piecewise) Eval(t float64) float64 {
	return p.vs[p.pieceAt(t)]
}

// Max returns the global maximum of the function and its earliest location.
func (p *Piecewise) Max() (tmax, fmax float64) {
	return p.MaxOn(0, p.Domain())
}

// MaxOn implements Function. Tie-break contract (pinned by tests and
// honored bit-for-bit by Indexed): when several pieces attain the maximum —
// a plateau of equal-valued adjacent pieces, or equal values separated by a
// dip — the earliest point wins. Concretely, the running maximum only
// updates on strictly greater values, so tmax is the query start a when the
// piece containing a attains the maximum, and otherwise the left breakpoint
// of the earliest attaining piece.
func (p *Piecewise) MaxOn(a, b float64) (tmax, fmax float64) {
	a, b = p.clampRange(a, b)
	i, j := p.pieceAt(a), p.pieceAt(b)
	tmax, fmax = a, p.vs[i]
	for k := i + 1; k <= j; k++ {
		if p.xs[k] > b {
			break
		}
		if p.vs[k] > fmax {
			fmax = p.vs[k]
			tmax = p.xs[k]
		}
	}
	return tmax, fmax
}

func (p *Piecewise) clampRange(a, b float64) (float64, float64) {
	d := p.Domain()
	a = max(0, min(a, d))
	b = max(a, min(b, d))
	return a, b
}

// FirstReachDescending implements Function: the smallest x in [a, b] with
// f(x) >= c - x. On a constant piece with value v the condition becomes
// x >= c - v, so the candidate within a piece is max(pieceStart, a, c-v).
func (p *Piecewise) FirstReachDescending(a, b, c float64) (float64, bool) {
	a, b = p.clampRange(a, b)
	i, j := p.pieceAt(a), p.pieceAt(b)
	for k := i; k <= j; k++ {
		if x, ok := p.reachInPiece(k, a, b, c); ok {
			return x, true
		}
	}
	return 0, false
}

// reachInPiece applies the descending-line crossing test to piece k of the
// (already clamped) query [a, b] against the line c - x, reporting the first
// crossing point inside the piece if there is one. Both the scan kernel
// (FirstReachDescending above) and the indexed kernel run this exact code on
// the same floats, so the two paths agree bit for bit.
func (p *Piecewise) reachInPiece(k int, a, b, c float64) (float64, bool) {
	lo := max(p.xs[k], a)
	hi := min(p.xs[k+1], b)
	// hi is inclusive when it is the query end strictly inside the
	// piece, or when this is the last piece (which owns its right
	// endpoint); otherwise the next piece owns the breakpoint.
	inclusive := b < p.xs[k+1] || k == len(p.vs)-1
	if lo > hi {
		return 0, false
	}
	// Candidate: the first point of this piece where v >= c - x,
	// i.e. x = max(lo, c-v). By construction the candidate
	// satisfies the crossing condition (x = lo implies c-v <= lo,
	// x = c-v is the equality point), so no value re-check is
	// needed — re-deriving v >= c-x in floating point can fail by
	// an ulp after the double rounding.
	x := c - p.vs[k]
	if x < lo {
		x = lo
	}
	if x < hi || (inclusive && x == hi) {
		return x, true
	}
	return 0, false
}

// Scale returns a copy with all values multiplied by k (k >= 0).
func (p *Piecewise) Scale(k float64) (*Piecewise, error) {
	if k < 0 || math.IsNaN(k) || math.IsInf(k, 0) {
		return nil, guard.Invalidf("delay: invalid scale factor %g", k)
	}
	vs := make([]float64, len(p.vs))
	for i, v := range p.vs {
		vs[i] = v * k
	}
	return NewPiecewise(p.xs, vs)
}

// MaxWith returns the pointwise maximum of p and q, which must share the
// same domain length.
func (p *Piecewise) MaxWith(q *Piecewise) (*Piecewise, error) {
	if p.Domain() != q.Domain() {
		return nil, fmt.Errorf("delay: domain mismatch %g vs %g", p.Domain(), q.Domain())
	}
	xs := mergeBreakpoints(p.xs, q.xs)
	vs := make([]float64, len(xs)-1)
	for i := 0; i < len(vs); i++ {
		mid := (xs[i] + xs[i+1]) / 2
		vs[i] = math.Max(p.Eval(mid), q.Eval(mid))
	}
	return NewPiecewise(xs, vs)
}

func mergeBreakpoints(a, b []float64) []float64 {
	out := make([]float64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Compact merges adjacent pieces with equal values.
func (p *Piecewise) Compact() *Piecewise {
	xs := []float64{p.xs[0]}
	var vs []float64
	for i := 0; i < len(p.vs); i++ {
		if len(vs) > 0 && vs[len(vs)-1] == p.vs[i] {
			xs[len(xs)-1] = p.xs[i+1]
			continue
		}
		vs = append(vs, p.vs[i])
		xs = append(xs, p.xs[i+1])
	}
	out, err := NewPiecewise(xs, vs)
	if err != nil {
		panic(err) // cannot happen: inputs came from a valid Piecewise
	}
	return out
}

// String renders the function compactly.
func (p *Piecewise) String() string {
	s := "f{"
	for i, v := range p.vs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("[%g,%g)=%g", p.xs[i], p.xs[i+1], v)
	}
	return s + "}"
}

// Plus returns the pointwise sum of p and q (same domain length required) —
// the composition rule when several state-carrying resources contribute
// delay independently (e.g. per-cache-level CRPD functions).
func (p *Piecewise) Plus(q *Piecewise) (*Piecewise, error) {
	if p.Domain() != q.Domain() {
		return nil, fmt.Errorf("delay: domain mismatch %g vs %g", p.Domain(), q.Domain())
	}
	xs := mergeBreakpoints(p.xs, q.xs)
	vs := make([]float64, len(xs)-1)
	for i := 0; i < len(vs); i++ {
		mid := (xs[i] + xs[i+1]) / 2
		vs[i] = p.Eval(mid) + q.Eval(mid)
	}
	return NewPiecewise(xs, vs)
}
