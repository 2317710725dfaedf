package delay

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file is the differential harness for the indexed query kernel: a
// quickcheck-style generator of random valid Piecewise functions, a naive
// reference implementation of every Function query written as an
// obviously-correct linear scan over (breakpoints, values) copies, and a
// driver asserting that the scan kernel (Piecewise), the indexed kernel
// (Indexed) and the naive reference agree bit for bit across ~10k random
// (f, a, b, c) queries — including breakpoint-exact and ulp-adjacent
// endpoints, the territory where a rearranged floating-point expression
// would diverge by one ulp and break the byte-identical-output guarantee.

// --- naive reference implementations -----------------------------------

// naiveRef holds plain copies of a function's representation so the
// reference implementations cannot accidentally share code (or bugs) with
// the production kernels.
type naiveRef struct {
	xs []float64
	vs []float64
}

func newNaiveRef(p *Piecewise) naiveRef {
	return naiveRef{xs: p.Breakpoints(), vs: p.Values()}
}

func (n naiveRef) domain() float64 { return n.xs[len(n.xs)-1] }

// clamp mirrors the documented query clamping: a into [0, C], b into [a, C].
func (n naiveRef) clamp(a, b float64) (float64, float64) {
	d := n.domain()
	a = math.Max(0, math.Min(a, d))
	b = math.Max(a, math.Min(b, d))
	return a, b
}

// eval: linear scan for the piece containing t. A breakpoint belongs to the
// piece starting at it; arguments outside the domain are clamped.
func (n naiveRef) eval(t float64) float64 {
	if t <= n.xs[0] {
		return n.vs[0]
	}
	if t >= n.domain() {
		return n.vs[len(n.vs)-1]
	}
	for k := len(n.vs) - 1; k >= 0; k-- {
		if t >= n.xs[k] {
			return n.vs[k]
		}
	}
	return n.vs[0]
}

// maxOn: the maximum of f over [a, b] with the earliest point attaining it.
// The candidate points are the query start a and every piece start inside
// (a, b]; a strictly-greater update keeps the earliest maximizer.
func (n naiveRef) maxOn(a, b float64) (float64, float64) {
	a, b = n.clamp(a, b)
	tmax, fmax := a, n.eval(a)
	for k := 0; k < len(n.vs); k++ {
		if n.xs[k] > a && n.xs[k] <= b && n.vs[k] > fmax {
			tmax, fmax = n.xs[k], n.vs[k]
		}
	}
	return tmax, fmax
}

// firstReach: the smallest x in [a, b] with f(x) >= c - x, walking every
// piece in order. On a constant piece with value v the condition is
// x >= c - v, so the first candidate is max(pieceStart, a, c-v); the piece's
// right end is inclusive only when it is the query end strictly inside the
// piece or the domain end.
func (n naiveRef) firstReach(a, b, c float64) (float64, bool) {
	a, b = n.clamp(a, b)
	for k := 0; k < len(n.vs); k++ {
		lo := math.Max(n.xs[k], a)
		hi := math.Min(n.xs[k+1], b)
		if lo > hi {
			continue
		}
		inclusive := b < n.xs[k+1] || k == len(n.vs)-1
		x := c - n.vs[k]
		if x < lo {
			x = lo
		}
		if x < hi || (inclusive && x == hi) {
			return x, true
		}
	}
	return 0, false
}

// --- generators ---------------------------------------------------------

// randomPiecewise builds a random valid function with adversarial structure:
// plateaus (equal-valued adjacent pieces), zero-valued pieces, near-equal
// values one ulp apart, and occasional very narrow pieces.
func randomPiecewise(r *rand.Rand) *Piecewise {
	n := 1 + r.Intn(48)
	xs := make([]float64, 0, n+1)
	xs = append(xs, 0)
	x := 0.0
	for i := 0; i < n; i++ {
		var step float64
		switch r.Intn(4) {
		case 0: // narrow piece
			step = math.Nextafter(0, 1) + r.Float64()*1e-9
		case 1: // unit-ish piece
			step = 0.25 + r.Float64()
		default: // broad piece
			step = r.Float64() * 25
		}
		if step <= 0 {
			step = 1e-12
		}
		next := x + step
		if next <= x { // increment lost to rounding: force the next float
			next = math.Nextafter(x, math.Inf(1))
		}
		x = next
		xs = append(xs, x)
	}
	vs := make([]float64, n)
	for i := range vs {
		switch r.Intn(6) {
		case 0:
			vs[i] = 0
		case 1: // plateau: repeat the previous value
			if i > 0 {
				vs[i] = vs[i-1]
			} else {
				vs[i] = r.Float64() * 10
			}
		case 2: // one ulp off the previous value
			if i > 0 {
				vs[i] = math.Nextafter(vs[i-1], math.Inf(1))
			} else {
				vs[i] = r.Float64()
			}
		default:
			vs[i] = r.Float64() * 12
		}
	}
	p, err := NewPiecewise(xs, vs)
	if err != nil {
		panic(fmt.Sprintf("generator produced invalid function: %v", err))
	}
	return p
}

// randomEndpoint picks a query endpoint: uniform over an extended domain
// (exercising the clamp paths), an exact breakpoint, or a point one ulp to
// either side of a breakpoint.
func randomEndpoint(r *rand.Rand, p *Piecewise) float64 {
	xs := p.Breakpoints()
	d := p.Domain()
	switch r.Intn(5) {
	case 0:
		return xs[r.Intn(len(xs))]
	case 1:
		return math.Nextafter(xs[r.Intn(len(xs))], math.Inf(1))
	case 2:
		return math.Nextafter(xs[r.Intn(len(xs))], math.Inf(-1))
	default:
		return -0.2*d + r.Float64()*1.4*d
	}
}

// randomLine picks the c of a FirstReachDescending query: random over a wide
// range, or exactly (and one ulp off) a piece's v + rightBreakpoint — the
// tangency values where the crossing test is decided by a single rounding.
func randomLine(r *rand.Rand, p *Piecewise) float64 {
	xs, vs := p.Breakpoints(), p.Values()
	k := r.Intn(len(vs))
	s := vs[k] + xs[k+1]
	switch r.Intn(6) {
	case 0:
		return s
	case 1:
		return math.Nextafter(s, math.Inf(1))
	case 2:
		return math.Nextafter(s, math.Inf(-1))
	case 3:
		return vs[k] + xs[k] // tangent at the piece start
	default:
		d := p.Domain()
		return -d + r.Float64()*3*(p.maxValue()+d)
	}
}

func (p *Piecewise) maxValue() float64 {
	m := 0.0
	for _, v := range p.vs {
		if v > m {
			m = v
		}
	}
	return m
}

// --- the differential driver -------------------------------------------

// TestDifferentialKernels asserts bit-for-bit agreement of naive, scan and
// indexed kernels on ~10k random queries over ~150 random functions.
func TestDifferentialKernels(t *testing.T) {
	r := rand.New(rand.NewSource(20260805))
	const functions = 150
	const queriesPerFunction = 70
	queries := 0
	for fi := 0; fi < functions; fi++ {
		p := randomPiecewise(r)
		ix := NewIndexed(p)
		ref := newNaiveRef(p)
		for qi := 0; qi < queriesPerFunction; qi++ {
			a := randomEndpoint(r, p)
			b := randomEndpoint(r, p)
			if r.Intn(8) != 0 && b < a { // mostly ordered, sometimes inverted (clamp path)
				a, b = b, a
			}
			c := randomLine(r, p)
			queries++

			et := randomEndpoint(r, p)
			want := ref.eval(et)
			if got := p.Eval(et); got != want {
				t.Fatalf("f#%d Eval(%v): scan %v, naive %v\nf=%v", fi, et, got, want, p)
			}
			if got := ix.Eval(et); got != want {
				t.Fatalf("f#%d Eval(%v): indexed %v, naive %v\nf=%v", fi, et, got, want, p)
			}

			nt, nv := ref.maxOn(a, b)
			st, sv := p.MaxOn(a, b)
			it, iv := ix.MaxOn(a, b)
			if st != nt || sv != nv {
				t.Fatalf("f#%d MaxOn(%v, %v): scan (%v, %v), naive (%v, %v)\nf=%v", fi, a, b, st, sv, nt, nv, p)
			}
			if it != nt || iv != nv {
				t.Fatalf("f#%d MaxOn(%v, %v): indexed (%v, %v), naive (%v, %v)\nf=%v", fi, a, b, it, iv, nt, nv, p)
			}

			nx, nok := ref.firstReach(a, b, c)
			sx, sok := p.FirstReachDescending(a, b, c)
			ixx, iok := ix.FirstReachDescending(a, b, c)
			if sok != nok || (nok && sx != nx) {
				t.Fatalf("f#%d FirstReach(%v, %v, %v): scan (%v, %v), naive (%v, %v)\nf=%v", fi, a, b, c, sx, sok, nx, nok, p)
			}
			if iok != nok || (nok && ixx != nx) {
				t.Fatalf("f#%d FirstReach(%v, %v, %v): indexed (%v, %v), naive (%v, %v)\nf=%v", fi, a, b, c, ixx, iok, nx, nok, p)
			}
		}
	}
	if queries < 10000 {
		t.Fatalf("differential harness ran only %d queries, want >= 10000", queries)
	}
}

// TestIndexedMatchesScanOnPaperFunctions drives the two kernels with
// Algorithm 1-shaped queries (MaxOn over a window, FirstReachDescending
// against the window's own descending line) on the paper's Figure 4
// benchmark functions at full 4000-piece resolution.
func TestIndexedMatchesScanOnPaperFunctions(t *testing.T) {
	for name, p := range CalibratedParams().Benchmarks() {
		ix := NewIndexed(p)
		for _, q := range []float64{15, 20, 100, 650, 2000} {
			for prog := 0.0; prog < p.Domain(); prog += q / 3 {
				sx, sok := p.FirstReachDescending(prog, prog+q, prog+q)
				ixx, iok := ix.FirstReachDescending(prog, prog+q, prog+q)
				if sok != iok || (sok && sx != ixx) {
					t.Fatalf("%s Q=%g prog=%g: FirstReach scan (%v,%v) vs indexed (%v,%v)", name, q, prog, sx, sok, ixx, iok)
				}
				end := prog + q
				if sok {
					end = sx
				}
				st, sv := p.MaxOn(prog, end)
				it, iv := ix.MaxOn(prog, end)
				if st != it || sv != iv {
					t.Fatalf("%s Q=%g prog=%g: MaxOn scan (%v,%v) vs indexed (%v,%v)", name, q, prog, st, sv, it, iv)
				}
			}
		}
	}
}

// --- tie-break contract on plateaus -------------------------------------

// TestMaxOnPlateauTieBreak pins the earliest-maximizer contract on plateaus
// (equal-valued adjacent pieces) for both kernels: when several pieces
// attain the maximum, the earliest point wins — the query start a if its
// piece attains it, otherwise the left breakpoint of the earliest attaining
// piece.
func TestMaxOnPlateauTieBreak(t *testing.T) {
	cases := []struct {
		name     string
		xs       []float64
		vs       []float64
		a, b     float64
		tmax, fv float64
	}{
		{"plateau-from-start", []float64{0, 1, 2, 3}, []float64{5, 5, 3}, 0, 3, 0, 5},
		{"plateau-query-inside", []float64{0, 1, 2, 3}, []float64{5, 5, 3}, 0.5, 3, 0.5, 5},
		{"plateau-later", []float64{0, 1, 2, 3}, []float64{3, 5, 5}, 0, 3, 1, 5},
		{"plateau-start-inside-it", []float64{0, 1, 2, 3}, []float64{3, 5, 5}, 1.5, 3, 1.5, 5},
		{"equal-separated-by-dip", []float64{0, 1, 2, 3}, []float64{5, 1, 5}, 0, 3, 0, 5},
		{"dip-then-two-equal", []float64{0, 1, 2, 3, 4}, []float64{1, 5, 2, 5}, 0, 4, 1, 5},
		{"all-equal", []float64{0, 1, 2, 3}, []float64{4, 4, 4}, 0.25, 2.75, 0.25, 4},
		{"query-at-breakpoint", []float64{0, 1, 2, 3}, []float64{3, 5, 5}, 2, 3, 2, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := NewPiecewise(c.xs, c.vs)
			if err != nil {
				t.Fatal(err)
			}
			ix := NewIndexed(p)
			st, sv := p.MaxOn(c.a, c.b)
			if st != c.tmax || sv != c.fv {
				t.Errorf("scan MaxOn(%g,%g) = (%g,%g), want (%g,%g)", c.a, c.b, st, sv, c.tmax, c.fv)
			}
			it, iv := ix.MaxOn(c.a, c.b)
			if it != c.tmax || iv != c.fv {
				t.Errorf("indexed MaxOn(%g,%g) = (%g,%g), want (%g,%g)", c.a, c.b, it, iv, c.tmax, c.fv)
			}
		})
	}
}

// --- AutoIndex policy ---------------------------------------------------

func TestAutoIndex(t *testing.T) {
	small := Step(1, 2, 10, 4) // 4 pieces: below the indexing threshold
	if got := AutoIndex(small); got != Function(small) {
		t.Errorf("AutoIndex indexed a %d-piece function; threshold is %d", small.Pieces(), autoIndexMinPieces)
	}
	big := Step(1, 2, 100, autoIndexMinPieces)
	ix, ok := AutoIndex(big).(*Indexed)
	if !ok {
		t.Fatalf("AutoIndex left a %d-piece function unindexed", big.Pieces())
	}
	if AutoIndex(ix) != Function(ix) {
		t.Error("AutoIndex rebuilt an already-indexed function")
	}
	var nilP *Piecewise
	if got := AutoIndex(nilP); got != Function(nilP) {
		t.Error("AutoIndex touched a nil *Piecewise")
	}
}

// TestIndexedSinglePiece covers the degenerate one-piece function, where
// every query resolves inside the first/last piece special cases.
func TestIndexedSinglePiece(t *testing.T) {
	p := Constant(3, 10)
	ix := NewIndexed(p)
	if tm, fv := ix.MaxOn(2, 8); tm != 2 || fv != 3 {
		t.Errorf("MaxOn = (%g,%g), want (2,3)", tm, fv)
	}
	x, ok := ix.FirstReachDescending(0, 10, 8)
	wx, wok := p.FirstReachDescending(0, 10, 8)
	if ok != wok || x != wx {
		t.Errorf("FirstReach indexed (%g,%v), scan (%g,%v)", x, ok, wx, wok)
	}
	if ix.Domain() != 10 || ix.Eval(5) != 3 || ix.p.Pieces() != 1 {
		t.Error("trivial accessors disagree with the underlying function")
	}
	if ix.Piecewise() != p {
		t.Error("Piecewise() lost the underlying function")
	}
}
