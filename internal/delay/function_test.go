package delay

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustPW(t *testing.T, xs, vs []float64) *Piecewise {
	t.Helper()
	p, err := NewPiecewise(xs, vs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPiecewiseValidation(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		vs   []float64
	}{
		{"length mismatch", []float64{0, 1}, []float64{1, 2}},
		{"empty", []float64{0}, nil},
		{"domain not at 0", []float64{1, 2}, []float64{1}},
		{"not increasing", []float64{0, 2, 2}, []float64{1, 2}},
		{"decreasing", []float64{0, 3, 1}, []float64{1, 2}},
		{"negative value", []float64{0, 1}, []float64{-1}},
		{"NaN value", []float64{0, 1}, []float64{math.NaN()}},
		{"inf value", []float64{0, 1}, []float64{math.Inf(1)}},
	}
	for _, c := range cases {
		if _, err := NewPiecewise(c.xs, c.vs); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestNewPiecewiseCopiesInput(t *testing.T) {
	xs := []float64{0, 1, 2}
	vs := []float64{3, 4}
	p := mustPW(t, xs, vs)
	xs[1] = 99
	vs[0] = 99
	if p.Eval(0.5) != 3 {
		t.Fatal("Piecewise shares caller storage")
	}
}

// TestResetMatchesNewPiecewise: rebuilding one curve in place gives the
// function and the error NewPiecewise gives, leaves the curve as it was on
// an invalid input, and allocates nothing once the storage fits.
func TestResetMatchesNewPiecewise(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	p := mustPW(t, []float64{0, 1}, []float64{1})
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(6)
		xs, vs := []float64{0}, make([]float64, n)
		for i := range vs {
			xs = append(xs, xs[i]+r.Float64()*3) // a zero-width piece now and then
			vs[i] = r.Float64()*4 - 0.2          // a negative value now and then
		}
		before := p.String()
		want, wantErr := NewPiecewise(xs, vs)
		err := p.Reset(xs, vs)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("Reset error %v, NewPiecewise error %v", err, wantErr)
		case err != nil && err.Error() != wantErr.Error():
			t.Fatalf("Reset error %q, NewPiecewise error %q", err, wantErr)
		case err != nil && p.String() != before:
			t.Fatalf("failed Reset changed the curve from %s to %s", before, p)
		case err == nil && p.String() != want.String():
			t.Fatalf("Reset gave %s, NewPiecewise %s", p, want)
		}
	}
	fl, err := NewFrontLoaded(3, 0.6, 40)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ResetFrontLoaded(3, 0.6, 40); err != nil || p.String() != fl.String() {
		t.Fatalf("ResetFrontLoaded gave %s (%v), NewFrontLoaded %s", p, err, fl)
	}
	if a := testing.AllocsPerRun(100, func() { _ = p.ResetFrontLoaded(2, 0.4, 30) }); a != 0 {
		t.Fatalf("ResetFrontLoaded into a built curve: %v allocs, want 0", a)
	}
}

func TestEval(t *testing.T) {
	p := mustPW(t, []float64{0, 10, 20, 40}, []float64{1, 5, 2})
	cases := []struct{ t, want float64 }{
		{-5, 1}, {0, 1}, {9.99, 1},
		{10, 5}, {15, 5},
		{20, 2}, {39, 2}, {40, 2}, {100, 2},
	}
	for _, c := range cases {
		if got := p.Eval(c.t); got != c.want {
			t.Errorf("Eval(%g) = %g, want %g", c.t, got, c.want)
		}
	}
}

func TestConstant(t *testing.T) {
	p := Constant(7, 100)
	if p.Domain() != 100 || p.Eval(50) != 7 || p.Pieces() != 1 {
		t.Fatalf("Constant broken: %v", p)
	}
}

func TestMaxOn(t *testing.T) {
	p := mustPW(t, []float64{0, 10, 20, 40}, []float64{1, 5, 2})
	tm, fm := p.MaxOn(0, 40)
	if fm != 5 || tm != 10 {
		t.Fatalf("MaxOn(0,40) = (%g,%g), want (10,5)", tm, fm)
	}
	tm, fm = p.MaxOn(0, 9)
	if fm != 1 || tm != 0 {
		t.Fatalf("MaxOn(0,9) = (%g,%g), want (0,1)", tm, fm)
	}
	tm, fm = p.MaxOn(15, 35)
	if fm != 5 || tm != 15 {
		t.Fatalf("MaxOn(15,35) = (%g,%g), want (15,5)", tm, fm)
	}
	tm, fm = p.MaxOn(25, 35)
	if fm != 2 || tm != 25 {
		t.Fatalf("MaxOn(25,35) = (%g,%g), want (25,2)", tm, fm)
	}
	// Degenerate and out-of-domain ranges clamp.
	_, fm = p.MaxOn(50, 60)
	if fm != 2 {
		t.Fatalf("MaxOn beyond domain = %g, want 2", fm)
	}
}

func TestMaxGlobal(t *testing.T) {
	p := mustPW(t, []float64{0, 10, 20, 40}, []float64{1, 5, 2})
	tm, fm := p.Max()
	if tm != 10 || fm != 5 {
		t.Fatalf("Max = (%g,%g), want (10,5)", tm, fm)
	}
}

func TestFirstReachDescendingBasic(t *testing.T) {
	// f = 0 on [0,10), 8 on [10,20]; line c - x with c = 15:
	// on [0,10) need 0 >= 15-x -> x >= 15, outside the piece;
	// on [10,15] need 8 >= 15-x -> x >= 7 -> first x = 10.
	p := mustPW(t, []float64{0, 10, 20}, []float64{0, 8})
	x, ok := p.FirstReachDescending(0, 15, 15)
	if !ok || x != 10 {
		t.Fatalf("FirstReach = (%g,%v), want (10,true)", x, ok)
	}
}

func TestFirstReachDescendingWithinPiece(t *testing.T) {
	// f = 3 constant; c = 10: 3 >= 10-x -> x >= 7.
	p := Constant(3, 20)
	x, ok := p.FirstReachDescending(0, 10, 10)
	if !ok || x != 7 {
		t.Fatalf("FirstReach = (%g,%v), want (7,true)", x, ok)
	}
}

func TestFirstReachDescendingNone(t *testing.T) {
	// f = 1; c = 100: need x >= 99, outside [0,10].
	p := Constant(1, 20)
	if _, ok := p.FirstReachDescending(0, 10, 100); ok {
		t.Fatal("FirstReach found a crossing that does not exist")
	}
}

func TestFirstReachDescendingAtRangeEnd(t *testing.T) {
	// f = 5 on [0,20]; c = 15: x >= 10; query [0,10] -> exactly x = 10.
	p := Constant(5, 20)
	x, ok := p.FirstReachDescending(0, 10, 15)
	if !ok || x != 10 {
		t.Fatalf("FirstReach = (%g,%v), want (10,true)", x, ok)
	}
}

func TestFirstReachBoundaryOwnedByNextPiece(t *testing.T) {
	// f = 10 on [0,5), 0 on [5,20]. c = 15: within piece 0, x >= 5 —
	// but x = 5 belongs to the second piece where f = 0 < 10. The first
	// true reach does not exist until x >= 15: f(15) = 0 >= 15-15 = 0.
	p := mustPW(t, []float64{0, 5, 20}, []float64{10, 0})
	x, ok := p.FirstReachDescending(0, 20, 15)
	if !ok || x != 15 {
		t.Fatalf("FirstReach = (%g,%v), want (15,true)", x, ok)
	}
}

func TestFirstReachAfterStart(t *testing.T) {
	// Query starting mid-domain.
	p := mustPW(t, []float64{0, 10, 20, 30}, []float64{0, 0, 9})
	// c = 25: on piece [20,30], f=9 >= 25-x -> x >= 16 -> x = 20.
	x, ok := p.FirstReachDescending(12, 28, 25)
	if !ok || x != 20 {
		t.Fatalf("FirstReach = (%g,%v), want (20,true)", x, ok)
	}
}

func TestScale(t *testing.T) {
	p := mustPW(t, []float64{0, 10, 20}, []float64{2, 4})
	q, err := p.Scale(2.5)
	if err != nil {
		t.Fatal(err)
	}
	if q.Eval(5) != 5 || q.Eval(15) != 10 {
		t.Fatalf("Scale values wrong: %v", q)
	}
	if _, err := p.Scale(-1); err == nil {
		t.Fatal("Scale accepted negative factor")
	}
	if _, err := p.Scale(math.NaN()); err == nil {
		t.Fatal("Scale accepted NaN factor")
	}
}

func TestMaxWith(t *testing.T) {
	p := mustPW(t, []float64{0, 10, 20}, []float64{1, 5})
	q := mustPW(t, []float64{0, 5, 20}, []float64{3, 2})
	m, err := p.MaxWith(q)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ t, want float64 }{
		{2, 3}, {7, 2}, {12, 5},
	}
	for _, c := range cases {
		if got := m.Eval(c.t); got != c.want {
			t.Errorf("MaxWith Eval(%g) = %g, want %g", c.t, got, c.want)
		}
	}
	r := mustPW(t, []float64{0, 30}, []float64{1})
	if _, err := p.MaxWith(r); err == nil {
		t.Fatal("MaxWith accepted mismatched domains")
	}
}

func TestCompact(t *testing.T) {
	p := mustPW(t, []float64{0, 5, 10, 15, 20}, []float64{1, 1, 2, 2})
	c := p.Compact()
	if c.Pieces() != 2 {
		t.Fatalf("Compact pieces = %d, want 2", c.Pieces())
	}
	for _, tt := range []float64{0, 4, 5, 9, 10, 19, 20} {
		if c.Eval(tt) != p.Eval(tt) {
			t.Fatalf("Compact changed value at %g", tt)
		}
	}
}

func TestAccessors(t *testing.T) {
	p := mustPW(t, []float64{0, 1, 2}, []float64{3, 4})
	bp := p.Breakpoints()
	vv := p.Values()
	bp[0] = 99
	vv[0] = 99
	if p.Breakpoints()[0] != 0 || p.Values()[0] != 3 {
		t.Fatal("accessors leak internal storage")
	}
	if !strings.Contains(p.String(), "[0,1)=3") {
		t.Fatalf("String() = %q", p.String())
	}
}

// randomPW builds a random piecewise function for property tests.
func randomPW(r *rand.Rand) *Piecewise {
	n := r.Intn(8) + 1
	xs := make([]float64, n+1)
	vs := make([]float64, n)
	xs[0] = 0
	for i := 1; i <= n; i++ {
		xs[i] = xs[i-1] + float64(r.Intn(20)+1)
	}
	for i := range vs {
		vs[i] = float64(r.Intn(15))
	}
	p, err := NewPiecewise(xs, vs)
	if err != nil {
		panic(err)
	}
	return p
}

// Property: MaxOn dominates Eval at any sampled point of the range.
func TestMaxOnDominatesEval(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		p := randomPW(r)
		d := p.Domain()
		a := r.Float64() * d
		b := a + r.Float64()*(d-a)
		_, fm := p.MaxOn(a, b)
		for i := 0; i < 20; i++ {
			x := a + r.Float64()*(b-a)
			if p.Eval(x) > fm {
				t.Fatalf("MaxOn(%g,%g)=%g < Eval(%g)=%g on %v", a, b, fm, x, p.Eval(x), p)
			}
		}
		// And the reported argmax achieves the max.
		tm, fm2 := p.MaxOn(a, b)
		if p.Eval(tm) != fm2 {
			t.Fatalf("argmax %g does not achieve max %g on %v", tm, fm2, p)
		}
	}
}

// Property: FirstReachDescending returns the minimal point satisfying
// f(x) >= c-x; no sampled earlier point satisfies it, and the returned point
// does.
func TestFirstReachMinimality(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		p := randomPW(r)
		d := p.Domain()
		a := r.Float64() * d * 0.8
		b := a + r.Float64()*(d-a)
		c := a + r.Float64()*25
		x, ok := p.FirstReachDescending(a, b, c)
		if ok {
			if x < a-1e-12 || x > b+1e-12 {
				t.Fatalf("returned point %g outside [%g,%g]", x, a, b)
			}
			if p.Eval(x) < c-x-1e-9 {
				t.Fatalf("returned point %g does not satisfy f >= c-x (f=%g, c-x=%g)", x, p.Eval(x), c-x)
			}
			// No sampled earlier point satisfies the condition.
			for i := 0; i < 40; i++ {
				y := a + r.Float64()*(x-a)
				if y < x-1e-9 && p.Eval(y) >= c-y+1e-9 {
					t.Fatalf("earlier point %g already satisfies f >= c-x (x=%g) on %v c=%g", y, x, p, c)
				}
			}
		} else {
			for i := 0; i < 40; i++ {
				y := a + r.Float64()*(b-a)
				if p.Eval(y) >= c-y+1e-9 {
					t.Fatalf("FirstReach missed satisfying point %g on %v (c=%g, a=%g, b=%g)", y, p, c, a, b)
				}
			}
		}
	}
}

// Property (quick): Eval is always one of the piece values.
func TestEvalReturnsPieceValue(t *testing.T) {
	f := func(seed int64, probe float64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPW(r)
		v := p.Eval(math.Mod(math.Abs(probe), p.Domain()+10))
		for _, pv := range p.Values() {
			if v == pv {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPlus(t *testing.T) {
	p := mustPW(t, []float64{0, 10, 20}, []float64{1, 5})
	q := mustPW(t, []float64{0, 5, 20}, []float64{3, 2})
	s, err := p.Plus(q)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ t, want float64 }{{2, 4}, {7, 3}, {12, 7}}
	for _, c := range cases {
		if got := s.Eval(c.t); got != c.want {
			t.Errorf("Plus Eval(%g) = %g, want %g", c.t, got, c.want)
		}
	}
	r := mustPW(t, []float64{0, 30}, []float64{1})
	if _, err := p.Plus(r); err == nil {
		t.Fatal("Plus accepted mismatched domains")
	}
}
