package delay

import (
	"math"
	"math/rand"
	"testing"
)

func TestSuffix(t *testing.T) {
	p := mustPW(t, []float64{0, 10, 20, 40}, []float64{1, 5, 2})
	s, err := p.Suffix(15)
	if err != nil {
		t.Fatal(err)
	}
	if s.Domain() != 25 {
		t.Fatalf("suffix domain = %g, want 25", s.Domain())
	}
	if s.Eval(0) != 5 { // f(15) = 5
		t.Fatalf("suffix(0) = %g, want 5", s.Eval(0))
	}
	if s.Eval(10) != 2 { // f(25) = 2
		t.Fatalf("suffix(10) = %g, want 2", s.Eval(10))
	}
	if _, err := p.Suffix(-1); err == nil {
		t.Fatal("accepted negative start")
	}
	if _, err := p.Suffix(40); err == nil {
		t.Fatal("accepted start at domain end")
	}
}

func TestSuffixPointwiseMatches(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		p := randomPW(r)
		from := r.Float64() * p.Domain() * 0.9
		s, err := p.Suffix(from)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			x := r.Float64() * s.Domain()
			// Piece-boundary alignment can differ exactly at
			// breakpoints; probe strictly inside.
			if got, want := s.Eval(x), p.Eval(from+x); got != want {
				onBoundary := false
				for _, bp := range p.Breakpoints() {
					if math.Abs(bp-(from+x)) < 1e-12 {
						onBoundary = true
					}
				}
				if !onBoundary {
					t.Fatalf("suffix(%g) = %g, f(%g) = %g", x, got, from+x, want)
				}
			}
		}
	}
}

func TestIntegralAndMean(t *testing.T) {
	p := mustPW(t, []float64{0, 10, 20}, []float64{2, 4})
	if got := p.Integral(0, 20); got != 60 {
		t.Fatalf("integral = %g, want 60", got)
	}
	if got := p.Integral(5, 15); got != 30 { // 5*2 + 5*4
		t.Fatalf("integral(5,15) = %g, want 30", got)
	}
	if got := p.Integral(15, 5); got != 0 {
		t.Fatalf("inverted integral = %g, want 0", got)
	}
	if got := p.Mean(); got != 3 {
		t.Fatalf("mean = %g, want 3", got)
	}
}

func TestCoarsenDominates(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		p := randomPW(r)
		n := 1 + r.Intn(4)
		c, err := p.Coarsen(n)
		if err != nil {
			t.Fatal(err)
		}
		if c.Pieces() > n && c != p {
			t.Fatalf("coarsened to %d pieces, want <= %d", c.Pieces(), n)
		}
		for i := 0; i < 50; i++ {
			x := r.Float64() * p.Domain()
			if c.Eval(x) < p.Eval(x)-1e-12 {
				t.Fatalf("coarsened function below original at %g: %g < %g", x, c.Eval(x), p.Eval(x))
			}
		}
	}
}

func TestCoarsenIdentityWhenSmall(t *testing.T) {
	p := mustPW(t, []float64{0, 10}, []float64{1})
	c, err := p.Coarsen(5)
	if err != nil {
		t.Fatal(err)
	}
	if c != p {
		t.Fatal("coarsening a smaller function should return it unchanged")
	}
	if _, err := p.Coarsen(0); err == nil {
		t.Fatal("accepted n=0")
	}
}

func TestParseCompact(t *testing.T) {
	p, err := ParseCompact("0:5=2,5:20=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if p.Domain() != 20 || p.Eval(1) != 2 || p.Eval(10) != 0.5 {
		t.Fatalf("parsed function wrong: %v", p)
	}
	for _, bad := range []string{
		"", "0:5", "0:5=x", "x:5=1", "0:x=1", "0:5=1,6:10=1", "1:5=2",
		"0:5=-1", "0:0=1",
	} {
		if _, err := ParseCompact(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}
