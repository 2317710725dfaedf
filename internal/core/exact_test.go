package core

import (
	"math"
	"math/rand"
	"testing"

	"fnpr/internal/delay"
	"fnpr/internal/exact"
)

// exactDelay is the exact worst-case cumulative delay of f under Q, from the
// schedule-graph explorer of package exact (unbounded state budget).
func exactDelay(t *testing.T, f *delay.Piecewise, q float64) float64 {
	t.Helper()
	res, err := exact.Delay(nil, f, q, exact.Options{MaxStates: -1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Delay
}

func TestExactWorstCaseConstant(t *testing.T) {
	// f = 2, C = 50, Q = 10: strikes at progressions 10, 18, 26, 34, 42
	// -> 5 x 2 = 10, and that IS the worst case.
	f := delay.Constant(2, 50)
	exact := exactDelay(t, f, 10)
	if exact != 10 {
		t.Fatalf("exact = %g, want 10", exact)
	}
	alg, _ := UpperBound(f, 10)
	if exact > alg {
		t.Fatalf("exact %g above Algorithm 1 %g", exact, alg)
	}
}

func TestExactWorstCaseSinglePeak(t *testing.T) {
	// One narrow peak at [30,33): the worst case catches it exactly once.
	f, err := delay.NewPiecewise([]float64{0, 30, 33, 100}, []float64{0, 5, 0})
	if err != nil {
		t.Fatal(err)
	}
	exact := exactDelay(t, f, 20)
	if exact != 5 {
		t.Fatalf("exact = %g, want 5", exact)
	}
}

func TestExactWorstCaseDivergent(t *testing.T) {
	f := delay.Constant(10, 100)
	exact := exactDelay(t, f, 10)
	if !math.IsInf(exact, 1) {
		t.Fatalf("exact = %g, want +Inf", exact)
	}
}

// The exact bound is sandwiched: every constructive adversary is at or below
// it, and Algorithm 1 is at or above it.
func TestExactSandwich(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		c := 40 + r.Float64()*60
		maxV := 0.5 + r.Float64()*3
		q := maxV + 4 + r.Float64()*20
		// Few pieces keep the search tractable.
		n := 2 + r.Intn(3)
		xs := []float64{0}
		for i := 1; i < n; i++ {
			xs = append(xs, xs[len(xs)-1]+c/float64(n)*(0.5+r.Float64()))
		}
		if xs[len(xs)-1] >= c {
			xs = []float64{0}
		}
		xs = append(xs, c)
		vs := make([]float64, len(xs)-1)
		for i := range vs {
			vs[i] = r.Float64() * maxV
		}
		f, err := delay.NewPiecewise(xs, vs)
		if err != nil {
			t.Fatal(err)
		}
		exact := exactDelay(t, f, q)
		alg, _ := UpperBound(f, q)
		if exact > alg+1e-9 {
			t.Fatalf("trial %d: exact %g above Algorithm 1 %g (Q=%g, f=%v)", trial, exact, alg, q, f)
		}
		_, greedy := GreedyScenario(f, q)
		if greedy.TotalDelay > exact+1e-9 {
			t.Fatalf("trial %d: greedy %g above exact %g (Q=%g, f=%v)", trial, greedy.TotalDelay, exact, q, f)
		}
		_, peak := PeakSeekingScenario(f, q)
		if peak.TotalDelay > exact+1e-9 {
			t.Fatalf("trial %d: peak %g above exact %g (Q=%g, f=%v)", trial, peak.TotalDelay, exact, q, f)
		}
	}
}

// On the paper's Figure 2 function the exact worst case exceeds the naive
// bound (quantifying the unsoundness) and Algorithm 1 covers it.
func TestExactQuantifiesFigure2(t *testing.T) {
	f, err := delay.NewPiecewise(
		[]float64{0, 10, 12, 19, 21, 28, 30, 40},
		[]float64{0, 8, 0, 8, 0, 8, 0},
	)
	if err != nil {
		t.Fatal(err)
	}
	exact := exactDelay(t, f, 10)
	naive, _ := NaivePointSelection(f, 10)
	alg, _ := UpperBound(f, 10)
	if exact <= naive {
		t.Fatalf("exact %g not above naive %g — counter-example lost", exact, naive)
	}
	if exact > alg+1e-9 {
		t.Fatalf("exact %g above Algorithm 1 %g", exact, alg)
	}
	// The true worst case catches all three peaks: 24.
	if exact != 24 {
		t.Fatalf("exact = %g, want 24", exact)
	}
}
