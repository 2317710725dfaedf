package core

import (
	"math/rand"
	"testing"

	"fnpr/internal/delay"
)

// randomPWL builds a random piecewise-linear delay function.
func randomPWL(r *rand.Rand, c, maxV float64) *delay.PiecewiseLinear {
	n := 2 + r.Intn(6)
	xs := make([]float64, n+1)
	ys := make([]float64, n+1)
	for i := 1; i <= n; i++ {
		xs[i] = xs[i-1] + c/float64(n)*(0.5+r.Float64())
	}
	// Normalise the last breakpoint to c exactly.
	scale := c / xs[n]
	for i := range xs {
		xs[i] *= scale
	}
	for i := range ys {
		ys[i] = r.Float64() * maxV
	}
	p, err := delay.NewPiecewiseLinear(xs, ys)
	if err != nil {
		panic(err)
	}
	return p
}

// Algorithm 1 runs directly on piecewise-linear functions: the result is
// sound against adversarial scenarios and at least as tight as running on
// the function's piecewise-constant upper envelope.
func TestAlgorithm1OnPiecewiseLinear(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 200; trial++ {
		c := 60 + r.Float64()*300
		maxV := 1 + r.Float64()*6
		q := maxV + 1 + r.Float64()*40
		f := randomPWL(r, c, maxV)

		bound, err := UpperBound(f, q)
		if err != nil {
			t.Fatal(err)
		}
		envBound, err := UpperBound(f.ToPiecewise(), q)
		if err != nil {
			t.Fatal(err)
		}
		if bound > envBound+1e-9 {
			t.Fatalf("trial %d: PWL bound %g above envelope bound %g", trial, bound, envBound)
		}

		_, greedy := GreedyScenario(f, q)
		if greedy.TotalDelay > bound+1e-9 {
			t.Fatalf("trial %d: greedy %g beats PWL bound %g (Q=%g)", trial, greedy.TotalDelay, bound, q)
		}
		_, peak := PeakSeekingScenario(f, q)
		if peak.TotalDelay > bound+1e-9 {
			t.Fatalf("trial %d: peak %g beats PWL bound %g (Q=%g)", trial, peak.TotalDelay, bound, q)
		}
		// Random jittered scenarios.
		for k := 0; k < 5; k++ {
			var s Scenario
			e := q + r.Float64()*q
			for e < c+bound+q {
				s = append(s, e)
				e += q * (1 + r.Float64())
			}
			run, err := s.run(f, q)
			if err != nil {
				t.Fatal(err)
			}
			if run.TotalDelay > bound+1e-9 {
				t.Fatalf("trial %d: random scenario %g beats PWL bound %g", trial, run.TotalDelay, bound)
			}
		}
	}
}

// A concrete case where the linear representation is strictly tighter than
// the constant envelope: a sawtooth whose envelope doubles every window's
// charge.
func TestPiecewiseLinearTighterThanEnvelope(t *testing.T) {
	xs := []float64{0, 25, 50, 75, 100}
	ys := []float64{0, 6, 0, 6, 0}
	f, err := delay.NewPiecewiseLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	q := 30.0
	pwl, err := UpperBound(f, q)
	if err != nil {
		t.Fatal(err)
	}
	env, err := UpperBound(f.ToPiecewise(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !(pwl < env) {
		t.Fatalf("expected strict improvement: PWL %g vs envelope %g", pwl, env)
	}
}
