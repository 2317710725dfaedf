package synth

import (
	"math"
	"math/rand"
	"testing"

	"fnpr/internal/delay"
)

// atlasFunctionOracle is the allocate-per-call atlas draw AtlasCurve.Draw
// replaced: fresh breakpoint and value slices and a fresh Piecewise per
// curve.
func atlasFunctionOracle(r *rand.Rand, fam string, c, q float64) (*delay.Piecewise, error) {
	maxV := q * (0.35 + 0.4*r.Float64())
	pieces := 3 + r.Intn(4)
	xs := make([]float64, 0, pieces+1)
	xs = append(xs, 0)
	for i := 1; i < pieces; i++ {
		xs = append(xs, c*(float64(i)+r.Float64()*0.6)/float64(pieces))
	}
	xs = append(xs, c)
	vs := make([]float64, pieces)
	for i := range vs {
		frac := float64(i) / float64(pieces-1)
		jitter := 0.75 + 0.25*r.Float64()
		switch fam {
		case "front":
			vs[i] = maxV * (1 - frac*0.9) * jitter
		case "back":
			vs[i] = maxV * (0.1 + frac*0.9) * jitter
		default: // twopeak: high ends, low middle
			vs[i] = maxV * (0.15 + 0.85*math.Abs(2*frac-1)) * jitter
		}
	}
	return delay.NewPiecewise(xs, vs)
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestAtlasCurveMatchesOracle: one reused AtlasCurve draws, over the three
// families, the end-to-end benchmark's Q grid (C = 80) and 200 trials per
// cell, the oracle's breakpoints and values bit for bit, and consumes the
// same random numbers (the next draw after either agrees).
func TestAtlasCurveMatchesOracle(t *testing.T) {
	const c = 80
	qs := []float64{4, 6, 8, 12, 16, 24, 32}
	var st, ost Stream
	var curve AtlasCurve
	for fam, name := range AtlasFamilies() {
		for qi, q := range qs {
			for trial := 0; trial < 200; trial++ {
				r := st.Sub(1, fam*len(qs)+qi, trial)
				or := ost.Sub(1, fam*len(qs)+qi, trial)
				got, err := curve.Draw(r, name, c, q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := atlasFunctionOracle(or, name, c, q)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got.Breakpoints(), want.Breakpoints()) || !sameBits(got.Values(), want.Values()) {
					t.Fatalf("%s Q=%g trial %d: drew %v, oracle %v", name, q, trial, got, want)
				}
				if r.Int63() != or.Int63() {
					t.Fatalf("%s Q=%g trial %d: the draws consumed different random numbers", name, q, trial)
				}
				if _, m := got.Max(); m >= q {
					t.Fatalf("%s Q=%g trial %d: maximum %g not below Q", name, q, trial, m)
				}
			}
		}
	}
}

// TestAtlasCurveDrawAllocFree: once its slabs have grown to the largest
// curve, a worker's draw allocates nothing.
func TestAtlasCurveDrawAllocFree(t *testing.T) {
	var st Stream
	var curve AtlasCurve
	trial := 0
	draw := func() {
		fam := AtlasFamilies()[trial%3]
		if _, err := curve.Draw(st.Sub(1, trial%7, trial), fam, 80, 4+float64(trial%29)); err != nil {
			t.Fatal(err)
		}
		trial++
	}
	for i := 0; i < 100; i++ {
		draw()
	}
	if n := testing.AllocsPerRun(1000, draw); n != 0 {
		t.Fatalf("AtlasCurve.Draw allocates %v times per curve", n)
	}
}
