package delay

import (
	"math"
	"sort"

	"fnpr/internal/guard"
)

// UpperEnvelope lifts an arbitrary continuous function fn on [0, c] to a
// piecewise-constant upper envelope with n equal pieces. The value of each
// piece is the maximum of fn at the piece endpoints and at any of the
// supplied modes (local-maximum locations) falling inside the piece; for
// functions whose local maxima are all listed in modes — e.g. Gaussian
// mixtures with well-separated components — the result dominates fn up to
// the function's variation within one piece, which vanishes as n grows.
//
// Running Algorithm 1 on an upper envelope g of f yields a bound that is also
// valid for f itself, so sampling is a sound way to feed smooth synthetic
// benchmarks to the analysis. The reason is not that Algorithm 1 is monotone
// in the function (it is not: raising one piece can lower its bound). The
// exact worst-case delay is monotone in the function, and Theorem 1 bounds
// it for g: exact(f) <= exact(g) <= Alg1(g).
func UpperEnvelope(fn func(float64) float64, c float64, n int, modes []float64) (*Piecewise, error) {
	if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
		return nil, guard.Invalidf("delay: invalid domain length %g", c)
	}
	if n <= 0 {
		return nil, guard.Invalidf("delay: need at least one piece")
	}
	sorted := append([]float64(nil), modes...)
	sort.Float64s(sorted)
	xs := make([]float64, n+1)
	vs := make([]float64, n)
	for i := 0; i <= n; i++ {
		xs[i] = c * float64(i) / float64(n)
	}
	for i := 0; i < n; i++ {
		lo, hi := xs[i], xs[i+1]
		v := math.Max(fn(lo), fn(hi))
		// Include any mode inside the piece.
		k := sort.SearchFloat64s(sorted, lo)
		for ; k < len(sorted) && sorted[k] <= hi; k++ {
			if m := fn(sorted[k]); m > v {
				v = m
			}
		}
		if v < 0 {
			v = 0
		}
		vs[i] = v
	}
	p, err := NewPiecewise(xs, vs)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// MustUpperEnvelope is UpperEnvelope that panics on error. It is for tests
// and fixtures whose parameters are compile-time constants ONLY; library code
// must call UpperEnvelope and propagate the error.
func MustUpperEnvelope(fn func(float64) float64, c float64, n int, modes []float64) *Piecewise {
	p, err := UpperEnvelope(fn, c, n, modes)
	if err != nil {
		panic(err)
	}
	return p
}
