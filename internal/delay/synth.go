package delay

import (
	"math"

	"fnpr/internal/guard"
)

// This file provides the synthetic preemption-delay functions used in the
// paper's evaluation (Section VI, Figure 4), plus a few generic generators
// used by the wider test suite.

// Gaussian returns t -> offset + amp * exp(-(t-mu)^2 / (2*sigma2)).
func Gaussian(amp, mu, sigma2, offset float64) func(float64) float64 {
	return func(t float64) float64 {
		d := t - mu
		return offset + amp*math.Exp(-d*d/(2*sigma2))
	}
}

// GaussianMix returns the sum of several Gaussian bells, clamped to cap when
// cap > 0 (the paper's benchmark functions all have a stated maximum value).
func GaussianMix(cap float64, bells ...func(float64) float64) func(float64) float64 {
	return func(t float64) float64 {
		var v float64
		for _, b := range bells {
			v += b(t)
		}
		if cap > 0 && v > cap {
			v = cap
		}
		return v
	}
}

// PaperC is the task execution time used throughout the paper's evaluation.
const PaperC = 4000

// paperEnvelopePieces is the sampling resolution used when lifting the
// smooth benchmark functions to piecewise-constant envelopes: one piece per
// time unit of the C=4000 domain keeps the envelope within a negligible
// distance of the true function.
const paperEnvelopePieces = 4000

// BenchmarkParams selects between the paper's literal function parameters
// and a visually calibrated variant.
//
// The paper's text gives sigma^2 = 300 and 3000, which at the t in [0,4000]
// scale produce near-needle bells, while its Figure 4 plots broad bells
// spanning the whole domain. Calibrated multiplies both variances by 100
// (sigma ~ 173 and ~ 548), matching the plotted shapes. Both variants
// reproduce the qualitative Figure 5 result; see EXPERIMENTS.md.
type BenchmarkParams struct {
	Sigma2A float64 // variance of Gaussian 1
	Sigma2B float64 // variance of Gaussian 2 and of the two-peak components
	Mu      float64 // centre of Gaussians 1 and 2
	Offset1 float64 // vertical offset of Gaussian 1
	Amp1    float64 // amplitude of Gaussian 1's bell on top of the offset
	Amp     float64 // amplitude of Gaussian 2 / two-peak components
	C       float64 // task execution time
}

// LiteralParams follows the paper's text: sigma^2 = 300 / 3000, mu = 2000,
// Gaussian 1 with a vertical offset of 10, all peaks at height 10 above
// their own baseline, C = 4000.
func LiteralParams() BenchmarkParams {
	return BenchmarkParams{
		Sigma2A: 300, Sigma2B: 3000, Mu: 2000,
		Offset1: 10, Amp1: 4, Amp: 10, C: PaperC,
	}
}

// CalibratedParams widens the variances by 100x so the bells match the
// shapes plotted in the paper's Figure 4.
func CalibratedParams() BenchmarkParams {
	p := LiteralParams()
	p.Sigma2A *= 100
	p.Sigma2B *= 100
	return p
}

// Gaussian1 is the paper's first benchmark function: a bell centred at mu
// with variance Sigma2A, riding on a vertical offset (the function never
// drops below Offset1, peaking at Offset1+Amp1 — the elevated curve of
// Figure 4). Because its floor is high everywhere, it is the benchmark on
// which Algorithm 1 gains least over the state of the art.
func (p BenchmarkParams) Gaussian1() *Piecewise {
	fn := Gaussian(p.Amp1, p.Mu, p.Sigma2A, p.Offset1)
	return MustUpperEnvelope(fn, p.C, paperEnvelopePieces, []float64{p.Mu})
}

// Gaussian2 is the paper's second benchmark: a wider bell with no offset,
// peaking at Amp (10 units).
func (p BenchmarkParams) Gaussian2() *Piecewise {
	fn := Gaussian(p.Amp, p.Mu, p.Sigma2B, 0)
	return MustUpperEnvelope(fn, p.C, paperEnvelopePieces, []float64{p.Mu})
}

// TwoLocalMax is the paper's third benchmark: two bells separated in time
// (centres at C/4 and 3C/4), clamped at Amp.
func (p BenchmarkParams) TwoLocalMax() *Piecewise {
	m1, m2 := p.C/4, 3*p.C/4
	fn := GaussianMix(p.Amp,
		Gaussian(p.Amp, m1, p.Sigma2B, 0),
		Gaussian(p.Amp, m2, p.Sigma2B, 0),
	)
	return MustUpperEnvelope(fn, p.C, paperEnvelopePieces, []float64{m1, m2})
}

// Benchmarks returns the paper's three benchmark functions keyed by the
// names used in Figures 4 and 5.
func (p BenchmarkParams) Benchmarks() map[string]*Piecewise {
	return map[string]*Piecewise{
		"Gaussian 1":      p.Gaussian1(),
		"Gaussian 2":      p.Gaussian2(),
		"2 local maximum": p.TwoLocalMax(),
	}
}

// BenchmarksAt is Benchmarks with an explicit envelope resolution (pieces
// per function) instead of the paper's default. This is the knob the kernel
// benchmarks sweep: the scan kernel's cost per Algorithm 1 window grows with
// the piece count while the indexed kernel stays logarithmic. Coarser
// envelopes dominate finer ones, so any resolution yields a sound (if less
// tight) bound.
func (p BenchmarkParams) BenchmarksAt(pieces int) (map[string]*Piecewise, error) {
	g1, err := UpperEnvelope(Gaussian(p.Amp1, p.Mu, p.Sigma2A, p.Offset1), p.C, pieces, []float64{p.Mu})
	if err != nil {
		return nil, err
	}
	g2, err := UpperEnvelope(Gaussian(p.Amp, p.Mu, p.Sigma2B, 0), p.C, pieces, []float64{p.Mu})
	if err != nil {
		return nil, err
	}
	m1, m2 := p.C/4, 3*p.C/4
	two, err := UpperEnvelope(GaussianMix(p.Amp,
		Gaussian(p.Amp, m1, p.Sigma2B, 0),
		Gaussian(p.Amp, m2, p.Sigma2B, 0),
	), p.C, pieces, []float64{m1, m2})
	if err != nil {
		return nil, err
	}
	return map[string]*Piecewise{
		"Gaussian 1":      g1,
		"Gaussian 2":      g2,
		"2 local maximum": two,
	}, nil
}

// BenchmarkOrder lists the benchmark names in the paper's plotting order.
func BenchmarkOrder() []string {
	return []string{"Gaussian 1", "Gaussian 2", "2 local maximum"}
}

// NewStep builds a piecewise function alternating between lo and hi over k
// equal pieces on [0, c], returning an error on invalid parameters. This is
// the library entry point; tests and fixtures may use Step instead.
func NewStep(lo, hi, c float64, k int) (*Piecewise, error) {
	if k <= 0 {
		return nil, guard.Invalidf("delay: step function needs k > 0 pieces, got %d", k)
	}
	xs := make([]float64, k+1)
	vs := make([]float64, k)
	for i := 0; i <= k; i++ {
		xs[i] = c * float64(i) / float64(k)
	}
	for i := 0; i < k; i++ {
		if i%2 == 0 {
			vs[i] = hi
		} else {
			vs[i] = lo
		}
	}
	return NewPiecewise(xs, vs)
}

// Step is NewStep for tests and fixtures ONLY: it panics on invalid
// parameters so it can appear in composite literals. Library code must use
// NewStep and propagate the error.
func Step(lo, hi, c float64, k int) *Piecewise {
	p, err := NewStep(lo, hi, c, k)
	if err != nil {
		panic(err)
	}
	return p
}

// NewFrontLoaded models the motivating example of Section III: a task that
// loads a large working set (high delay early), processes it (delay decays),
// then computes on a small subset (low delay tail). It returns an error on
// invalid parameters; this is the library entry point.
func NewFrontLoaded(peak, tail, c float64) (*Piecewise, error) {
	p := new(Piecewise)
	if err := p.ResetFrontLoaded(peak, tail, c); err != nil {
		return nil, err
	}
	return p, nil
}

// ResetFrontLoaded is NewFrontLoaded in place, under Reset's terms.
func (p *Piecewise) ResetFrontLoaded(peak, tail, c float64) error {
	return p.Reset(
		[]float64{0, c * 0.2, c * 0.35, c},
		[]float64{peak, (peak + tail) / 2, tail},
	)
}

// FrontLoaded is NewFrontLoaded for tests and fixtures ONLY: it panics on
// invalid parameters so it can appear in composite literals. Library code
// must use NewFrontLoaded and propagate the error.
func FrontLoaded(peak, tail, c float64) *Piecewise {
	p, err := NewFrontLoaded(peak, tail, c)
	if err != nil {
		panic(err)
	}
	return p
}
