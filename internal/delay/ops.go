package delay

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Suffix returns the delay function of the task's remaining execution after
// progression p: g(t) = f(p + t) on [0, C-p]. This is the natural hook for
// post-preemption analysis — the paper notes fi is only valid for the first
// preemption; re-running Algorithm 1 on the suffix from the observed
// progression refines the remaining-job bound at run time.
func (p *Piecewise) Suffix(from float64) (*Piecewise, error) {
	c := p.Domain()
	if from < 0 || from >= c {
		return nil, fmt.Errorf("delay: suffix start %g outside [0, %g)", from, c)
	}
	xs := []float64{0}
	var vs []float64
	for i := 0; i < len(p.vs); i++ {
		hi := p.xs[i+1]
		if hi <= from {
			continue
		}
		vs = append(vs, p.vs[i])
		xs = append(xs, hi-from)
	}
	return NewPiecewise(xs, vs)
}

// Integral returns the integral of f over [a, b] (clamped to the domain),
// useful for average-delay statistics in experiment reports.
func (p *Piecewise) Integral(a, b float64) float64 {
	a, b = p.clampRange(a, b)
	if b <= a {
		return 0
	}
	var sum float64
	for i := 0; i < len(p.vs); i++ {
		lo := math.Max(p.xs[i], a)
		hi := math.Min(p.xs[i+1], b)
		if hi > lo {
			sum += p.vs[i] * (hi - lo)
		}
	}
	return sum
}

// Mean returns the average value of f over its whole domain.
func (p *Piecewise) Mean() float64 {
	return p.Integral(0, p.Domain()) / p.Domain()
}

// Coarsen returns a conservative approximation with at most n pieces: the
// domain is split into n equal spans and each span takes the maximum of f
// over it. The result dominates f pointwise, so any bound computed on it is
// sound for f — useful to trade precision for speed on very dense envelopes.
func (p *Piecewise) Coarsen(n int) (*Piecewise, error) {
	if n < 1 {
		return nil, errors.New("delay: need at least one piece")
	}
	if n >= p.Pieces() {
		return p, nil
	}
	c := p.Domain()
	xs := make([]float64, n+1)
	vs := make([]float64, n)
	for i := 0; i <= n; i++ {
		xs[i] = c * float64(i) / float64(n)
	}
	for i := 0; i < n; i++ {
		_, vs[i] = p.MaxOn(xs[i], xs[i+1])
	}
	return NewPiecewise(xs, vs)
}

// ParseCompact parses the compact textual form "a:b=v,b:c=v" (value v on
// [a,b), then on [b,c), ...) used by the command-line tools: ranges must be
// contiguous, start at 0 and carry non-negative values.
func ParseCompact(s string) (*Piecewise, error) {
	var xs, vs []float64
	for i, piece := range strings.Split(s, ",") {
		parts := strings.SplitN(piece, "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("delay: piece %d: missing '=' in %q", i, piece)
		}
		rng := strings.SplitN(parts[0], ":", 2)
		if len(rng) != 2 {
			return nil, fmt.Errorf("delay: piece %d: range %q needs lo:hi", i, parts[0])
		}
		lo, err := strconv.ParseFloat(strings.TrimSpace(rng[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("delay: piece %d: bad lower bound: %w", i, err)
		}
		hi, err := strconv.ParseFloat(strings.TrimSpace(rng[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("delay: piece %d: bad upper bound: %w", i, err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("delay: piece %d: bad value: %w", i, err)
		}
		if len(xs) == 0 {
			xs = append(xs, lo)
		} else if xs[len(xs)-1] != lo {
			return nil, fmt.Errorf("delay: piece %d starts at %g, previous ended at %g", i, lo, xs[len(xs)-1])
		}
		xs = append(xs, hi)
		vs = append(vs, v)
	}
	return NewPiecewise(xs, vs)
}
