package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail percentile:
// a percentile with fewer samples past it is an anecdote, not a statistic.
const minBeyond = 10

// tailP is the highest percentile tail_ms reports. The phase lines print p99
// too, but on a shared machine the top percent measures the host: a request
// stalls for a whole time slice whenever the hypervisor deschedules its
// vCPU, and a few percent of CPU steal fills the top percent of a sample
// with such stalls: contention from other tenants tripled some runs' p99,
// and a competing process that raised p99 by half raised p90 by a fifth.
const tailP = 90

// tail is a latency percentile together with the evidence behind it.
type tail struct {
	// P is the percentile reported (the cap when the sample supports it).
	P int
	// Value is the sample at that percentile (nearest rank).
	Value float64
	// N is the sample count; Beyond the number of samples above Value's rank.
	N, Beyond int
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rankIndex is the nearest-rank index of percentile p in a sorted sample of n.
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// percentile returns the nearest-rank percentile p (0 < p <= 100) of xs; 0
// for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rankIndex(p, len(s))]
}

// median is the 50th percentile by linear interpolation between the two
// middle samples of an even-sized sample, as statistics.median computes it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOf reports the highest integer percentile, at most maxP, that keeps at
// least minBeyond samples beyond it. Samples too small for even the median
// to qualify report the median with the (short) count beside it.
func tailOf(xs []float64, maxP int) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sortedCopy(xs)
	for p := maxP; p > 50; p-- {
		i := rankIndex(float64(p), n)
		if n-1-i >= minBeyond {
			return tail{P: p, Value: s[i], N: n, Beyond: n - 1 - i}
		}
	}
	i := rankIndex(50, n)
	return tail{P: 50, Value: s[i], N: n, Beyond: n - 1 - i}
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so the spread this program reports is the spread
// anyone recomputing it from the result files gets. It needs two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// backlogGrowing reports whether the send lag (send time minus due time) of
// an open-loop phase grows: the mean lag over the last tenth of the phase
// exceeds the first tenth's by more than limit. A server that keeps up shows
// a flat lag; one that cannot keep up at the offered rate falls further
// behind with every request.
func backlogGrowing(lags []time.Duration, limit time.Duration) (end time.Duration, growing bool) {
	n := len(lags)
	if n == 0 {
		return 0, false
	}
	k := n / 10
	if k < 1 {
		k = 1
	}
	mean := func(xs []time.Duration) time.Duration {
		var sum time.Duration
		for _, x := range xs {
			sum += x
		}
		return sum / time.Duration(len(xs))
	}
	start, end := mean(lags[:k]), mean(lags[n-k:])
	return end, end-start > limit
}
