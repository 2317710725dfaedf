package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"fnpr/internal/delay"
)

func TestUpperBoundLimitedBasics(t *testing.T) {
	f := delay.Constant(2, 100)
	full, _ := UpperBound(f, 10) // 12 iterations x 2 = 24
	// Unlimited.
	b, err := UpperBoundLimited(f, 10, -1)
	if err != nil {
		t.Fatal(err)
	}
	if b != full {
		t.Fatalf("unlimited = %g, want %g", b, full)
	}
	// More than the iteration count: same as full.
	b, _ = UpperBoundLimited(f, 10, 100)
	if b != full {
		t.Fatalf("n=100 = %g, want %g", b, full)
	}
	// Three preemptions max: 3 x 2 = 6.
	b, _ = UpperBoundLimited(f, 10, 3)
	if b != 6 {
		t.Fatalf("n=3 = %g, want 6", b)
	}
	// Zero preemptions: zero delay.
	b, _ = UpperBoundLimited(f, 10, 0)
	if b != 0 {
		t.Fatalf("n=0 = %g, want 0", b)
	}
}

func TestUpperBoundLimitedPicksLargestCharges(t *testing.T) {
	// One expensive region: the n-largest refinement keeps the expensive
	// charges, so it must dominate any scenario but stay below n*max
	// when cheaper windows dominate... here charges are 5 (peak window)
	// and ~0 elsewhere.
	f, err := delay.NewPiecewise([]float64{0, 48, 52, 200}, []float64{0, 5, 0})
	if err != nil {
		t.Fatal(err)
	}
	full, _ := UpperBound(f, 20)
	b, _ := UpperBoundLimited(f, 20, 1)
	if b != 5 {
		t.Fatalf("n=1 = %g, want 5 (the single peak charge)", b)
	}
	if full < b {
		t.Fatalf("full %g below limited %g", full, b)
	}
}

func TestUpperBoundLimitedDivergentFallsBack(t *testing.T) {
	f := delay.Constant(10, 100) // delay == Q: divergent
	b, err := UpperBoundLimited(f, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b != 30 {
		t.Fatalf("divergent n=3 = %g, want 30 (n x max)", b)
	}
	b, _ = UpperBoundLimited(f, 10, -1)
	if !math.IsInf(b, 1) {
		t.Fatalf("divergent unlimited = %g, want +Inf", b)
	}
}

func TestUpperBoundLimitedValidation(t *testing.T) {
	if _, err := UpperBoundLimited(nil, 10, 3); err == nil {
		t.Fatal("accepted nil function")
	}
	if _, err := UpperBoundLimited(delay.Constant(1, 10), 0, 3); err == nil {
		t.Fatal("accepted Q=0")
	}
}

// Soundness: scenarios with at most n preemptions never exceed the limited
// bound. Adversaries: greedy truncated to n, peak-seeking truncated to n,
// and random n-subsets of valid instants.
func TestUpperBoundLimitedSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(314))
	for trial := 0; trial < 300; trial++ {
		c := 50 + r.Float64()*400
		maxV := 1 + r.Float64()*8
		q := maxV + 0.5 + r.Float64()*40
		f := randomPiecewise(r, c, maxV)
		n := r.Intn(5)
		bound, err := UpperBoundLimited(f, q, n)
		if err != nil {
			t.Fatal(err)
		}
		check := func(s Scenario, label string) {
			if len(s) > n {
				s = s[:n]
			}
			run, err := s.Run(f, q)
			if err != nil {
				t.Fatal(err)
			}
			if run.TotalDelay > bound+1e-9 {
				t.Fatalf("trial %d: %s scenario with %d preemptions pays %g > limited bound %g (n=%d, Q=%g, f=%v)",
					trial, label, run.Preemptions, run.TotalDelay, bound, n, q, f)
			}
		}
		g, _ := GreedyScenario(f, q)
		check(g, "greedy")
		p, _ := PeakSeekingScenario(f, q)
		check(p, "peak")
		for k := 0; k < 10; k++ {
			var s Scenario
			e := q + r.Float64()*q
			for len(s) < n && e < c+100 {
				s = append(s, e)
				e += q + r.Float64()*q
			}
			check(s, "random")
		}
	}
}

// The limited bound is monotone in n and never exceeds the full bound.
func TestUpperBoundLimitedMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		c := 50 + r.Float64()*300
		maxV := 1 + r.Float64()*6
		q := maxV + 1 + r.Float64()*30
		f := randomPiecewise(r, c, maxV)
		full, _ := UpperBound(f, q)
		prev := 0.0
		for n := 0; n <= 8; n++ {
			b, err := UpperBoundLimited(f, q, n)
			if err != nil {
				t.Fatal(err)
			}
			if b < prev-1e-12 {
				t.Fatalf("trial %d: bound decreased from %g to %g at n=%d", trial, prev, b, n)
			}
			if b > full+1e-12 {
				t.Fatalf("trial %d: limited bound %g exceeds full %g", trial, b, full)
			}
			if _, maxF := f.Max(); b > float64(n)*maxF+1e-9 {
				t.Fatalf("trial %d: limited bound %g exceeds n*max %g", trial, b, float64(n)*maxF)
			}
			prev = b
		}
	}
}

func TestPreemptionCount(t *testing.T) {
	n, err := PreemptionCount(50, []float64{10, 25}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 { // ceil(50/10)=5 + ceil(50/25)=2
		t.Fatalf("count = %d, want 7", n)
	}
	n, err = PreemptionCount(50, []float64{10}, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 { // ceil(55/10)
		t.Fatalf("count with jitter = %d, want 6", n)
	}
	if _, err := PreemptionCount(50, []float64{0}, nil); err == nil {
		t.Fatal("accepted zero period")
	}
	if _, err := PreemptionCount(-1, []float64{10}, nil); err == nil {
		t.Fatal("accepted negative response time")
	}
	if _, err := PreemptionCount(10, []float64{10, 20}, []float64{1}); err == nil {
		t.Fatal("accepted mismatched jitters")
	}
}

// limitedOracle is the preemption-count refinement as first written: a
// Trace walk, its charges sorted descending with sort.Reverse, the n largest
// summed in that order and capped by the walk's total (the sum can round one
// ulp above it). Analyze's traceless limited path must match it bit for bit.
func limitedOracle(t *testing.T, f delay.Function, q float64, n int) float64 {
	t.Helper()
	res, err := Analyze(nil, f, q, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		_, maxF := f.MaxOn(0, f.Domain())
		return float64(n) * maxF
	}
	if n >= len(res.Iterations) {
		return res.TotalDelay
	}
	charges := make([]float64, len(res.Iterations))
	for i, it := range res.Iterations {
		charges[i] = it.DelayMax
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(charges)))
	var total float64
	for i := 0; i < n; i++ {
		total += charges[i]
	}
	return min(total, res.TotalDelay)
}

// limitedFixture draws a step function whose values are sevenths: windows
// often charge equal amounts, and the sums round, so a change in the order
// of summation shows in the low bits. C is sized for a walk of about k windows of
// length q = 10 (exactly one for k = 1).
func limitedFixture(r *rand.Rand, k int) (*delay.Piecewise, error) {
	c := 10.5 + float64(k-1)*(5+4*r.Float64())
	pieces := 1 + r.Intn(12)
	xs := []float64{0}
	for i := 1; i < pieces; i++ {
		xs = append(xs, c*float64(i)/float64(pieces))
	}
	xs = append(xs, c)
	vs := make([]float64, pieces)
	for i := range vs {
		vs[i] = float64(r.Intn(20)) / 7
	}
	return delay.NewPiecewise(xs, vs)
}

// TestLimitedMatchesSortedTraceOracle: for walks of 1 to over 100 windows,
// crossing the 32-entry stack buffer, and for every n in 0..len+1, the
// limited bound is bit-identical to limitedOracle, with and without a trace,
// and at or below the full bound; a divergent walk keeps the n × max f
// answer.
func TestLimitedMatchesSortedTraceOracle(t *testing.T) {
	const q = 10.0
	r := rand.New(rand.NewSource(32))
	minIters, maxIters := math.MaxInt, 0
	check := func(label string, f delay.Function) int {
		full, err := Analyze(nil, f, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n <= full.Preemptions+1; n++ {
			want := limitedOracle(t, f, q, n)
			for _, trace := range []bool{false, true} {
				got, err := Analyze(nil, f, q, Options{Limited: true, MaxPreemptions: n, Trace: trace})
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got.TotalDelay) != math.Float64bits(want) {
					t.Fatalf("%s, %d windows, n=%d, trace=%v: %v, oracle %v", label, full.Preemptions, n, trace, got.TotalDelay, want)
				}
				// Non-negative floats order as their bits: the limited
				// bound never rounds above the full one.
				if math.Float64bits(got.TotalDelay) > math.Float64bits(full.TotalDelay) {
					t.Fatalf("%s, n=%d: limited %v above full %v", label, n, got.TotalDelay, full.TotalDelay)
				}
				if got.Diverged != math.IsInf(want, 1) || trace != (len(got.Iterations) == full.Preemptions) {
					t.Fatalf("%s, n=%d, trace=%v: Diverged=%v with %d trace records", label, n, trace, got.Diverged, len(got.Iterations))
				}
			}
		}
		return full.Preemptions
	}
	for k := 1; k <= 120; k++ {
		f, err := limitedFixture(r, k)
		if err != nil {
			t.Fatal(err)
		}
		n := check(fmt.Sprintf("k=%d", k), f)
		minIters, maxIters = min(minIters, n), max(maxIters, n)
	}
	if minIters != 1 || maxIters < 100 {
		t.Fatalf("walks spanned %d..%d windows; want 1..>=100", minIters, maxIters)
	}
	div, err := delay.NewPiecewise([]float64{0, 50, 60, 200}, []float64{1, q, 2})
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := Analyze(nil, div, q, Options{}); !res.Diverged {
		t.Fatal("divergent fixture did not diverge")
	}
	check("divergent", div)
}

// TestLimitedTracelessAllocs pins the limited walk's charges on the stack:
// a traceless limited call of at most 32 windows allocates nothing.
func TestLimitedTracelessAllocs(t *testing.T) {
	f, err := limitedFixture(rand.New(rand.NewSource(7)), 25)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(nil, f, 10, Options{})
	if err != nil || res.Preemptions > limitChargeBuf || res.Preemptions < 20 {
		t.Fatalf("fixture walk: %d windows, err %v; want 20..%d", res.Preemptions, err, limitChargeBuf)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Analyze(nil, f, 10, Options{Limited: true, MaxPreemptions: 5}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("limited walk of %d windows: %v allocs/op, want 0", res.Preemptions, allocs)
	}
}
