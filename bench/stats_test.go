package main

import (
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1, 2}, 1, 2, 3.5},
		{[]float64{5, 1}, 0, 3, 6},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n, maxP, p, beyond int
	}{
		{1000, 99, 99, 10},     // exactly ten beyond p99
		{999, 99, 98, 19},      // p99 would leave nine
		{1000, tailP, 90, 100}, // capped at tail_ms's percentile
		{60, tailP, 83, 10},    // a campaign-sized sample
		{20, 99, 50, 10},       // only the median qualifies
		{5, 99, 50, 2},         // too small: the median, with the short count stated
	} {
		got := tailOf(seq(c.n), c.maxP)
		if got.P != c.p || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d: tail = p%d with %d beyond (n=%d); want p%d with %d beyond",
				c.n, got.P, got.Beyond, got.N, c.p, c.beyond)
		}
		if c.beyond >= minBeyond && got.Beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond", c.n, got.Beyond)
		}
		// The reported value is the sample at that rank: n - beyond.
		if want := float64(c.n - got.Beyond); got.Value != want {
			t.Errorf("n=%d: tail value %g, want %g", c.n, got.Value, want)
		}
	}
}

func TestMeasureInterleavesSlices(t *testing.T) {
	clk := &lateClock{}
	cs := []conn{&countConn{clk: clk}, &countConn{clk: clk}}
	const seconds = 10
	between := 0
	w := measure(clk, cs, [3]float64{100, 200, 400}, seconds, func() { between++ })
	// low: 100 req/s for 0.5 s; high: 400 req/s for 0.5 s; reference: ten
	// slices of 200 req/s for 0.9 s × 0.65 each.
	if len(w.rungs[0].samples) != 50 || len(w.rungs[2].samples) != 200 || len(w.rungs[1].samples) != 10*117 {
		t.Errorf("rung sizes %d, %d, %d; want 50, 1170, 200",
			len(w.rungs[0].samples), len(w.rungs[1].samples), len(w.rungs[2].samples))
	}
	if len(w.rates) != cycles || w.capCompleted == 0 {
		t.Fatalf("%d capacity slices with %d requests; want %d slices", len(w.rates), w.capCompleted, cycles)
	}
	if between != 2*cycles {
		t.Errorf("between called %d times, want once after each of the %d slices", between, 2*cycles)
	}
	// Back to back, the reference slices would span 5.85 s; interleaved with
	// the capacity slices they span nearly all of the 9 s after the rungs.
	ref := w.rungs[1].samples
	if span := ref[len(ref)-1].due - ref[0].due; span < 8*time.Second {
		t.Errorf("reference samples span %v, want over 8 s", span)
	}
	// countConn fails every fourth request.
	if w.capFailed < w.capCompleted/5 || w.capFailed > w.capCompleted/3 {
		t.Errorf("%d of %d capacity requests failed, want about a quarter", w.capFailed, w.capCompleted)
	}
}

func TestBacklogDetector(t *testing.T) {
	flat := make([]time.Duration, 500)
	growing := make([]time.Duration, 500)
	for i := range flat {
		flat[i] = time.Duration(100+i%7) * time.Microsecond
		// A server 10% slower than the offered rate at 1 ms spacing falls
		// 0.1 ms further behind with every request.
		growing[i] = time.Duration(i) * 100 * time.Microsecond
	}
	if _, g := backlogGrowing(flat, 10*time.Millisecond); g {
		t.Error("flat lag flagged as a growing backlog")
	}
	end, g := backlogGrowing(growing, 10*time.Millisecond)
	if !g {
		t.Error("growing lag not flagged")
	}
	if end < 40*time.Millisecond {
		t.Errorf("backlog at end %v, want the last tenth's mean lag (~47 ms)", end)
	}
}
