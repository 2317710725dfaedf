package eval

import (
	"math"
	"strings"
	"testing"

	"fnpr/internal/delay"
	"fnpr/internal/obs"
)

func TestFigure4Shape(t *testing.T) {
	tb, err := Figure4(delay.CalibratedParams(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.X) != 100 || len(tb.Series) != 3 {
		t.Fatalf("table shape %dx%d, want 100x3", len(tb.X), len(tb.Series))
	}
	if tb.X[0] != 0 || tb.X[99] != 4000 {
		t.Fatalf("X range [%g,%g], want [0,4000]", tb.X[0], tb.X[99])
	}
	// Gaussian 1 floor >= 10 at the edges, Gaussian 2 near zero there.
	g1 := tb.Series[0].Y
	g2 := tb.Series[1].Y
	if g1[0] < 9.9 {
		t.Fatalf("Gaussian 1 edge = %g, want ~10", g1[0])
	}
	if g2[0] > 1 {
		t.Fatalf("Gaussian 2 edge = %g, want ~0", g2[0])
	}
	if _, err := Figure4(delay.CalibratedParams(), 1); err == nil {
		t.Fatal("accepted n=1")
	}
}

func TestFigure5QualitativeClaims(t *testing.T) {
	cases := []struct {
		params delay.BenchmarkParams
		gain   float64
	}{
		// Needle-like literal bells: the peaked functions gain well over
		// an order of magnitude at small Q.
		{delay.LiteralParams(), 10},
		// Wide calibrated bells keep f high across much of the domain,
		// so the small-Q gain is a smaller (but still real) factor.
		{delay.CalibratedParams(), 2},
	}
	for _, c := range cases {
		params := c.params
		tb, err := Figure5(nil, params, SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := Figure5Checks(tb, c.gain); err != nil {
			t.Fatalf("params %+v: %v", params, err)
		}
		// At the largest Q (2000, half of C) every bound collapses to
		// at most a couple of preemptions' worth of delay.
		last := len(tb.X) - 1
		for _, s := range tb.Series {
			if strings.HasPrefix(s.Name, "State") {
				continue
			}
			if s.Y[last] > 30 {
				t.Fatalf("%s at Q=2000: %g, want small", s.Name, s.Y[last])
			}
		}
	}
}

func TestFigure5SOAConstantAcrossFunctions(t *testing.T) {
	// The SOA series depends only on C, Q and max f: recomputing it for
	// Gaussian 2 and the two-peak function gives the same values.
	tb, err := Figure5(nil, delay.LiteralParams(), SweepOptions{Qs: []float64{20, 100, 500}})
	if err != nil {
		t.Fatal(err)
	}
	var soa []float64
	for _, s := range tb.Series {
		if s.Name == "State of the Art" {
			soa = s.Y
		}
	}
	if soa == nil {
		t.Fatal("SOA series missing")
	}
	for i, q := range tb.X {
		if q <= 10 {
			continue
		}
		if math.IsInf(soa[i], 1) {
			t.Fatalf("SOA infinite at Q=%g", q)
		}
	}
}

// TestFigure5CountersDeterministicAcrossWorkers: the work counters of a
// parallel Figure 5 sweep are a function of the input alone, not of worker
// scheduling, so they can be gated exactly.
func TestFigure5CountersDeterministicAcrossWorkers(t *testing.T) {
	obs.Enable()
	def := obs.Default()
	rechecks, bisections := def.Counter("delay.index.rechecks"), def.Counter("delay.index.bisections")
	type counts struct{ rechecks, bisections, iterations int64 }
	var first counts
	for run := 0; run < 3; run++ {
		reg := obs.NewRegistry()
		r0, b0 := rechecks.Value(), bisections.Value()
		if _, err := Figure5(nil, delay.LiteralParams(), SweepOptions{Workers: 2, Obs: obs.NewScope(reg)}); err != nil {
			t.Fatal(err)
		}
		got := counts{rechecks.Value() - r0, bisections.Value() - b0, reg.Counter("core.alg1.iterations").Value()}
		if got.rechecks == 0 || got.bisections == 0 || got.iterations == 0 {
			t.Fatalf("run %d: counters did not move: %+v", run, got)
		}
		if run == 0 {
			first = got
		} else if got != first {
			t.Fatalf("run %d: counters %+v, run 0 read %+v", run, got, first)
		}
	}
}

func TestFigure5ChecksDetectsViolation(t *testing.T) {
	tb, err := Figure5(nil, delay.LiteralParams(), SweepOptions{Qs: []float64{20, 100}})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a value to exceed the SOA and verify the check fires.
	for i := range tb.Series {
		if tb.Series[i].Name == "Gaussian 2" {
			tb.Series[i].Y[0] = 1e12
		}
	}
	if err := Figure5Checks(tb, 5); err == nil {
		t.Fatal("corrupted table passed checks")
	}
}

func TestFigure1Report(t *testing.T) {
	rep, err := Figure1Report()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 1", "WCET=205", "digraph"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	if strings.Contains(rep, "MISMATCH") {
		t.Fatal("Figure 1 offsets mismatch the paper")
	}
}

func TestFigure2ReportCounterExample(t *testing.T) {
	rep, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	worst := math.Max(rep.Greedy.TotalDelay, rep.Peak.TotalDelay)
	if worst <= rep.Naive {
		t.Fatalf("counter-example lost: worst run %g <= naive %g", worst, rep.Naive)
	}
	if rep.Algorithm1 < worst {
		t.Fatalf("Algorithm 1 %g below observed %g", rep.Algorithm1, worst)
	}
	s := rep.String()
	for _, want := range []string{"naive", "Algorithm 1", "unsound"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

func TestFigure3Report(t *testing.T) {
	rep, err := Figure3Report()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 3", "p∩", "delaymax", "Q = 12"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}
