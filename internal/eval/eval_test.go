package eval

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"fnpr/internal/delay"
	"fnpr/internal/guard"
	"fnpr/internal/obs"
	"fnpr/internal/textplot"
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

// TestFigure5CountersDeterministicAcrossWorkers: the table, the work
// counters and the guard's step count of a Figure 5 sweep are a function of
// the input alone, not of the worker count or scheduling, so they can be
// gated exactly. The budgeted runs leave room for every lane's unspent
// lease (at most 255 steps each), so no worker count trips it.
func TestFigure5CountersDeterministicAcrossWorkers(t *testing.T) {
	obs.Enable()
	def := obs.Default()
	rechecks, bisections := def.Counter("delay.index.rechecks"), def.Counter("delay.index.bisections")
	type run struct {
		rechecks, bisections, iterations, steps int64
		table                                   *textplot.Table
	}
	sweep := func(g *guard.Ctx, workers int) run {
		reg := obs.NewRegistry()
		r0, b0 := rechecks.Value(), bisections.Value()
		tbl, err := Figure5(g, delay.LiteralParams(), SweepOptions{Workers: workers, Obs: obs.NewScope(reg)})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := run{rechecks.Value() - r0, bisections.Value() - b0, reg.Counter("core.alg1.iterations").Value(), g.Steps(), tbl}
		if got.rechecks == 0 || got.bisections == 0 || got.iterations == 0 || got.steps == 0 {
			t.Fatalf("workers=%d: counters did not move: %+v", workers, got)
		}
		return got
	}
	first := sweep(guard.New(context.Background()), 2)
	for _, workers := range []int{1, 2, 4} {
		got := sweep(guard.New(context.Background()).WithBudget(first.steps+4*256), workers)
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("workers=%d: %+v, the unbudgeted run read %+v", workers, got, first)
		}
	}

	// A point's own budget error, raised while lanes hold leases up to the
	// sweep's budget, degrades that point; only a tick past the budget
	// aborts the sweep.
	g := guard.New(context.Background()).WithBudget(300)
	fatal := sweepFatal(g)
	a, b := g.Lane(), g.Lane()
	if err := errors.Join(a.Tick(), b.Tick()); err != nil {
		t.Fatal(err)
	}
	if g.Remaining() != 0 {
		t.Fatalf("leases left %d steps of the budget, want none", g.Remaining())
	}
	if own := guard.Budgetf("eval: point's own limit"); fatal(own) {
		t.Fatal("a point's own budget error aborts the sweep while lanes merely hold leases")
	}
	if err := b.TickN(300); !errors.Is(err, guard.ErrBudgetExceeded) || !fatal(err) {
		t.Fatalf("tick past the budget: err = %v, fatal = %v, want a fatal ErrBudgetExceeded", err, fatal(err))
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
