package synth

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"fnpr/internal/cache"
)

func TestUUniFastSumsAndBounds(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(10)
		u := 0.1 + r.Float64()*0.9
		us := UUniFast(r, n, u)
		if len(us) != n {
			t.Fatalf("got %d utilizations, want %d", len(us), n)
		}
		var sum float64
		for _, v := range us {
			if v < 0 || v > u+1e-12 {
				t.Fatalf("utilization %g outside [0,%g]", v, u)
			}
			sum += v
		}
		if math.Abs(sum-u) > 1e-9 {
			t.Fatalf("sum = %g, want %g", sum, u)
		}
	}
}

func TestLogUniformPeriods(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	ps := LogUniformPeriods(r, 200, 10, 1000, false)
	for _, p := range ps {
		if p < 10 || p > 1000 {
			t.Fatalf("period %g outside range", p)
		}
	}
	rounded := LogUniformPeriods(r, 50, 10, 1000, true)
	for _, p := range rounded {
		if p != math.Round(p) {
			t.Fatalf("period %g not integral", p)
		}
		if p < 10 {
			t.Fatalf("rounded period %g below lo", p)
		}
	}
}

func TestTaskSetGeneration(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ts, err := TaskSet(r, TaskSetParams{
		N: 5, Utilization: 0.7, PeriodLo: 10, PeriodHi: 1000,
		RoundPeriod: true, QFraction: 0.2, MinQ: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 5 {
		t.Fatalf("got %d tasks", len(ts))
	}
	if math.Abs(ts.Utilization()-0.7) > 0.05 {
		// C is derived from possibly-rounded periods; allow slack.
		t.Fatalf("utilization %g far from 0.7", ts.Utilization())
	}
	for i, tk := range ts {
		if tk.Q <= 0 || tk.Q > tk.C {
			t.Fatalf("task %d Q=%g outside (0,C]", i, tk.Q)
		}
	}
	// RM order.
	for i := 1; i < len(ts); i++ {
		if ts[i-1].T > ts[i].T {
			t.Fatal("not RM sorted")
		}
	}
}

// TestTaskSetNames: every drawn task is named "t" and its draw index, on
// both sides of the name table's 64 entries.
func TestTaskSetNames(t *testing.T) {
	ts, err := TaskSet(rand.New(rand.NewSource(5)), TaskSetParams{
		N: 70, Utilization: 0.5, PeriodLo: 10, PeriodHi: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, tk := range ts {
		seen[tk.Name] = true
	}
	for i := range ts {
		if name := "t" + strconv.Itoa(i); !seen[name] {
			t.Fatalf("no task named %s among %d", name, len(ts))
		}
	}
}

func TestTaskSetValidation(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	if _, err := TaskSet(r, TaskSetParams{N: 0, Utilization: 0.5, PeriodLo: 1, PeriodHi: 10}); err == nil {
		t.Fatal("accepted N=0")
	}
	if _, err := TaskSet(r, TaskSetParams{N: 2, Utilization: 0, PeriodLo: 1, PeriodHi: 10}); err == nil {
		t.Fatal("accepted U=0")
	}
	if _, err := TaskSet(r, TaskSetParams{N: 2, Utilization: 0.5, PeriodLo: 10, PeriodHi: 1}); err == nil {
		t.Fatal("accepted inverted period range")
	}
}

func TestCFGGeneration(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g, acc, err := CFG(r, CFGParams{
		Blocks: 20, MaxFanout: 3,
		EMinLo: 1, EMinHi: 5, ESpread: 3,
		Lines: 32, AccessesPerBloc: 6, Reuse: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("generated graph invalid: %v", err)
	}
	if !g.IsAcyclic() {
		t.Fatal("generated graph has cycles")
	}
	if _, err := g.AnalyzeOffsets(); err != nil {
		t.Fatalf("offsets failed on generated graph: %v", err)
	}
	// Accesses stay within the line pool.
	for _, trace := range acc {
		for _, l := range trace {
			if l >= 32 {
				t.Fatalf("access %d outside pool", l)
			}
		}
	}
	// The UCB pipeline runs end to end.
	cc := cache.Config{Sets: 8, Assoc: 2, LineBytes: 16, ReloadCost: 1}
	if _, err := cache.AnalyzeUCB(g, acc, cc); err != nil {
		t.Fatalf("UCB on generated workload: %v", err)
	}
}

func TestCFGValidation(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	if _, _, err := CFG(r, CFGParams{Blocks: 1}); err == nil {
		t.Fatal("accepted single block")
	}
}

func TestDelayFunctionGeneration(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		c := 10 + r.Float64()*1000
		maxV := r.Float64() * 20
		f := DelayFunction(r, c, maxV, 1+r.Intn(10))
		if f.Domain() != c {
			t.Fatalf("domain %g, want %g", f.Domain(), c)
		}
		_, fm := f.Max()
		if fm > maxV {
			t.Fatalf("max %g exceeds %g", fm, maxV)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := UUniFast(rand.New(rand.NewSource(9)), 5, 0.8)
	b := UUniFast(rand.New(rand.NewSource(9)), 5, 0.8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("UUniFast not deterministic under equal seeds")
		}
	}
}
