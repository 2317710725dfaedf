package fixednpr

import (
	"math"
	"math/rand"
	"testing"

	"fnpr/internal/core"
)

func linear(durCost ...float64) Task {
	var t Task
	for i := 0; i+1 < len(durCost); i += 2 {
		t.Chunks = append(t.Chunks, Chunk{Duration: durCost[i], Cost: durCost[i+1]})
	}
	return t
}

func TestValidate(t *testing.T) {
	if err := (Task{}).Validate(); err == nil {
		t.Fatal("accepted empty task")
	}
	if err := linear(0, 1).Validate(); err == nil {
		t.Fatal("accepted zero duration")
	}
	if err := linear(1, -1).Validate(); err == nil {
		t.Fatal("accepted negative cost")
	}
	if err := linear(5, 2, 5, 1).Validate(); err != nil {
		t.Fatalf("rejected valid task: %v", err)
	}
}

func TestC(t *testing.T) {
	tk := linear(5, 2, 7, 1, 3, 0)
	if tk.C() != 15 {
		t.Fatalf("C = %g, want 15", tk.C())
	}
}

func TestSelectPointsNoPointNeeded(t *testing.T) {
	tk := linear(5, 9, 5, 9) // total 10
	sel, err := SelectPoints(tk, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Points) != 0 || sel.TotalCost != 0 {
		t.Fatalf("selection = %+v, want no points", sel)
	}
	if sel.MaxInterval != 10 {
		t.Fatalf("max interval = %g, want 10", sel.MaxInterval)
	}
}

func TestSelectPointsPicksCheapest(t *testing.T) {
	// Three chunks of 5; qmax 10 requires at least one point; boundary
	// after chunk 0 costs 9, after chunk 1 costs 1 -> pick the cheap one.
	tk := linear(5, 9, 5, 1, 5, 0)
	sel, err := SelectPoints(tk, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Points) != 1 || sel.Points[0] != 1 {
		t.Fatalf("points = %v, want [1]", sel.Points)
	}
	if sel.TotalCost != 1 {
		t.Fatalf("cost = %g, want 1", sel.TotalCost)
	}
	if sel.MaxInterval > 10 {
		t.Fatalf("interval %g exceeds qmax", sel.MaxInterval)
	}
}

func TestSelectPointsMultiple(t *testing.T) {
	// Six chunks of 4; qmax 8 -> need a point at least every 2 chunks.
	tk := linear(4, 5, 4, 1, 4, 5, 4, 1, 4, 5, 4, 0)
	sel, err := SelectPoints(tk, 8)
	if err != nil {
		t.Fatal(err)
	}
	if sel.MaxInterval > 8+1e-9 {
		t.Fatalf("interval %g exceeds qmax", sel.MaxInterval)
	}
	// Optimal: points after chunks 1 and 3 (cost 1+1=2), leaving the
	// last interval = chunks 4+5 = 8 <= 8.
	if sel.TotalCost != 2 {
		t.Fatalf("cost = %g, want 2 (points %v)", sel.TotalCost, sel.Points)
	}
}

func TestSelectPointsInfeasible(t *testing.T) {
	tk := linear(12, 1, 5, 1)
	if _, err := SelectPoints(tk, 10); err == nil {
		t.Fatal("accepted chunk longer than qmax")
	}
	if _, err := SelectPoints(tk, 0); err == nil {
		t.Fatal("accepted qmax=0")
	}
}

func TestDelayFunction(t *testing.T) {
	tk := linear(5, 2, 5, 3, 5, 9)
	f, err := tk.DelayFunction()
	if err != nil {
		t.Fatal(err)
	}
	if f.Domain() != 15 {
		t.Fatalf("domain = %g, want 15", f.Domain())
	}
	if f.Eval(2) != 2 || f.Eval(7) != 3 {
		t.Fatalf("values wrong: f(2)=%g f(7)=%g", f.Eval(2), f.Eval(7))
	}
	// Last chunk's cost is zeroed (no preemption at task end).
	if f.Eval(13) != 0 {
		t.Fatalf("f(13) = %g, want 0", f.Eval(13))
	}
}

// Neither model dominates the other: the fixed model pays for every enabled
// point (but places them at the cheapest boundaries), while the floating
// bound pays only inside reachable Q windows (but at the worst point of each
// window). Both directions occur; this test pins one concrete example of
// each, plus basic sanity (fixed cost never exceeds the sum of all boundary
// costs) on random tasks.
func TestFixedVsFloatingNonDominance(t *testing.T) {
	// Floating wins: the whole task is cheap except one expensive early
	// boundary that floating preemptions can never reach (first window
	// starts past it) but fixed coverage must cross.
	a := linear(9, 5, 9, 5, 9, 0) // C=27, boundary costs 5, 5
	qa := 14.0
	selA, err := SelectPoints(a, qa)
	if err != nil {
		t.Fatal(err)
	}
	fa, _ := a.DelayFunction()
	floatA, err := core.Analyze(nil, fa, qa, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !(selA.TotalCost > floatA.TotalDelay) {
		t.Fatalf("expected fixed (%g) > floating (%g) on task A", selA.TotalCost, floatA.TotalDelay)
	}

	// Fixed wins: a long task with many cheap boundaries; fixed places a
	// few zero-cost points, while floating charges the (nonzero) local
	// max in every window.
	b := linear(5, 1, 5, 0, 5, 1, 5, 0, 5, 1, 5, 0, 5, 1, 5, 0)
	qb := 10.0
	selB, err := SelectPoints(b, qb)
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := b.DelayFunction()
	floatB, err := core.Analyze(nil, fb, qb, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !(selB.TotalCost < floatB.TotalDelay) {
		t.Fatalf("expected fixed (%g) < floating (%g) on task B", selB.TotalCost, floatB.TotalDelay)
	}
}

// Sanity on random tasks: the optimal fixed cost never exceeds enabling
// every boundary, and the floating bound on the derived function is finite
// whenever qmax exceeds the largest boundary cost.
func TestFixedCostBounded(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		n := 3 + r.Intn(6)
		var tk Task
		var all float64
		for i := 0; i < n; i++ {
			c := Chunk{Duration: 2 + r.Float64()*8, Cost: r.Float64() * 3}
			tk.Chunks = append(tk.Chunks, c)
			if i < n-1 {
				all += c.Cost
			}
		}
		qmax := 12 + r.Float64()*10
		sel, err := SelectPoints(tk, qmax)
		if err != nil {
			continue // some chunk exceeded qmax
		}
		if sel.TotalCost > all+1e-9 {
			t.Fatalf("trial %d: optimal cost %g exceeds all-points cost %g", trial, sel.TotalCost, all)
		}
		f, err := tk.DelayFunction()
		if err != nil {
			t.Fatal(err)
		}
		floating, err := core.Analyze(nil, f, qmax, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(floating.TotalDelay, 1) {
			t.Fatalf("trial %d: floating bound diverged with qmax %g > max cost 3", trial, qmax)
		}
	}
}

func TestSelectionIntervalsRespectQmax(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(8)
		var tk Task
		for i := 0; i < n; i++ {
			tk.Chunks = append(tk.Chunks, Chunk{
				Duration: 1 + r.Float64()*5,
				Cost:     r.Float64() * 4,
			})
		}
		qmax := 6 + r.Float64()*8
		sel, err := SelectPoints(tk, qmax)
		if err != nil {
			continue
		}
		if sel.MaxInterval > qmax+1e-9 {
			t.Fatalf("trial %d: interval %g exceeds qmax %g", trial, sel.MaxInterval, qmax)
		}
		// Points sorted ascending and within range.
		for i, p := range sel.Points {
			if p < 0 || p >= n-1 {
				t.Fatalf("trial %d: point %d out of range", trial, p)
			}
			if i > 0 && sel.Points[i-1] >= p {
				t.Fatalf("trial %d: points not ascending: %v", trial, sel.Points)
			}
		}
	}
}
