package eval

import (
	"math"
	"testing"

	"fnpr/internal/core"
	"fnpr/internal/delay"
	"fnpr/internal/task"
)

func analyzeTestSet(t *testing.T) (task.Set, []delay.Function) {
	t.Helper()
	f1, err := delay.NewPiecewise([]float64{0, 40, 120, 200}, []float64{3, 7, 2})
	if err != nil {
		t.Fatal(err)
	}
	f2 := delay.Step(1, 6, 90, 9)
	ts := task.Set{
		{Name: "t1", C: 200, T: 1000, D: 1000},
		{Name: "t2", C: 90, T: 500, D: 500},
		{Name: "t3", C: 50, T: 400, D: 400},
	}
	return ts, []delay.Function{f1, f2, nil}
}

// sawtoothFixture builds a 48-piece delay function over [0, 96], fine enough
// to be auto-indexed, and a Q grid inside its interesting range.
func sawtoothFixture(t *testing.T) (*delay.Piecewise, []float64) {
	t.Helper()
	const n = 48
	xs := make([]float64, n+1)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(2 * i)
	}
	for i := range ys {
		// A rough sawtooth: high early spikes decaying towards the tail,
		// so Algorithm 1's windows walk several pieces per query.
		ys[i] = 0.5 + float64((13*i)%7) + 5/float64(i+1)
	}
	f, err := delay.NewPiecewise(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]float64, 0, 10)
	for q := 12.0; q < 52; q += 4 {
		qs = append(qs, q)
	}
	return f, qs
}

// TestAnalyzeSetMatchesDirectBounds asserts every (task, Q) point of a
// batched analysis equals a direct core.UpperBound call on the raw function.
func TestAnalyzeSetMatchesDirectBounds(t *testing.T) {
	ts, fns := analyzeTestSet(t)
	qs := []float64{10, 25, 60, 150}
	res, err := AnalyzeSet(nil, ts, fns, SweepOptions{Qs: qs})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(ts) {
		t.Fatalf("%d curves for %d tasks", len(res), len(ts))
	}
	for i, r := range res {
		if r.Name != ts[i].Name {
			t.Fatalf("curve %d named %q, want %q", i, r.Name, ts[i].Name)
		}
		if len(r.Points) != len(qs) {
			t.Fatalf("task %s: %d points for %d grid values", r.Name, len(r.Points), len(qs))
		}
		for k, pt := range r.Points {
			if pt.Q != qs[k] || !pt.Done {
				t.Fatalf("task %s point %d: Q=%g done=%v", r.Name, k, pt.Q, pt.Done)
			}
			want := 0.0
			if fns[i] != nil {
				wr, werr := core.Analyze(nil, fns[i], qs[k], core.Options{})
				if werr != nil {
					t.Fatal(werr)
				}
				want = wr.TotalDelay
			}
			if pt.Value != want {
				t.Fatalf("task %s Q=%g: batched %v, direct %v", r.Name, qs[k], pt.Value, want)
			}
		}
	}
}

// TestAnalyzeSetIndexTransparency asserts that a batched analysis over curves
// fine enough to be auto-indexed is bit-identical to direct scan-kernel
// analyses of the raw *delay.Piecewise curves.
func TestAnalyzeSetIndexTransparency(t *testing.T) {
	saw, grid := sawtoothFixture(t)
	step := delay.Step(1, 6, 90, 40)
	raw := []*delay.Piecewise{saw, step}
	ts := task.Set{
		{Name: "saw", C: saw.Domain(), T: 1000, D: 1000},
		{Name: "step", C: step.Domain(), T: 500, D: 500},
	}
	fns := make([]delay.Function, len(raw))
	for i, p := range raw {
		if _, ok := delay.AutoIndex(p).(*delay.Indexed); !ok {
			t.Fatalf("task %s: %d pieces is below the AutoIndex threshold", ts[i].Name, p.Pieces())
		}
		fns[i] = p
	}
	qs := append([]float64{10, 14, 25, 60}, grid...)
	indexed, err := AnalyzeSet(nil, ts, fns, SweepOptions{Qs: qs})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range raw {
		for k, q := range qs {
			scan, err := core.Analyze(nil, p, q, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			pt := indexed[i].Points[k]
			if !pt.Done || math.Float64bits(pt.Value) != math.Float64bits(scan.TotalDelay) {
				t.Fatalf("task %s Q=%g: indexed %+v vs scan %v", ts[i].Name, q, pt, scan.TotalDelay)
			}
		}
	}
}

// TestAnalyzeSetValidation covers the rejection paths.
func TestAnalyzeSetValidation(t *testing.T) {
	ts, fns := analyzeTestSet(t)
	qs := []float64{10}
	if _, err := AnalyzeSet(nil, nil, nil, SweepOptions{Qs: qs}); err == nil {
		t.Error("empty task set accepted")
	}
	if _, err := AnalyzeSet(nil, ts, fns[:2], SweepOptions{Qs: qs}); err == nil {
		t.Error("mismatched function count accepted")
	}
	if _, err := AnalyzeSet(nil, ts, fns, SweepOptions{}); err == nil {
		t.Error("empty Q grid accepted")
	}
	bad := []delay.Function{delay.Constant(1, 10), nil, nil} // domain 10 != C 200
	if _, err := AnalyzeSet(nil, ts, bad, SweepOptions{Qs: qs}); err == nil {
		t.Error("domain/WCET mismatch accepted")
	}
}

// TestAnalyzeSetAllNil: a set whose tasks all lack delay functions yields
// all-zero curves without touching the sweep machinery.
func TestAnalyzeSetAllNil(t *testing.T) {
	ts, _ := analyzeTestSet(t)
	res, err := AnalyzeSet(nil, ts, make([]delay.Function, len(ts)), SweepOptions{Qs: []float64{5, 10}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		for _, pt := range r.Points {
			if pt.Value != 0 || !pt.Done {
				t.Fatalf("task %s: %+v, want zero done point", r.Name, pt)
			}
		}
	}
}
