package sched

import (
	"math"
	"math/rand"
	"testing"

	"fnpr/internal/delay"
	"fnpr/internal/synth"
	"fnpr/internal/task"
)

// leq is the Inf-tolerant ordered comparison: a must not exceed b beyond a
// relative tolerance (response times can reach 1e5, so an absolute epsilon
// would be too strict on one side and vacuous on the other). +Inf <= +Inf
// holds, as it must for divergent tasks.
func leq(a, b float64) bool {
	if math.IsInf(b, 1) {
		return true
	}
	return a <= b+1e-9*(1+math.Abs(b))
}

// orderingTrial analyses one fixture under all three delay-accounting
// methods and asserts the sandwich the exact engine guarantees: per task,
// exact C' <= Algorithm 1 C' <= Equation 4 C', and the same ordering for
// the response times (the RTA fixpoint is monotone in the effective WCETs,
// so the ordering must carry through). Tasks the exact method degraded
// (state budget, non-piecewise-constant function) must match Algorithm 1
// bit for bit — degradation falls back, it never invents a third bound.
func orderingTrial(t *testing.T, ts task.Set, fns []delay.Function) {
	t.Helper()
	rx, errx := Analyze(nil, ts, Options{Delay: fns, Method: Exact})
	r1, err1 := Analyze(nil, ts, Options{Delay: fns, Method: Algorithm1})
	r4, err4 := Analyze(nil, ts, Options{Delay: fns, Method: Equation4})
	// A fixture any method refuses (divergence, budget) decides nothing:
	// the ordering property is about computed bounds.
	if errx != nil || err1 != nil || err4 != nil {
		return
	}
	for i := range ts {
		if !leq(rx.EffectiveC[i], r1.EffectiveC[i]) || !leq(r1.EffectiveC[i], r4.EffectiveC[i]) {
			t.Fatalf("task %d: effective WCET ordering violated: exact %v, alg1 %v, eq4 %v",
				i, rx.EffectiveC[i], r1.EffectiveC[i], r4.EffectiveC[i])
		}
		if !leq(rx.Response[i], r1.Response[i]) || !leq(r1.Response[i], r4.Response[i]) {
			t.Fatalf("task %d: response ordering violated: exact %v, alg1 %v, eq4 %v",
				i, rx.Response[i], r1.Response[i], r4.Response[i])
		}
		if rx.Degraded[i] && rx.EffectiveC[i] != r1.EffectiveC[i] {
			t.Fatalf("task %d: degraded exact C' %v differs from Algorithm 1 %v",
				i, rx.EffectiveC[i], r1.EffectiveC[i])
		}
	}
	// A verdict must never get worse with a tighter bound: if Algorithm 1
	// accepts the set, the exact method must too.
	if r1.Schedulable && !rx.Schedulable {
		t.Fatalf("alg1 schedulable but exact not: exact %v vs alg1 %v", rx.Response, r1.Response)
	}
	if r4.Schedulable && !r1.Schedulable {
		t.Fatalf("eq4 schedulable but alg1 not: alg1 %v vs eq4 %v", r1.Response, r4.Response)
	}
}

// envelopeTrial checks the argument that makes Algorithm 1 on an upper
// envelope sound, which does not rest on Algorithm 1 being monotone in the
// function (it is not): for g >= f pointwise, exact(f) <= exact(g) <=
// Alg1(g). Each delay function is raised to the pointwise maximum of itself
// and a random two-step function drawn from r, and the exact analysis of
// the original set must not exceed Algorithm 1 on the envelopes, in
// effective WCET, response time or verdict. Fixtures where the exact method
// degraded fall back to Algorithm 1 on f, which the property does not
// cover, and are skipped.
func envelopeTrial(t *testing.T, r *rand.Rand, ts task.Set, fns []delay.Function) {
	t.Helper()
	gs := make([]delay.Function, len(fns))
	for i, f := range fns {
		if f == nil {
			continue
		}
		p := f.(*delay.Piecewise)
		_, peak := p.Max()
		c := p.Domain()
		step, err := delay.NewPiecewise([]float64{0, c * (0.1 + 0.8*r.Float64()), c},
			[]float64{peak * 1.2 * r.Float64(), peak * 1.2 * r.Float64()})
		if err != nil {
			t.Fatal(err)
		}
		if gs[i], err = p.MaxWith(step); err != nil {
			t.Fatal(err)
		}
	}
	rx, errx := Analyze(nil, ts, Options{Delay: fns, Method: Exact})
	rg, errg := Analyze(nil, ts, Options{Delay: gs, Method: Algorithm1})
	if errx != nil || errg != nil {
		return
	}
	for i := range ts {
		if rx.Degraded[i] {
			return
		}
	}
	for i := range ts {
		if !leq(rx.EffectiveC[i], rg.EffectiveC[i]) || !leq(rx.Response[i], rg.Response[i]) {
			t.Fatalf("task %d: exact on f (C' %v, R %v) exceeds Algorithm 1 on an envelope (C' %v, R %v)",
				i, rx.EffectiveC[i], rx.Response[i], rg.EffectiveC[i], rg.Response[i])
		}
	}
	if rg.Schedulable && !rx.Schedulable {
		t.Fatalf("alg1 on an envelope schedulable but exact on f not: %v vs %v", rg.Response, rx.Response)
	}
}

// TestBoundOrdering is the property battery for the three-bound sandwich on
// random task sets — jittered, constrained-deadline and divergent fixtures
// included — and for exact(f) <= Algorithm 1 on an upper envelope of f.
func TestBoundOrdering(t *testing.T) {
	trials := 1500
	if testing.Short() {
		trials = 150
	}
	for trial := 0; trial < trials; trial++ {
		r := synth.SubRand(2012, 0, trial)
		ts, fns, err := solverFixture(r)
		if err != nil {
			continue
		}
		orderingTrial(t, ts, fns)
		envelopeTrial(t, synth.SubRand(2012, 2, trial), ts, fns)
	}
}

// FuzzBoundOrdering fuzzes the same property: any seed whose fixture
// analyses cleanly must respect exact <= Algorithm 1 <= Equation 4.
func FuzzBoundOrdering(f *testing.F) {
	for _, seed := range []int64{1, 2012, 1811, 99991, -3} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := synth.SubRand(seed, 1, 0)
		ts, fns, err := solverFixture(r)
		if err != nil {
			t.Skip()
		}
		orderingTrial(t, ts, fns)
	})
}
