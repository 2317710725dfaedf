package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fnpr/internal/delay"
	"fnpr/internal/obs"
)

func constF(v, c float64) *delay.Piecewise { return delay.Constant(v, c) }

// validate checks the FNPR spacing constraints.
func (s Scenario) validate(q float64) error {
	prev := 0.0
	for i, e := range s {
		min := prev + q
		if i == 0 {
			min = q
		}
		if e < min-1e-9 {
			return fmt.Errorf("core: preemption %d at execution time %g violates spacing (needs >= %g)", i, e, min)
		}
		prev = e
	}
	return nil
}

// run replays a preemption scenario against the delay function f under FNPR
// semantics with region length Q and returns the delay actually accrued.
// Theorem 1 guarantees UpperBound(f, Q) >= run(...).TotalDelay for every
// valid scenario; the test suite checks this against adversarial scenarios.
func (s Scenario) run(f delay.Function, q float64) (RunResult, error) {
	if err := s.validate(q); err != nil {
		return RunResult{}, err
	}
	c := f.Domain()
	var res RunResult
	for _, e := range s {
		prog := e - res.TotalDelay
		if prog >= c-completionTol(c, e) {
			break // job already finished before this preemption
		}
		d := f.Eval(prog)
		res.TotalDelay += d
		res.Preemptions++
		res.Progressions = append(res.Progressions, prog)
	}
	res.FinishTime = c + res.TotalDelay
	return res, nil
}

func TestUpperBoundValidation(t *testing.T) {
	f := constF(1, 100)
	if _, err := UpperBound(nil, 10); err == nil {
		t.Fatal("accepted nil function")
	}
	for _, q := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := UpperBound(f, q); err == nil {
			t.Fatalf("accepted Q=%v", q)
		}
	}
}

func TestUpperBoundZeroDelay(t *testing.T) {
	f := constF(0, 100)
	b, err := UpperBound(f, 10)
	if err != nil {
		t.Fatal(err)
	}
	if b != 0 {
		t.Fatalf("bound = %g, want 0", b)
	}
}

func TestUpperBoundNoPreemptionPossible(t *testing.T) {
	// Q >= C: the job always finishes inside its first non-preemptive
	// region, so no delay is ever charged.
	f := constF(5, 100)
	b, err := UpperBound(f, 100)
	if err != nil {
		t.Fatal(err)
	}
	if b != 0 {
		t.Fatalf("bound = %g, want 0", b)
	}
}

func TestUpperBoundConstantFunction(t *testing.T) {
	// f = 2 on [0,100], Q = 10. Iterations: pnext starts at 10, each
	// iteration charges 2 and advances by 8. Progressions: 10, 18, 26,
	// ..., 98 -> 12 iterations, bound 24.
	f := constF(2, 100)
	r, err := UpperBoundTrace(f, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Preemptions != 12 {
		t.Fatalf("preemptions = %d, want 12", r.Preemptions)
	}
	if r.TotalDelay != 24 {
		t.Fatalf("bound = %g, want 24", r.TotalDelay)
	}
	if r.Diverged {
		t.Fatal("unexpected divergence")
	}
	// Trace consistency.
	for i, it := range r.Iterations {
		if it.DelayMax != 2 {
			t.Fatalf("iteration %d delay = %g", i, it.DelayMax)
		}
		if it.PNext != it.Prog+10-2 {
			t.Fatalf("iteration %d pnext inconsistent", i)
		}
	}
}

func TestUpperBoundDivergence(t *testing.T) {
	// Delay equals Q: no guaranteed progression.
	f := constF(10, 100)
	r, err := UpperBoundTrace(f, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Diverged || !math.IsInf(r.TotalDelay, 1) {
		t.Fatalf("expected divergence, got %+v", r)
	}
}

func TestUpperBoundSkipsQuietPrefix(t *testing.T) {
	// Delay only in the second half: windows in the first half charge 0.
	f, err := delay.NewPiecewise([]float64{0, 50, 100}, []float64{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	r, err := UpperBoundTrace(f, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Progression points: 10,20,30,40 charge 0 (window fully quiet
	// except the one reaching 50).
	if r.Iterations[0].DelayMax != 0 {
		t.Fatal("first window should be quiet")
	}
	if r.TotalDelay >= 4*float64(r.Preemptions) {
		t.Fatalf("bound %g should be below max x preemptions", r.TotalDelay)
	}
}

func TestEffectiveWCET(t *testing.T) {
	f := constF(2, 100)
	r, _ := UpperBoundTrace(f, 10)
	if got := r.EffectiveWCET(100); got != 124 {
		t.Fatalf("C' = %g, want 124", got)
	}
}

func TestPIntersectLimitsWindow(t *testing.T) {
	// A towering late peak inside the window must be cut off by p∩:
	// f = 0 on [0,18), 9 on [18,100]. Q = 10. First window
	// [10,20]: D(x) = 20-x; f reaches D first where 9 >= 20-x -> x=11,
	// but f(11)=0<9 — the crossing is at x=18 (f jumps to 9 >= 2).
	// delaymax = max f on [10,18] = 9? No: on [10,18) f=0, and at 18
	// f=9, so max on [10,18] = 9 at p=18.
	f, err := delay.NewPiecewise([]float64{0, 18, 100}, []float64{0, 9})
	if err != nil {
		t.Fatal(err)
	}
	r, err := UpperBoundTrace(f, 10)
	if err != nil {
		t.Fatal(err)
	}
	it := r.Iterations[0]
	if it.PIntersect != 18 {
		t.Fatalf("p∩ = %g, want 18", it.PIntersect)
	}
	if it.DelayMax != 9 || it.PMax != 18 {
		t.Fatalf("delaymax = %g at %g, want 9 at 18", it.DelayMax, it.PMax)
	}
}

func TestStateOfTheArtBasics(t *testing.T) {
	// C=100, Q=10, max=2: fixpoint C' = 100 + ceil(C'/10)*2:
	// C'0=100 -> 120 -> 124 -> 126 -> 126 (ceil(126/10)=13 -> 126).
	f := constF(2, 100)
	soa, err := StateOfTheArt(f, 10)
	if err != nil {
		t.Fatal(err)
	}
	if soa != 26 {
		t.Fatalf("SOA = %g, want 26", soa)
	}
}

func TestStateOfTheArtDivergence(t *testing.T) {
	f := constF(10, 100)
	soa, err := StateOfTheArt(f, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(soa, 1) {
		t.Fatalf("SOA = %g, want +Inf", soa)
	}
}

func TestStateOfTheArtZeroDelay(t *testing.T) {
	soa, err := StateOfTheArtRaw(100, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if soa != 0 {
		t.Fatalf("SOA = %g, want 0", soa)
	}
}

func TestStateOfTheArtRawValidation(t *testing.T) {
	for _, c := range [][3]float64{{0, 10, 1}, {100, 0, 1}, {100, 10, -1}} {
		if _, err := StateOfTheArtRaw(c[0], c[1], c[2]); err == nil {
			t.Fatalf("accepted C=%g Q=%g max=%g", c[0], c[1], c[2])
		}
	}
	if _, err := StateOfTheArt(nil, 10); err == nil {
		t.Fatal("accepted nil function")
	}
	if _, err := StateOfTheArt(constF(1, 10), -1); err == nil {
		t.Fatal("accepted negative Q")
	}
}

// TestEq4JumpsMatchMonotone is the Equation 4 half of the solver
// differential: on random (C, Q, max f) the fixpoint with cutting-plane jumps
// returns bit for bit the value of the plain monotone iteration, +Inf
// divergence verdicts included.
func TestEq4JumpsMatchMonotone(t *testing.T) {
	trials := 20_000
	if testing.Short() {
		trials = 2_000
	}
	reg := obs.NewRegistry()
	sc := obs.NewScope(reg)
	r := rand.New(rand.NewSource(4242))
	infs := 0
	for trial := 0; trial < trials; trial++ {
		c := math.Exp(r.Float64() * math.Log(1e4))    // [1, 1e4), log-uniform
		q := c * math.Exp(-r.Float64()*math.Log(1e2)) // (C/100, C]
		var m float64
		switch r.Intn(6) {
		case 0:
			m = 0
		case 1: // divergent: max f at or above Q
			m = q * (1 + r.Float64())
		case 2: // slope above the cut cap: no jump is attempted
			m = q * (cutSlopeCap + 0.5*(1-cutSlopeCap)*r.Float64())
		default:
			m = q * r.Float64()
		}
		mono, err := eq4Fixpoint(nil, nil, c, q, m, false)
		if err != nil {
			t.Fatalf("trial %d: monotone C=%g Q=%g max=%g: %v", trial, c, q, m, err)
		}
		cut, err := eq4Fixpoint(nil, sc, c, q, m, true)
		if err != nil {
			t.Fatalf("trial %d: jumps C=%g Q=%g max=%g: %v", trial, c, q, m, err)
		}
		if math.Float64bits(mono) != math.Float64bits(cut) {
			t.Fatalf("trial %d: C=%g Q=%g max=%g: monotone %v, jumps %v", trial, c, q, m, mono, cut)
		}
		if math.IsInf(cut, 1) {
			infs++
		}
	}
	if infs == 0 {
		t.Fatal("no divergent trial drawn")
	}
	if reg.Counter("core.eq4.cuts").Value() == 0 {
		t.Fatal("no trial took a cutting-plane jump")
	}
}

// randomPiecewise builds a random delay function with values bounded by
// maxV and domain c.
func randomPiecewise(r *rand.Rand, c, maxV float64) *delay.Piecewise {
	n := r.Intn(10) + 1
	xs := make([]float64, 0, n+1)
	xs = append(xs, 0)
	for i := 1; i < n; i++ {
		xs = append(xs, xs[len(xs)-1]+1+r.Float64()*(c/float64(n)))
	}
	// Ensure last breakpoint is c and strictly increasing.
	last := xs[len(xs)-1]
	if last >= c {
		xs = []float64{0}
	}
	xs = append(xs, c)
	vs := make([]float64, len(xs)-1)
	for i := range vs {
		vs[i] = r.Float64() * maxV
	}
	p, err := delay.NewPiecewise(xs, vs)
	if err != nil {
		panic(err)
	}
	return p
}

// TestDominanceOverStateOfTheArt: Algorithm 1 never exceeds Equation 4.
func TestDominanceOverStateOfTheArt(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		c := 50 + r.Float64()*500
		maxV := 1 + r.Float64()*10
		q := maxV + 1 + r.Float64()*50 // keep both analyses finite
		f := randomPiecewise(r, c, maxV)
		alg, err := UpperBound(f, q)
		if err != nil {
			t.Fatal(err)
		}
		soa, err := StateOfTheArt(f, q)
		if err != nil {
			t.Fatal(err)
		}
		if alg > soa+1e-6 {
			t.Fatalf("trial %d: Algorithm 1 (%g) exceeds SOA (%g) for Q=%g f=%v",
				trial, alg, soa, q, f)
		}
	}
}

// TestSoundnessAgainstScenarios: Theorem 1 — the bound dominates greedy,
// peak-seeking and random adversarial scenarios.
func TestSoundnessAgainstScenarios(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	for trial := 0; trial < 300; trial++ {
		c := 50 + r.Float64()*500
		maxV := 1 + r.Float64()*10
		q := maxV + 0.5 + r.Float64()*60
		f := randomPiecewise(r, c, maxV)
		bound, err := UpperBound(f, q)
		if err != nil {
			t.Fatal(err)
		}

		_, greedy := GreedyScenario(f, q)
		if greedy.TotalDelay > bound+1e-9 {
			t.Fatalf("trial %d: greedy scenario (%g) beats bound (%g), Q=%g, f=%v",
				trial, greedy.TotalDelay, bound, q, f)
		}

		_, peak := PeakSeekingScenario(f, q)
		if peak.TotalDelay > bound+1e-9 {
			t.Fatalf("trial %d: peak-seeking scenario (%g) beats bound (%g), Q=%g, f=%v",
				trial, peak.TotalDelay, bound, q, f)
		}

		// Random scenarios with jittered spacing.
		for k := 0; k < 10; k++ {
			var s Scenario
			e := q + r.Float64()*q
			for e < c+bound+q {
				s = append(s, e)
				e += q + r.Float64()*q*0.7
			}
			run, err := s.run(f, q)
			if err != nil {
				t.Fatal(err)
			}
			if run.TotalDelay > bound+1e-9 {
				t.Fatalf("trial %d: random scenario (%g) beats bound (%g), Q=%g, f=%v",
					trial, run.TotalDelay, bound, q, f)
			}
		}
	}
}

// TestEnvelopeSoundness: running the analysis on an upper envelope g >= f is
// sound for scenarios of f.
func TestEnvelopeSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		c := 100 + r.Float64()*300
		maxV := 1 + r.Float64()*8
		q := maxV + 2 + r.Float64()*40
		f := randomPiecewise(r, c, maxV)
		// g = f + nonnegative bump (same breakpoints, bigger values).
		bump := r.Float64() * (q - maxV - 1)
		g, err := delay.NewPiecewise(f.Breakpoints(), addScalar(f.Values(), bump))
		if err != nil {
			t.Fatal(err)
		}
		boundG, err := UpperBound(g, q)
		if err != nil {
			t.Fatal(err)
		}
		_, runF := GreedyScenario(f, q)
		if runF.TotalDelay > boundG+1e-9 {
			t.Fatalf("trial %d: envelope bound %g below f-scenario %g", trial, boundG, runF.TotalDelay)
		}
		// Empirical monotonicity of the bound itself.
		boundF, _ := UpperBound(f, q)
		if boundF > boundG+1e-9 {
			t.Fatalf("trial %d: bound not monotone: f->%g, g->%g", trial, boundF, boundG)
		}
	}
}

func addScalar(v []float64, s float64) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = v[i] + s
	}
	return out
}

// TestNaiveBoundUnsound reproduces Figure 2: there exist functions and Q for
// which the naive progression-spaced point selection undercounts a feasible
// run-time scenario, while Algorithm 1 does not.
func TestNaiveBoundUnsound(t *testing.T) {
	// Two tall narrow peaks slightly more than Q apart in progression,
	// plus a third reachable only because delay payback slides execution
	// time past it: greedy run-time preemptions catch more peaks than
	// static progression spacing allows.
	f, err := delay.NewPiecewise(
		[]float64{0, 10, 12, 19, 21, 28, 30, 40},
		[]float64{0, 8, 0, 8, 0, 8, 0},
	)
	if err != nil {
		t.Fatal(err)
	}
	q := 10.0
	naive, err := NaivePointSelection(f, q)
	if err != nil {
		t.Fatal(err)
	}
	// Run-time adversary: strike at execution times 10, 20, 30 ->
	// progressions 10, 12 (20-8), 14... let the scenario machinery find it.
	_, greedy := GreedyScenario(f, q)
	_, peak := PeakSeekingScenario(f, q)
	observed := math.Max(greedy.TotalDelay, peak.TotalDelay)
	if observed <= naive {
		t.Fatalf("expected a feasible run (%g) above the naive bound (%g) — counter-example lost", observed, naive)
	}
	// Algorithm 1 stays sound.
	alg, err := UpperBound(f, q)
	if err != nil {
		t.Fatal(err)
	}
	if observed > alg+1e-9 {
		t.Fatalf("Algorithm 1 bound %g below observed %g", alg, observed)
	}
}

func TestNaivePointSelectionBasic(t *testing.T) {
	// Single peak: the naive bound picks it once per Q spacing chain.
	f, err := delay.NewPiecewise([]float64{0, 50, 60, 100}, []float64{0, 7, 0})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NaivePointSelection(f, 30)
	if err != nil {
		t.Fatal(err)
	}
	if naive != 7 {
		t.Fatalf("naive = %g, want 7 (single reachable peak)", naive)
	}
}

func TestNaivePointSelectionValidation(t *testing.T) {
	if _, err := NaivePointSelection(nil, 10); err == nil {
		t.Fatal("accepted nil function")
	}
	f := constF(1, 10)
	if _, err := NaivePointSelection(f, 0); err == nil {
		t.Fatal("accepted Q=0")
	}
}

func TestScenarioValidate(t *testing.T) {
	s := Scenario{10, 25, 40}
	if err := s.validate(10); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	if err := (Scenario{5}).validate(10); err == nil {
		t.Fatal("first preemption before Q accepted")
	}
	if err := (Scenario{10, 15}).validate(10); err == nil {
		t.Fatal("spacing violation accepted")
	}
}

func TestScenarioRunStopsAtCompletion(t *testing.T) {
	f := constF(1, 20)
	// Preemptions at 10 and 20: at e=20 progression = 20-1 = 19 < 20
	// (still running); at e=30 progression = 30-2 = 28 >= 20 -> ignored.
	s := Scenario{10, 20, 30}
	run, err := s.run(f, 10)
	if err != nil {
		t.Fatal(err)
	}
	if run.Preemptions != 2 {
		t.Fatalf("preemptions = %d, want 2", run.Preemptions)
	}
	if run.TotalDelay != 2 {
		t.Fatalf("delay = %g, want 2", run.TotalDelay)
	}
	if run.FinishTime != 22 {
		t.Fatalf("finish = %g, want 22", run.FinishTime)
	}
}

func TestGreedyScenarioSpacing(t *testing.T) {
	f := constF(2, 100)
	s, run := GreedyScenario(f, 10)
	if err := s.validate(10); err != nil {
		t.Fatalf("greedy scenario invalid: %v", err)
	}
	if run.Preemptions == 0 {
		t.Fatal("greedy scenario never preempted")
	}
	// Constant function: greedy achieves exactly the Algorithm 1 bound.
	bound, _ := UpperBound(f, 10)
	if math.Abs(run.TotalDelay-bound) > 1e-9 {
		t.Fatalf("greedy on constant f: %g, bound %g — should coincide", run.TotalDelay, bound)
	}
}

func TestPeakSeekingBeatsGreedyOnPeakedFunctions(t *testing.T) {
	// A single narrow peak: greedy (fixed spacing) may miss it, the
	// peak-seeker hits it.
	f, err := delay.NewPiecewise([]float64{0, 55, 58, 200}, []float64{0, 9, 0})
	if err != nil {
		t.Fatal(err)
	}
	_, greedy := GreedyScenario(f, 20)
	_, peak := PeakSeekingScenario(f, 20)
	if peak.TotalDelay < greedy.TotalDelay {
		t.Fatalf("peak-seeker (%g) worse than greedy (%g)", peak.TotalDelay, greedy.TotalDelay)
	}
	if peak.TotalDelay != 9 {
		t.Fatalf("peak-seeker should catch the peak once: %g", peak.TotalDelay)
	}
}

// TestPaperBenchmarkBounds: on the paper's own benchmark functions, the
// Algorithm 1 bound is finite, sound and below the state of the art for a
// spread of Q values (the Figure 5 claim).
func TestPaperBenchmarkBounds(t *testing.T) {
	for _, params := range []delay.BenchmarkParams{delay.LiteralParams(), delay.CalibratedParams()} {
		for name, f := range params.Benchmarks() {
			_, maxF := f.Max()
			for _, q := range []float64{maxF + 10, 100, 400, 1000, 1900} {
				alg, err := UpperBound(f, q)
				if err != nil {
					t.Fatal(err)
				}
				soa, err := StateOfTheArt(f, q)
				if err != nil {
					t.Fatal(err)
				}
				if alg > soa+1e-6 {
					t.Errorf("%s Q=%g: Algorithm 1 %g above SOA %g", name, q, alg, soa)
				}
				_, greedy := GreedyScenario(f, q)
				if greedy.TotalDelay > alg+1e-9 {
					t.Errorf("%s Q=%g: greedy %g above bound %g", name, q, greedy.TotalDelay, alg)
				}
				_, peak := PeakSeekingScenario(f, q)
				if peak.TotalDelay > alg+1e-9 {
					t.Errorf("%s Q=%g: peak-seeking %g above bound %g", name, q, peak.TotalDelay, alg)
				}
			}
		}
	}
}

// TestQNonMonotonicityArtifact documents the analysis artifact discussed in
// Section VI: the bound is not necessarily monotone in Q. We sweep Q over a
// peaked function and require at least one adjacent increase — the artifact
// the paper explicitly reports seeing.
func TestQNonMonotonicityArtifact(t *testing.T) {
	f := delay.LiteralParams().Gaussian2()
	prev := math.Inf(1)
	found := false
	for q := 20.0; q <= 500; q += 5 {
		b, err := UpperBound(f, q)
		if err != nil {
			t.Fatal(err)
		}
		if b > prev+1e-9 {
			found = true
			break
		}
		prev = b
	}
	if !found {
		t.Skip("no non-monotonicity found on this grid; artifact not triggered")
	}
}
