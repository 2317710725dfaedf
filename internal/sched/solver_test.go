package sched

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fnpr/internal/delay"
	"fnpr/internal/guard"
	"fnpr/internal/obs"
	"fnpr/internal/synth"
	"fnpr/internal/task"
)

// solverFixture draws one differential trial: a random task set (optionally
// with release jitter and constrained deadlines, so the cut construction and
// the QPA phase-1 walk are both exercised) plus a mix of delay functions —
// nil (no delay), benign front-loaded curves, aggressive ones that push the
// set over its deadlines, and divergent ones whose peak reaches the NPR
// length Q so the per-task bound has no finite answer.
func solverFixture(r *rand.Rand) (task.Set, []delay.Function, error) {
	ts, err := synth.TaskSet(r, synth.TaskSetParams{
		N:           2 + r.Intn(5),
		Utilization: 0.35 + 0.6*r.Float64(),
		PeriodLo:    10,
		PeriodHi:    400,
		RoundPeriod: true,
		QFraction:   0.2 + 0.4*r.Float64(),
		MinQ:        0.05,
	})
	if err != nil {
		return nil, nil, err
	}
	if r.Intn(3) == 0 {
		for i := range ts {
			ts[i].Jitter = r.Float64() * 0.2 * ts[i].T
		}
	}
	if r.Intn(3) == 0 {
		// Constrained deadlines D < T: the EDF horizon then exceeds the
		// largest deadline, which is what sends the QPA walk through its
		// descending phase 1.
		for i := range ts {
			d := ts[i].C + r.Float64()*(ts[i].T-ts[i].C)
			if d < ts[i].T {
				ts[i].D = d
			}
		}
	}
	if err := ts.Validate(); err != nil {
		return nil, nil, err
	}
	fns, err := fixtureDelays(r, ts)
	return ts, fns, err
}

// fixtureDelays draws the delay-function mix of solverFixture for ts.
func fixtureDelays(r *rand.Rand, ts task.Set) ([]delay.Function, error) {
	fns := make([]delay.Function, len(ts))
	for i := 1; i < len(ts); i++ {
		var peak float64
		switch r.Intn(4) {
		case 0: // no delay for this task
			continue
		case 1: // divergent: the delay never drops below the NPR length
			peak = ts[i].Q * (1.1 + r.Float64())
		default: // benign-to-aggressive, but analysable
			peak = ts[i].Q * (0.2 + 0.7*r.Float64())
		}
		if peak > ts[i].C {
			peak = ts[i].C * 0.9
		}
		if peak <= 0 {
			continue
		}
		fn, err := delay.NewFrontLoaded(peak, peak/5, ts[i].C)
		if err != nil {
			return nil, err
		}
		fns[i] = fn
	}
	return fns, nil
}

// tiedFixture draws a set of 14 to 20 tasks whose periods come from a
// small harmonic pool with repeats and no jitter, so many of cutRoot's
// breakpoints n·Tj coincide. With more than 12 segments an unstable sort
// would leave such ties in an arbitrary order; cutRoot's stable order must
// give the monotone reference's responses bit for bit.
func tiedFixture(r *rand.Rand) (task.Set, []delay.Function, error) {
	n := 14 + r.Intn(7)
	u := 0.5 + 0.45*r.Float64()
	ts := make(task.Set, n)
	for i := range ts {
		period := 20 * float64(int(1)<<r.Intn(5))
		c := math.Max(0.01, u/float64(n)*period*(0.5+r.Float64()))
		ts[i] = task.Task{Name: fmt.Sprintf("t%d", i), C: c, T: period}
		ts[i].Q = math.Max((0.2+0.4*r.Float64())*c, 0.05)
	}
	ts.AssignRateMonotonic()
	if err := ts.Validate(); err != nil {
		return nil, nil, err
	}
	fns, err := fixtureDelays(r, ts)
	return ts, fns, err
}

// sameFloats reports exact elementwise equality (+Inf included; == handles
// it, and NaN never appears in response times).
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// checkSolverPair runs the analysis under the monotone reference and the
// cutting solvers and fails the test unless the outcomes are
// indistinguishable: identical errors (by guard class) or bit-identical
// results.
func checkSolverPair(t *testing.T, label string, ts task.Set, opts Options) {
	t.Helper()
	mr, merr := analyze(nil, ts, opts, true)
	cr, cerr := analyze(nil, ts, opts, false)
	if (merr == nil) != (cerr == nil) {
		t.Fatalf("%s: monotone err=%v, cutting err=%v", label, merr, cerr)
	}
	if merr != nil {
		if errors.Is(merr, guard.ErrDiverged) != errors.Is(cerr, guard.ErrDiverged) {
			t.Fatalf("%s: error class mismatch: monotone %v, cutting %v", label, merr, cerr)
		}
		return
	}
	if mr.Schedulable != cr.Schedulable {
		t.Fatalf("%s: verdict mismatch: monotone %v, cutting %v", label, mr.Schedulable, cr.Schedulable)
	}
	if !sameFloats(mr.Response, cr.Response) {
		t.Fatalf("%s: response times differ:\nmonotone %v\ncutting  %v", label, mr.Response, cr.Response)
	}
	if !sameFloats(mr.EffectiveC, cr.EffectiveC) {
		t.Fatalf("%s: effective WCETs differ:\nmonotone %v\ncutting  %v", label, mr.EffectiveC, cr.EffectiveC)
	}
	if len(mr.PreemptionLimit) != len(cr.PreemptionLimit) {
		t.Fatalf("%s: preemption limits differ in length", label)
	}
	for i := range mr.PreemptionLimit {
		if mr.PreemptionLimit[i] != cr.PreemptionLimit[i] {
			t.Fatalf("%s: preemption limit %d differs: monotone %d, cutting %d",
				label, i, mr.PreemptionLimit[i], cr.PreemptionLimit[i])
		}
	}
}

// solverTrial runs the full differential battery on one fixture: plain and
// delay-aware FP (cold and warm, both methods), the limited refinement and
// the EDF demand test.
func solverTrial(t *testing.T, ts task.Set, fns []delay.Function, trial int) {
	t.Helper()
	checkSolverPair(t, "plain", ts, Options{})
	// Warm seeds come from the no-delay envelope, the contract every caller
	// of Options.Warm follows.
	var seed []float64
	if nd, err := analyze(nil, ts, Options{}, true); err == nil {
		seed = nd.Response
	}
	for _, m := range []DelayMethod{Algorithm1, Equation4} {
		checkSolverPair(t, m.String()+" cold", ts, Options{Delay: fns, Method: m})
		checkSolverPair(t, m.String()+" warm", ts, Options{Delay: fns, Method: m, Warm: seed})
	}
	if trial%5 == 0 {
		checkSolverPair(t, "limited", ts, Options{Delay: fns, Method: Algorithm1, Limited: true, Warm: seed})
	}
	checkSolverPair(t, "edf", ts, Options{Policy: EDF, Delay: fns, Method: Algorithm1})
}

// TestSolverDifferential is the tentpole guarantee: across 10k random task
// sets — schedulable, unschedulable and divergent alike — the cutting-plane
// solvers return bit-identical response times, effective WCETs, preemption
// limits and verdicts to the monotone baselines, for every analysis variant.
func TestSolverDifferential(t *testing.T) {
	trials := 10_000
	if testing.Short() {
		trials = 500
	}
	for trial := 0; trial < trials; trial++ {
		r := synth.SubRand(1811, 0, trial)
		ts, fns, err := solverFixture(r)
		if err != nil {
			continue
		}
		solverTrial(t, ts, fns, trial)
	}
	reg := obs.NewRegistry()
	g := guard.New(context.Background()).WithObs(obs.NewScope(reg))
	for trial := 0; trial < trials/50; trial++ {
		ts, fns, err := tiedFixture(synth.SubRand(1811, 1, trial))
		if err != nil {
			t.Fatal(err)
		}
		solverTrial(t, ts, fns, trial)
		if _, err := analyze(g, ts, Options{Delay: fns, Method: Algorithm1}, false); err != nil && guard.Abortive(err) {
			t.Fatal(err)
		}
	}
	if reg.Counter("sched.rta.solver.cuts").Value() == 0 {
		t.Fatal("no cut fired on the tied-breakpoint sets; they no longer exercise cutRoot's ordering")
	}
}

// TestCutRootAllocs pins cutRoot's segment buffer to its caller's scratch:
// no allocation for up to cutSegBuf higher-priority tasks.
func TestCutRootAllocs(t *testing.T) {
	ts, _, err := tiedFixture(synth.SubRand(1811, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	i := min(len(ts)-1, cutSegBuf)
	gamma := func(i, j int) float64 { return 0.1 }
	var buf cutScratch
	allocs := testing.AllocsPerRun(100, func() {
		cutRoot(ts, gamma, i, ts[i].C, ts[i].C, ts[i].Deadline(), &buf)
	})
	if allocs != 0 {
		t.Fatalf("cutRoot with %d higher-priority tasks: %v allocs/op, want 0", i, allocs)
	}
}

// cutRootSorted is cutRoot as first written: every segment built, then put
// in breakpoint order by a stable sort before the walk, whatever the count.
// cutRoot's in-place selection, used up to cutSegBuf segments, must
// reproduce it bit for bit.
func cutRootSorted(ts task.Set, gamma func(i, j int) float64, i int, base, a, limit float64) (root float64, found, unsat bool) {
	type cutSeg struct{ bp, linD, slopeD float64 }
	var segs []cutSeg
	lin := base
	slope := 0.0
	for j := 0; j < i; j++ {
		u := ts[j].C
		if gamma != nil {
			u += gamma(i, j)
		}
		t, jit := ts[j].T, ts[j].Jitter
		n := math.Ceil((a + jit) / t)
		lin += n * u
		segs = append(segs, cutSeg{
			bp:     n*t - jit,
			linD:   u*(jit/t) - n*u,
			slopeD: u / t,
		})
	}
	slices.SortStableFunc(segs, func(x, y cutSeg) int { return cmp.Compare(x.bp, y.bp) })
	margin := func(x float64) float64 {
		return math.Max(cutRelShave*math.Abs(x), cutAbsShave)
	}
	certified := lin-a > margin(a)
	for k := 0; ; k++ {
		end, last := limit, true
		if k < len(segs) && segs[k].bp < limit {
			end, last = segs[k].bp, false
		}
		if slope < cutSlopeCap {
			if r := lin / (1 - slope); r <= end {
				if math.IsNaN(r) || math.IsInf(r, 0) {
					return 0, false, false
				}
				return r, true, false
			}
		}
		if certified && lin+slope*end-end <= margin(end) {
			certified = false
		}
		if last {
			return 0, false, certified
		}
		lin += segs[k].linD
		slope += segs[k].slopeD
	}
}

// cutRootTrial draws one relaxation probe — up to 24 higher-priority tasks
// (past cutSegBuf), periods from a small harmonic menu so breakpoints tie,
// optional jitter and preemption costs, anchors and limits wide enough to
// reach every verdict — and fails unless cutRoot matches cutRootSorted bit
// for bit. cutRoot works in a scratch buffer full of stale NaN segments, as
// a reused one holds, so reading a segment it did not write shows. It
// reports whether two breakpoints tied and which verdict came out.
func cutRootTrial(t *testing.T, r *rand.Rand) (tied, found, unsat bool) {
	t.Helper()
	i := 1 + r.Intn(24)
	u := (0.3 + 0.8*r.Float64()) / float64(i)
	ts := make(task.Set, i+1)
	for j := range ts {
		period := 2.5 * float64(int(1)<<r.Intn(5))
		ts[j] = task.Task{Name: fmt.Sprintf("t%d", j), C: u * period * (0.5 + r.Float64()), T: period}
		if r.Intn(4) == 0 {
			ts[j].Jitter = 0.25 * float64(r.Intn(4))
		}
	}
	var gamma func(i, j int) float64
	if r.Intn(2) == 0 {
		cost := make([]float64, i)
		for j := range cost {
			cost[j] = 0.1 * float64(r.Intn(3))
		}
		gamma = func(_, j int) float64 { return cost[j] }
	}
	base := 0.5 + 20*r.Float64()
	a := base + 100*r.Float64()
	limit := a + 400*r.Float64()
	var buf cutScratch
	for k := range buf {
		buf[k] = cutSeg{math.NaN(), math.NaN(), math.NaN()}
	}
	root, found, unsat := cutRoot(ts, gamma, i, base, a, limit, &buf)
	wroot, wfound, wunsat := cutRootSorted(ts, gamma, i, base, a, limit)
	if math.Float64bits(root) != math.Float64bits(wroot) || found != wfound || unsat != wunsat {
		t.Fatalf("cutRoot(i=%d, base=%v, a=%v, limit=%v) = (%v, %v, %v), sorted oracle (%v, %v, %v); set %v",
			i, base, a, limit, root, found, unsat, wroot, wfound, wunsat, ts)
	}
	bps := map[float64]bool{}
	for _, tk := range ts[:i] {
		bp := math.Ceil((a+tk.Jitter)/tk.T)*tk.T - tk.Jitter
		tied = tied || bps[bp]
		bps[bp] = true
	}
	return tied, found, unsat
}

// TestCutRootMatchesSortedOracle: on random probes with tied breakpoints, on
// both sides of cutSegBuf, cutRoot returns the stable-sort walk's root,
// found and unsat bit for bit.
func TestCutRootMatchesSortedOracle(t *testing.T) {
	r := rand.New(rand.NewSource(2210))
	var tied, found, unsat int
	for trial := 0; trial < 20_000; trial++ {
		tr, f, u := cutRootTrial(t, r)
		if tr && f {
			tied++
		}
		if f {
			found++
		}
		if u {
			unsat++
		}
	}
	if tied == 0 || found == 0 || unsat == 0 {
		t.Fatalf("probes drew %d tied roots, %d roots, %d refutations; want all three", tied, found, unsat)
	}
}

// FuzzCutRootOrder fuzzes the same comparison over the probe seed space.
func FuzzCutRootOrder(f *testing.F) {
	for _, seed := range []int64{1, 16, 2210, 11185, -9} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		cutRootTrial(t, rand.New(rand.NewSource(seed)))
	})
}

// FuzzSolverEquivalence fuzzes the same differential: any seed whose fixture
// analyses must agree across solvers bit for bit.
func FuzzSolverEquivalence(f *testing.F) {
	for _, seed := range []int64{1, 42, 1811, 99991, -7} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		ts, fns, err := solverFixture(r)
		if err != nil {
			t.Skip()
		}
		solverTrial(t, ts, fns, int(seed))
	})
}

// solverIterations runs fn under a fresh registry and returns the engine
// evaluations it charged (sched.rta.solver.iterations counts both FP fixpoint
// steps and EDF demand points, under every solver).
func solverIterations(t *testing.T, fn func(g *guard.Ctx)) int64 {
	t.Helper()
	reg := obs.NewRegistry()
	g := guard.New(context.Background()).WithObs(obs.NewScope(reg))
	fn(g)
	return reg.Counter("sched.rta.solver.iterations").Value()
}

// solverLoadParams describes one population of the iteration-reduction
// workload: wide log-uniform period ranges give the low-priority tasks long
// monotone climbs (one release boundary per step), which is where the
// cutting jumps and the no-fixpoint refutation pay off. The same classes
// drive BenchmarkRTASolver, whose rta-iters/op testdata/bench.golden
// gates exactly.
var solverLoadParams = []synth.TaskSetParams{
	{N: 10, Utilization: 0.55, PeriodLo: 10, PeriodHi: 10_000, RoundPeriod: true, QFraction: 0.9, MinQ: 0.1},
	{N: 12, Utilization: 0.55, PeriodLo: 10, PeriodHi: 50_000, RoundPeriod: true, QFraction: 0.9, MinQ: 0.1},
}

// solverLoadFixture draws one workload fixture of the given class with
// front-loaded delay functions at 80% of each task's NPR length.
func solverLoadFixture(r *rand.Rand, p synth.TaskSetParams) (task.Set, []delay.Function, error) {
	p.Utilization += 0.15 * r.Float64()
	ts, err := synth.TaskSet(r, p)
	if err != nil {
		return nil, nil, err
	}
	fns := make([]delay.Function, len(ts))
	for i := 1; i < len(ts); i++ {
		peak := math.Min(0.8*ts[i].Q, 0.9*ts[i].C)
		if peak <= 0 {
			continue
		}
		fn, err := delay.NewFrontLoaded(peak, peak/5, ts[i].C)
		if err != nil {
			return nil, nil, err
		}
		fns[i] = fn
	}
	return ts, fns, nil
}

// TestSolverIterationReduction pins the acceleration claim the benchmarks
// report: against the warm-started monotone baseline, the cutting solver
// needs at least 25% fewer engine iterations in aggregate over the
// solverLoadParams populations (the workload BenchmarkRTASolver measures).
func TestSolverIterationReduction(t *testing.T) {
	var monoTotal, cutTotal int64
	trials := 0
	for ci, class := range solverLoadParams {
		for trial := 0; trial < 120; trial++ {
			r := synth.SubRand(7321, ci, trial)
			ts, fns, err := solverLoadFixture(r, class)
			if err != nil {
				continue
			}
			nd, err := analyze(nil, ts, Options{}, true)
			if err != nil {
				continue
			}
			trials++
			opts := Options{Delay: fns, Method: Algorithm1, Warm: nd.Response}
			monoTotal += solverIterations(t, func(g *guard.Ctx) {
				if _, err := analyze(g, ts, opts, true); err != nil && !errors.Is(err, guard.ErrDiverged) {
					t.Fatal(err)
				}
			})
			cutTotal += solverIterations(t, func(g *guard.Ctx) {
				if _, err := analyze(g, ts, opts, false); err != nil && !errors.Is(err, guard.ErrDiverged) {
					t.Fatal(err)
				}
			})
		}
	}
	if trials < 150 {
		t.Fatalf("only %d usable fixtures", trials)
	}
	if cutTotal > monoTotal*3/4 {
		t.Fatalf("cutting solver spent %d iterations vs %d warm-monotone (want >= 25%% reduction)",
			cutTotal, monoTotal)
	}
	t.Logf("iterations: warm monotone %d, cutting %d (%.1f%% reduction)",
		monoTotal, cutTotal, 100*(1-float64(cutTotal)/float64(monoTotal)))
}

// TestAnalyzeMatchesDeprecated: the consolidated entry point must reproduce
// every deprecated wrapper bit for bit (the wrappers run the monotone
// reference; Analyze runs the cutting solvers — agreement here is the
// migration guarantee).
func TestAnalyzeMatchesDeprecated(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		r := synth.SubRand(4177, 2, trial)
		ts, fns, err := solverFixture(r)
		if err != nil {
			continue
		}
		a := FNPRAnalysis{Tasks: ts, Delay: fns, Method: Algorithm1}
		oldR, oldErr := a.ResponseTimesFPCtx(nil)
		newR, newErr := Analyze(nil, ts, Options{Delay: fns, Method: Algorithm1})
		if (oldErr == nil) != (newErr == nil) {
			t.Fatalf("trial %d: wrapper err=%v, Analyze err=%v", trial, oldErr, newErr)
		}
		if oldErr == nil && !sameFloats(oldR, newR.Response) {
			t.Fatalf("trial %d: FP responses differ: %v vs %v", trial, oldR, newR.Response)
		}
		oldOK, oldErr := a.SchedulableEDFCtx(nil)
		edf, newErr := Analyze(nil, ts, Options{Policy: EDF, Delay: fns, Method: Algorithm1})
		if (oldErr == nil) != (newErr == nil) {
			t.Fatalf("trial %d: EDF wrapper err=%v, Analyze err=%v", trial, oldErr, newErr)
		}
		if oldErr == nil && oldOK != edf.Schedulable {
			t.Fatalf("trial %d: EDF verdicts differ: %v vs %v", trial, oldOK, edf.Schedulable)
		}
		oldLim, oldErr := a.ResponseTimesFPLimitedCtx(nil)
		newLim, newErr := Analyze(nil, ts, Options{Delay: fns, Method: Algorithm1, Limited: true})
		if (oldErr == nil) != (newErr == nil) {
			t.Fatalf("trial %d: limited wrapper err=%v, Analyze err=%v", trial, oldErr, newErr)
		}
		if oldErr == nil {
			if !sameFloats(oldLim.Response, newLim.Response) ||
				!sameFloats(oldLim.EffectiveC, newLim.EffectiveC) {
				t.Fatalf("trial %d: limited results differ", trial)
			}
		}
	}
}
