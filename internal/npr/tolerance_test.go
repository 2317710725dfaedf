package npr

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"fnpr/internal/guard"
	"fnpr/internal/task"
)

// The map-and-sort enumerations below are the reference the cursor merge of
// the tolerance sweeps is differentially checked against: the same points in
// the same order, so the same β bits and the same guard steps.

// oracleDeadlines lists the distinct absolute deadlines k*T + D <= limit of
// all tasks, sorted ascending.
func oracleDeadlines(ts task.Set, limit float64) []float64 {
	set := make(map[float64]struct{})
	for _, tk := range ts {
		for d := tk.Deadline(); d <= limit; d += tk.T {
			set[d] = struct{}{}
		}
	}
	out := make([]float64, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Float64s(out)
	return out
}

// oracleSchedulingPoints lists the candidate points for the level-i
// analysis: all multiples of higher-priority periods below limit, plus
// limit itself.
func oracleSchedulingPoints(ts task.Set, i int, limit float64) []float64 {
	set := map[float64]struct{}{limit: {}}
	for j := 0; j < i; j++ {
		for t := ts[j].T; t < limit; t += ts[j].T {
			set[t] = struct{}{}
		}
	}
	out := make([]float64, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Float64s(out)
	return out
}

// oracleEDFTolerance is EDFBlockingTolerance over the materialised
// deadline list: every slack first, then per-task prefix minima.
func oracleEDFTolerance(g *guard.Ctx, ts task.Set) ([]float64, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if len(ts) == 0 {
		return nil, guard.Invalidf("npr: empty task set")
	}
	horizon, err := AnalysisHorizon(ts)
	if err != nil {
		return nil, err
	}
	if err := checkDeadlineBudget(ts, horizon); err != nil {
		return nil, err
	}
	deadlines := oracleDeadlines(ts, horizon)
	slacks := make([]float64, len(deadlines))
	for i, t := range deadlines {
		if err := g.Tick(); err != nil {
			return nil, err
		}
		slacks[i] = t - DemandBound(ts, t)
	}
	out := make([]float64, len(ts))
	for i, tk := range ts {
		m := math.Inf(1)
		for j, t := range deadlines {
			if t >= tk.Deadline() {
				break
			}
			if slacks[j] < m {
				m = slacks[j]
			}
		}
		out[i] = m
	}
	return out, nil
}

// oracleFPTolerance is FPBlockingTolerance over the materialised
// scheduling points.
func oracleFPTolerance(g *guard.Ctx, ts task.Set) ([]float64, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if len(ts) == 0 {
		return nil, guard.Invalidf("npr: empty task set")
	}
	out := make([]float64, len(ts))
	for i, tk := range ts {
		best := math.Inf(-1)
		for _, t := range oracleSchedulingPoints(ts, i, tk.Deadline()) {
			if err := g.Tick(); err != nil {
				return nil, err
			}
			if s := t - RequestBound(ts, i, t); s > best {
				best = s
			}
		}
		out[i] = best
	}
	return out, nil
}

// toleranceFixture draws a priority-sorted set whose point sets exercise
// the merge: equal periods (fully merged progressions), harmonic periods
// (partially merged), non-integral periods, constrained deadlines D < T and
// release jitter, at utilizations from comfortable to overloaded so
// negative tolerances appear too.
func toleranceFixture(r *rand.Rand) task.Set {
	n := 1 + r.Intn(8)
	base := float64(5 + r.Intn(40))
	u := 0.3 + 0.8*r.Float64()
	ts := make(task.Set, n)
	for i := range ts {
		var period float64
		switch r.Intn(4) {
		case 0: // repeat an earlier period
			period = base
			if i > 0 {
				period = ts[r.Intn(i)].T
			}
		case 1: // harmonic with the base
			period = base * float64(int(1)<<r.Intn(4))
		case 2: // integral
			period = float64(5 + r.Intn(300))
		default: // non-integral
			period = 5 + 300*r.Float64()
		}
		c := math.Max(0.01, u/float64(n)*period*(0.5+r.Float64()))
		tk := task.Task{Name: fmt.Sprintf("t%d", i), C: c, T: period}
		if tk.C > period {
			tk.C = period
		}
		if r.Intn(3) == 0 {
			tk.D = tk.C + r.Float64()*(period-tk.C)
		}
		if r.Intn(3) == 0 {
			tk.Jitter = r.Float64() * 0.3 * period
		}
		ts[i] = tk
	}
	ts.AssignRateMonotonic()
	return ts
}

// sameBits reports bitwise equality of two tolerance vectors, so a
// different sign of zero or a different infinity counts as a mismatch.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkToleranceAgainstOracle runs one sweep and its oracle unbudgeted and
// then at the step budgets just below and at the unbudgeted step count, and
// fails unless β matches bit for bit and the budget trips identically.
func checkToleranceAgainstOracle(t *testing.T, label string, ts task.Set, got, want func(*guard.Ctx, task.Set) ([]float64, error)) {
	t.Helper()
	gg, gw := guard.New(nil), guard.New(nil)
	bg, errG := got(gg, ts)
	bw, errW := want(gw, ts)
	if (errG == nil) != (errW == nil) {
		t.Fatalf("%s: err %v, oracle err %v (set %v)", label, errG, errW, ts)
	}
	if errG != nil {
		if errG.Error() != errW.Error() {
			t.Fatalf("%s: err %q, oracle err %q", label, errG, errW)
		}
		return
	}
	if !sameBits(bg, bw) {
		t.Fatalf("%s: β %v, oracle %v (set %v)", label, bg, bw, ts)
	}
	steps := gw.Steps()
	if gg.Steps() != steps {
		t.Fatalf("%s: %d guard steps, oracle %d (set %v)", label, gg.Steps(), steps, ts)
	}
	for _, budget := range []int64{steps - 1, steps} {
		if budget <= 0 {
			continue
		}
		_, errG := got(guard.New(nil).WithBudget(budget), ts)
		_, errW := want(guard.New(nil).WithBudget(budget), ts)
		if errors.Is(errG, guard.ErrBudgetExceeded) != errors.Is(errW, guard.ErrBudgetExceeded) ||
			errors.Is(errG, guard.ErrBudgetExceeded) != (budget < steps) {
			t.Fatalf("%s: budget %d of %d steps: err %v, oracle err %v", label, budget, steps, errG, errW)
		}
	}
}

// edfTractable skips EDF draws whose horizon would make the oracle's
// deadline list (and the test) large; the cap itself is pinned by
// TestDeadlineBudgetGuard.
func edfTractable(ts task.Set) bool {
	h, err := AnalysisHorizon(ts)
	if err != nil {
		return true // both sides fail identically before enumerating
	}
	var points float64
	for _, tk := range ts {
		points += h / tk.T
	}
	return points < 20_000
}

func toleranceTrial(t *testing.T, r *rand.Rand, trial int) {
	t.Helper()
	ts := toleranceFixture(r)
	checkToleranceAgainstOracle(t, fmt.Sprintf("trial %d FP", trial), ts, FPBlockingTolerance, oracleFPTolerance)
	if edfTractable(ts) {
		checkToleranceAgainstOracle(t, fmt.Sprintf("trial %d EDF", trial), ts, EDFBlockingTolerance, oracleEDFTolerance)
	}
}

// TestBlockingToleranceMatchesOracle is the differential guarantee of the
// cursor merge: over random sets with equal and harmonic periods, D < T and
// jitter, both sweeps return the oracle's β bit for bit (negative values
// and +Inf included) and charge the same guard steps.
func TestBlockingToleranceMatchesOracle(t *testing.T) {
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	r := rand.New(rand.NewSource(17))
	var negative, inf int
	for trial := 0; trial < trials; trial++ {
		toleranceTrial(t, r, trial)
	}
	// The fixture must reach the interesting values, or the bitwise check
	// proves less than it claims.
	r = rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		ts := toleranceFixture(r)
		fp, _ := FPBlockingTolerance(nil, ts)
		edf, _ := EDFBlockingTolerance(nil, ts)
		for _, b := range append(fp, edf...) {
			if b < 0 {
				negative++
			}
			if math.IsInf(b, 1) {
				inf++
			}
		}
	}
	if negative == 0 || inf == 0 {
		t.Fatalf("fixture drew %d negative and %d infinite tolerances; want both", negative, inf)
	}
}

// FuzzBlockingTolerance fuzzes the same differential over the fixture's
// seed space.
func FuzzBlockingTolerance(f *testing.F) {
	for _, seed := range []int64{1, 17, 404, 90210, -3} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		toleranceTrial(t, rand.New(rand.NewSource(seed)), int(seed))
	})
}

// TestFPToleranceJitterConservative pins what FPBlockingTolerance's
// scheduling points cover: β is at most the maximum of t − Wi(t) on a
// dense grid of (0, Di] that includes the points themselves, and equals it
// without jitter (the points are then exactly where Wi steps). With jitter
// Wi steps at k·Tj − Jj, between the points, so β can fall short.
func TestFPToleranceJitterConservative(t *testing.T) {
	// With J_a = 1.5, W_b steps from 4 to 5 at 8.5, between b's points 5
	// and D_b = 8.9: β_b = 8.9 − 5 = 3.9 while t − W_b(t) reaches 4.5.
	ts := task.Set{
		{Name: "a", C: 1, T: 5},
		{Name: "b", C: 2, T: 10, D: 8.9},
		{Name: "c", C: 4, T: 20},
	}
	gridMax := func(ts task.Set, i int) float64 {
		lim := ts[i].Deadline()
		best := math.Inf(-1)
		probe := func(x float64) {
			if s := x - RequestBound(ts, i, x); s > best {
				best = s
			}
		}
		for k := 1; k <= 4000; k++ {
			probe(lim * float64(k) / 4000)
		}
		for _, x := range oracleSchedulingPoints(ts, i, lim) {
			probe(x)
		}
		for j := 0; j < i; j++ {
			for k := 1.0; k*ts[j].T-ts[j].Jitter <= lim; k++ {
				if x := k*ts[j].T - ts[j].Jitter; x > 0 {
					probe(x)
				}
			}
		}
		return best
	}
	plain, err := FPBlockingTolerance(nil, ts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ts {
		if m := gridMax(ts, i); plain[i] != m {
			t.Fatalf("J=0: β[%d] = %g, dense max %g", i, plain[i], m)
		}
	}
	jit := ts.Clone()
	jit[0].Jitter = 1.5
	beta, err := FPBlockingTolerance(nil, jit)
	if err != nil {
		t.Fatal(err)
	}
	below := false
	for i := range jit {
		m := gridMax(jit, i)
		if beta[i] > m {
			t.Fatalf("jitter: β[%d] = %g exceeds dense max %g", i, beta[i], m)
		}
		below = below || beta[i] < m
	}
	if !below {
		t.Fatal("jitter: no task's β fell below the dense maximum; the fixture no longer shows the conservative gap")
	}
}

// rmSet10 is a 10-task rate-monotonic set shaped like one acceptance
// trial: integral periods in [20, 2000] at total utilization 0.7.
func rmSet10() task.Set {
	periods := []float64{23, 57, 91, 140, 233, 377, 610, 987, 1597, 1999}
	ts := make(task.Set, len(periods))
	for i, p := range periods {
		ts[i] = task.Task{Name: fmt.Sprintf("t%d", i), C: 0.07 * p, T: p}
	}
	ts.AssignRateMonotonic()
	return ts
}

// TestFPToleranceAllocs pins the sweep's allocations to its output and
// cursor slices (ts.Validate compares names pairwise and allocates nothing).
func TestFPToleranceAllocs(t *testing.T) {
	ts := rmSet10()[:8]
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := FPBlockingTolerance(nil, ts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Fatalf("FPBlockingTolerance: %v allocs/op, want 2 (output and cursors)", allocs)
	}
}

func BenchmarkFPBlockingTolerance(b *testing.B) {
	ts := rmSet10()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FPBlockingTolerance(nil, ts); err != nil {
			b.Fatal(err)
		}
	}
}

// assignQFPFormula is AssignQ(FixedPriority) spelled out over a full
// tolerance vector: Qi = min over j < i of βj, clamped to Ci, an error on a
// negative minimum.
func assignQFPFormula(ts task.Set, tol []float64) (task.Set, error) {
	out := ts.Clone()
	for i := range out {
		q := math.Inf(1)
		for j := 0; j < i; j++ {
			q = math.Min(q, tol[j])
		}
		if q < 0 {
			return nil, guard.Invalidf("npr: task %s faces negative blocking tolerance %g", out[i].Name, q)
		}
		out[i].Q = math.Min(q, out[i].C)
	}
	return out, nil
}

// validateQFPFormula is ValidateQ(FixedPriority) spelled out over a full
// tolerance vector.
func validateQFPFormula(ts task.Set, tol []float64) error {
	for i, tk := range ts {
		for j := 0; j < i; j++ {
			if tk.Q > tol[j]+1e-9 {
				return fmt.Errorf("npr: task %s Q=%g exceeds tolerance %g of higher-priority %s", tk.Name, tk.Q, tol[j], ts[j].Name)
			}
		}
	}
	return nil
}

// TestFPAssignQMatchesFullTolerance: AssignQ and ValidateQ under fixed
// priority skip the lowest-priority task's sweep, yet agree with the formula
// over FPBlockingTolerance's full output — including sets whose skipped
// tolerance is negative — and AssignQCtx charges exactly the steps of the
// sweep over the set without its last task.
func TestFPAssignQMatchesFullTolerance(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	var lastNegative, rejected int
	for trial := 0; trial < 3000; trial++ {
		ts := toleranceFixture(r)
		full, err := FPBlockingTolerance(nil, ts)
		if err != nil {
			t.Fatal(err)
		}
		if full[len(full)-1] < 0 {
			lastNegative++
		}
		want, wantErr := assignQFPFormula(ts, full)
		g := guard.New(nil)
		got, err := AssignQCtx(g, ts, FixedPriority)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("trial %d: AssignQ err %v, formula %v (set %v)", trial, err, wantErr, ts)
		}
		for i := range want {
			if math.Float64bits(got[i].Q) != math.Float64bits(want[i].Q) {
				t.Fatalf("trial %d: Q[%d] = %v, formula %v", trial, i, got[i].Q, want[i].Q)
			}
		}
		var sweepSteps int64
		if len(ts) > 1 {
			sweep := guard.New(nil)
			if _, err := FPBlockingTolerance(sweep, ts[:len(ts)-1]); err != nil {
				t.Fatal(err)
			}
			sweepSteps = sweep.Steps()
		}
		if g.Steps() != sweepSteps {
			t.Fatalf("trial %d: AssignQCtx charged %d steps, sweep without the last task %d", trial, g.Steps(), sweepSteps)
		}
		// ValidateQ on the assigned Qs and on Qs stretched past them.
		probe := want
		if probe == nil {
			probe = ts.Clone()
		}
		for _, stretch := range []float64{1, 1 + r.Float64()} {
			for i := range probe {
				probe[i].Q *= stretch
			}
			wantErr := validateQFPFormula(probe, full)
			if err := ValidateQ(nil, probe, FixedPriority); fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("trial %d: ValidateQ err %v, formula %v (set %v)", trial, err, wantErr, probe)
			}
			if wantErr != nil {
				rejected++
			}
		}
	}
	if lastNegative == 0 || rejected == 0 {
		t.Fatalf("fixture drew %d sets with a negative last tolerance and %d ValidateQ rejections; want both", lastNegative, rejected)
	}
}
