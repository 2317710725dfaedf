package npr

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"fnpr/internal/guard"
	"fnpr/internal/task"
)

// The map-and-sort enumerations below are the reference the cursor merge of
// the tolerance sweeps is differentially checked against: the same points in
// the same order, so the same β bits. The EDF sweep evaluates every point,
// so it also charges the oracle's guard steps; the FP sweep evaluates only
// the points its seeded skip keeps and charges each skip its longest cursor
// run, which oracleFPSkipSteps counts over the same materialised list.

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

// oracleSkipLevel applies the FP sweep's skip rule to level i's
// materialised scheduling points: Di first, then each point t < Di in
// ascending order, except those with t − w ≤ best, where w is Wi at the
// last evaluated point and best the largest slack so far (the first point
// is always evaluated). It returns the guard steps the sweep charges (one
// per evaluated point, and per run of skipped points the most of them that
// are multiples of one higher-priority period, its longest cursor run), the
// index of the point where β is attained (the first maximum, as the sweep's
// strict > keeps it), the number of points, and the longest run of skipped
// points before that index.
func oracleSkipLevel(ts task.Set, i int) (steps int64, argmax, points, run int) {
	return oracleCappedLevel(ts, i, math.Inf(1))
}

// oracleCappedLevel is oracleSkipLevel for a level that stops as soon as
// its best slack reaches stop, as ClampQ's capped sweep does: the steps
// count up to and including the evaluated point that reaches it.
func oracleCappedLevel(ts task.Set, i int, stop float64) (steps int64, argmax, points, run int) {
	limit := ts[i].Deadline()
	pts := oracleSchedulingPoints(ts, i, limit)
	top := math.Inf(-1)
	for k, t := range pts {
		if s := t - RequestBound(ts, i, t); s > top {
			top, argmax = s, k
		}
	}
	// multiple[j] holds the points the cursor of task j passes through.
	multiple := make([]map[float64]bool, i)
	for j := range multiple {
		multiple[j] = make(map[float64]bool)
		for t := ts[j].T; t < limit; t += ts[j].T {
			multiple[j][t] = true
		}
	}
	perCursor := make([]int64, i) // the current run's points per cursor
	endRun := func() {
		steps += slices.Max(append(perCursor, 0))
		clear(perCursor)
	}
	best := limit - RequestBound(ts, i, limit)
	steps = 1
	w, evaluated, cur := 0.0, 1, 0
	for k, t := range pts[:len(pts)-1] { // the last point is Di
		if best >= stop {
			return steps, argmax, len(pts), run
		}
		if evaluated > 1 && t-w <= best {
			if k < argmax {
				cur++
				run = max(run, cur)
			}
			for j := range perCursor {
				if multiple[j][t] {
					perCursor[j]++
				}
			}
			continue
		}
		endRun()
		evaluated++
		steps++
		cur = 0
		w = RequestBound(ts, i, t)
		if s := t - w; s > best {
			best = s
		}
	}
	endRun()
	return steps, argmax, len(pts), run
}

// oracleFPSkipSteps counts the guard steps FPBlockingTolerance charges over
// all levels.
func oracleFPSkipSteps(ts task.Set) int64 {
	var steps int64
	for i := range ts {
		n, _, _, _ := oracleSkipLevel(ts, i)
		steps += n
	}
	return steps
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

// checkToleranceAgainstOracle runs one sweep and its oracle unbudgeted, and
// fails unless β matches bit for bit, the sweep charges no more guard steps
// than the oracle, and a budget of the sweep's own steps − 1 trips it while
// its own steps do not. It returns the sweep's steps and the oracle's, for
// the callers to pin exactly.
func checkToleranceAgainstOracle(t *testing.T, label string, ts task.Set, got, want func(*guard.Ctx, task.Set) ([]float64, error)) (steps, oracleSteps int64) {
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
		return gg.Steps(), gw.Steps()
	}
	if !sameBits(bg, bw) {
		t.Fatalf("%s: β %v, oracle %v (set %v)", label, bg, bw, ts)
	}
	steps, oracleSteps = gg.Steps(), gw.Steps()
	if steps > oracleSteps {
		t.Fatalf("%s: %d guard steps, more than the oracle's %d (set %v)", label, steps, oracleSteps, ts)
	}
	for _, budget := range []int64{steps - 1, steps} {
		if budget <= 0 {
			continue
		}
		_, err := got(guard.New(nil).WithBudget(budget), ts)
		if errors.Is(err, guard.ErrBudgetExceeded) != (budget < steps) {
			t.Fatalf("%s: budget %d of %d steps: err %v", label, budget, steps, err)
		}
	}
	return steps, oracleSteps
}

// checkFPSweep is the FP differential: β bit for bit against the full
// enumeration, and exactly the guard steps of the skip rule over it.
func checkFPSweep(t *testing.T, label string, ts task.Set) {
	t.Helper()
	// Zero steps: the set failed validation, identically on both sides.
	if steps, _ := checkToleranceAgainstOracle(t, label, ts, FPBlockingTolerance, oracleFPTolerance); steps != 0 {
		if want := oracleFPSkipSteps(ts); steps != want {
			t.Fatalf("%s: %d guard steps, skip rule over the oracle's points %d (set %v)", label, steps, want, ts)
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
	checkFPSweep(t, fmt.Sprintf("trial %d FP", trial), ts)
	if edfTractable(ts) {
		label := fmt.Sprintf("trial %d EDF", trial)
		if steps, want := checkToleranceAgainstOracle(t, label, ts, EDFBlockingTolerance, oracleEDFTolerance); steps != want {
			t.Fatalf("%s: %d guard steps, oracle %d (set %v)", label, steps, want, ts)
		}
	}
}

// TestBlockingToleranceMatchesOracle is the differential guarantee of the
// cursor merge and the FP skip: over random sets with equal and harmonic
// periods, D < T and jitter, both sweeps return the oracle's β bit for bit
// (negative values and +Inf included); the EDF sweep charges the oracle's
// guard steps and the FP sweep those of its skip rule.
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

// prioritySet names and prioritises the tasks in the order given.
func prioritySet(tasks ...task.Task) task.Set {
	ts := task.Set(tasks)
	for i := range ts {
		ts[i].Name, ts[i].Prio = fmt.Sprintf("t%d", i), i
	}
	return ts
}

// TestFPToleranceSkipCases runs the FP differential on hand-built sets at
// the seeded skip's edges, and checks that each set still shows the edge it
// is named for: β attained at the first point, at Di, or after a long run
// of skipped points; utilization near 1; accumulated non-integral multiples
// one ulp away from another progression's point; and more tasks than the
// cursor stack buffer holds.
func TestFPToleranceSkipCases(t *testing.T) {
	ulpSet := prioritySet(
		task.Task{C: 0.02, T: 0.1},
		task.Task{C: 0.05, T: 0.3},
		task.Task{C: 0.1, T: 0.7},
		task.Task{C: 0.3, T: 2.1, D: 1.9},
	)
	var wide task.Set
	for k := 0; k < fpCursorBuf+4; k++ {
		wide = append(wide, task.Task{C: 0.04 * float64(10+3*k), T: float64(10 + 3*k)})
	}
	wide = prioritySet(wide...)
	near1 := prioritySet(
		task.Task{C: 0.24975 * 7, T: 7},
		task.Task{C: 0.24975 * 11, T: 11},
		task.Task{C: 0.24975 * 13, T: 13},
		task.Task{C: 0.24975 * 17, T: 17},
	)
	cases := []struct {
		name  string
		ts    task.Set
		check func(argmax, points, run int) bool
	}{
		{"max at the first point", prioritySet(
			task.Task{C: 3, T: 4},
			task.Task{C: 2, T: 5},
			task.Task{C: 0.5, T: 20},
		), func(argmax, _, _ int) bool { return argmax == 0 }},
		{"max at the deadline", prioritySet(
			task.Task{C: 1, T: 5},
			task.Task{C: 2, T: 20},
		), func(argmax, points, _ int) bool { return argmax == points-1 }},
		{"max after a long skipped run", prioritySet(
			task.Task{C: 0.5, T: 1},
			task.Task{C: 40, T: 100},
			task.Task{C: 5, T: 98},
			task.Task{C: 1, T: 99},
		), func(argmax, points, run int) bool { return argmax < points-1 && run >= 20 }},
		{"utilization near 1", near1, func(int, int, int) bool { return near1.Utilization() > 0.99 }},
		{"multiples an ulp apart", ulpSet, func(int, int, int) bool {
			pts := oracleSchedulingPoints(ulpSet, len(ulpSet)-1, ulpSet[len(ulpSet)-1].Deadline())
			for k := 1; k < len(pts); k++ {
				if math.Nextafter(pts[k-1], math.Inf(1)) == pts[k] {
					return true
				}
			}
			return false
		}},
		{"more tasks than the cursor buffer", wide, func(int, int, int) bool { return len(wide) > fpCursorBuf }},
	}
	for _, c := range cases {
		if err := c.ts.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, argmax, points, run := oracleSkipLevel(c.ts, len(c.ts)-1); !c.check(argmax, points, run) {
			t.Fatalf("%s: the set no longer shows its edge (β at point %d of %d, longest skipped run %d)", c.name, argmax, points, run)
		}
		checkFPSweep(t, c.name, c.ts)
	}
}

// TestSkipPointsStopsAtFirstCandidate: skipPoints moves each cursor along
// its own progression past exactly the points below the deadline whose
// bound t − w is at most best, and stops at the first other point, never
// beyond, however far past the deadline best + w reaches. It charges the
// guard one step per point of the longest cursor run.
func TestSkipPointsStopsAtFirstCandidate(t *testing.T) {
	// A point whose bound equals best cannot raise it either: 2 − 0.5 is
	// skipped with 1, and the cursor stops at 3.
	next := []float64{1}
	if err := skipPoints(nil, prioritySet(task.Task{C: 0.1, T: 1}), next, 10, 0.5, 1.5); err != nil || next[0] != 3 {
		t.Fatalf("skip from 1 (T 1, w 0.5, best 1.5): cursor at %v, err %v; want 3", next[0], err)
	}
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 2000; trial++ {
		ts := toleranceFixture(r)
		limit := ts[len(ts)-1].Deadline() * (0.5 + r.Float64())
		w := r.Float64() * limit
		best := (3*r.Float64() - 1) * limit
		before := make([]float64, len(ts))
		for j := range before {
			before[j] = ts[j].T * float64(1+r.Intn(3))
		}
		after := append([]float64(nil), before...)
		g := guard.New(nil)
		if err := skipPoints(g, ts, after, limit, w, best); err != nil {
			t.Fatal(err)
		}
		var longest int64
		for j, c := range before {
			var n int64
			for ; c < after[j]; n++ {
				if !(c < limit && c-w <= best) {
					t.Fatalf("trial %d: cursor %d moved past %v (limit %v, w %v, best %v) to %v", trial, j, c, limit, w, best, after[j])
				}
				c += ts[j].T
			}
			if c != after[j] {
				t.Fatalf("trial %d: cursor %d left its progression: %v, not %v", trial, j, after[j], c)
			}
			if c < limit && c-w <= best {
				t.Fatalf("trial %d: cursor %d stopped at %v, which cannot raise best (limit %v, w %v, best %v)", trial, j, c, limit, w, best)
			}
			longest = max(longest, n)
		}
		if g.Steps() != longest {
			t.Fatalf("trial %d: %d guard steps, longest cursor run %d", trial, g.Steps(), longest)
		}
	}
}

// TestFPToleranceGuardStopsLongSkip: a level whose seed lets the skip pass
// about 9e11 points of a tiny period (τ0 below, under τ1's deadline of 1e6)
// still answers to the guard, through FPBlockingTolerance and AssignQCtx
// alike: a small budget trips at budget+1 steps and a short timeout cancels
// the sweep, both promptly.
func TestFPToleranceGuardStopsLongSkip(t *testing.T) {
	ts := prioritySet(
		task.Task{C: 1e-7, T: 1e-6},
		task.Task{C: 1, T: 1e6},
		task.Task{C: 1, T: 2e6},
	)
	sweeps := []struct {
		name string
		run  func(*guard.Ctx) error
	}{
		{"FPBlockingTolerance", func(g *guard.Ctx) error {
			_, err := FPBlockingTolerance(g, ts)
			return err
		}},
		{"AssignQCtx", func(g *guard.Ctx) error {
			_, err := AssignQCtx(g, ts, FixedPriority)
			return err
		}},
	}
	for _, sw := range sweeps {
		for _, c := range []struct {
			name string
			g    *guard.Ctx
			want error
		}{
			{"budget", guard.New(nil).WithBudget(5000), guard.ErrBudgetExceeded},
			{"timeout", guard.New(nil).WithTimeout(20 * time.Millisecond), guard.ErrCanceled},
		} {
			done := make(chan error, 1)
			go func() { done <- sw.run(c.g) }()
			select {
			case err := <-done:
				if !errors.Is(err, c.want) {
					t.Fatalf("%s under a %s: err %v, want %v", sw.name, c.name, err, c.want)
				}
				if c.want == guard.ErrBudgetExceeded && c.g.Steps() != 5001 {
					t.Fatalf("%s: tripped at %d steps, want 5001", sw.name, c.g.Steps())
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s under a %s: still running after 10 s", sw.name, c.name)
			}
		}
	}
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

// TestFPToleranceAllocs pins the sweep's allocations to its output slice:
// the cursors sit in a stack buffer up to fpCursorBuf tasks, and
// ts.Validate compares names pairwise and allocates nothing.
func TestFPToleranceAllocs(t *testing.T) {
	ts := rmSet10()[:8]
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := FPBlockingTolerance(nil, ts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("FPBlockingTolerance: %v allocs/op, want 1 (output)", allocs)
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
