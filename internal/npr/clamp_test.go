package npr

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"fnpr/internal/guard"
	"fnpr/internal/task"
)

// clampFixture draws a set for the ClampQ differential: toleranceFixture's
// sets (tied and harmonic periods, D < T, jitter, overloads with negative
// tolerances), one in eight widened past the stack buffers, with each Q
// drawn as 0, a fraction of C, C itself or above C.
func clampFixture(r *rand.Rand) task.Set {
	ts := toleranceFixture(r)
	if r.Intn(8) == 0 {
		n := fpCursorBuf + 1 + r.Intn(8)
		u := 0.3 + 0.7*r.Float64()
		ts = make(task.Set, n)
		for i := range ts {
			period := float64(10 + r.Intn(500))
			ts[i] = task.Task{Name: fmt.Sprintf("t%d", i), C: u / float64(n) * period * (0.5 + r.Float64()), T: period}
		}
		ts.AssignRateMonotonic()
	}
	for i := range ts {
		switch r.Intn(4) {
		case 0:
			ts[i].Q = 0
		case 1:
			ts[i].Q = r.Float64() * ts[i].C
		case 2:
			ts[i].Q = ts[i].C
		default:
			ts[i].Q = ts[i].C * (1 + 2*r.Float64())
		}
	}
	return ts
}

// clampWant is what ClampQ must leave in ts: each Q lowered to AssignQ's
// wherever that is smaller, or AssignQ's error and ts as it was.
func clampWant(ts task.Set, assigned task.Set) task.Set {
	want := ts.Clone()
	if assigned == nil {
		return want
	}
	for i := range want {
		if assigned[i].Q < want[i].Q {
			want[i].Q = assigned[i].Q
		}
	}
	return want
}

// oracleClampSteps counts the guard steps ClampQ's capped FP sweep
// charges: level j, for every task but the last, stops once its slack
// reaches max over k > j of min(Qk, Ck).
func oracleClampSteps(ts task.Set) int64 {
	var steps int64
	for j := 0; j < len(ts)-1; j++ {
		stop := 0.0
		for k := j + 1; k < len(ts); k++ {
			stop = math.Max(stop, math.Min(ts[k].Q, ts[k].C))
		}
		n, _, _, _ := oracleCappedLevel(ts, j, stop)
		steps += n
	}
	return steps
}

// clampStats counts which of its edges a run of clampTrial reached.
type clampStats struct {
	jitter, constrained, tied, qAboveC, qZero, negative, wide, edf, fewer int
}

// clampTrial checks ClampQ on one set under policy p against AssignQCtx:
// every Q bit for bit min(Q, AssignQ's Q), the same error with ts left as
// it was, never more guard steps, and under FP exactly the steps of the
// capped skip rule over the oracle's points.
func clampTrial(t *testing.T, label string, ts task.Set, p Policy, st *clampStats) {
	t.Helper()
	ga, gc := guard.New(nil), guard.New(nil)
	assigned, wantErr := AssignQCtx(ga, ts, p)
	want := clampWant(ts, assigned)
	got := ts.Clone()
	err := ClampQ(gc, got, p)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: ClampQ err %v, AssignQ err %v (set %v)", label, err, wantErr, ts)
	}
	for i := range want {
		if math.Float64bits(got[i].Q) != math.Float64bits(want[i].Q) {
			t.Fatalf("%s: Q[%d] = %v, want %v (AssignQ err %v, set %v)", label, i, got[i].Q, want[i].Q, wantErr, ts)
		}
	}
	if gc.Steps() > ga.Steps() {
		t.Fatalf("%s: ClampQ charged %d steps, AssignQCtx %d (set %v)", label, gc.Steps(), ga.Steps(), ts)
	}
	if p == FixedPriority && ts.Validate() == nil {
		if wantSteps := oracleClampSteps(ts); gc.Steps() != wantSteps {
			t.Fatalf("%s: ClampQ charged %d steps, the capped skip rule %d (set %v)", label, gc.Steps(), wantSteps, ts)
		}
	}
	if st == nil {
		return
	}
	if wantErr != nil {
		st.negative++
	}
	if gc.Steps() < ga.Steps() {
		st.fewer++
	}
	if p == EDF {
		st.edf++
	}
	if len(ts) > fpCursorBuf {
		st.wide++
	}
	periods := map[float64]bool{}
	for _, tk := range ts {
		switch {
		case tk.Jitter > 0:
			st.jitter++
		case tk.D > 0 && tk.D < tk.T:
			st.constrained++
		case periods[tk.T]:
			st.tied++
		}
		periods[tk.T] = true
		if tk.Q > tk.C {
			st.qAboveC++
		}
		if tk.Q == 0 {
			st.qZero++
		}
	}
}

// clampDraw draws one set and checks it under FP and, when the EDF horizon
// is small, under EDF.
func clampDraw(t *testing.T, r *rand.Rand, trial int, st *clampStats) {
	t.Helper()
	ts := clampFixture(r)
	clampTrial(t, fmt.Sprintf("trial %d FP", trial), ts, FixedPriority, st)
	if edfTractable(ts) {
		clampTrial(t, fmt.Sprintf("trial %d EDF", trial), ts, EDF, st)
	}
}

// TestClampQMatchesAssignQ: ClampQ lowers each Q to AssignQ's bit for bit,
// fails exactly where AssignQ fails and then changes nothing, and under FP
// charges exactly the steps of its capped sweep, never more than AssignQCtx.
// The draws must reach every edge: jitter, D < T, tied periods, Q above C
// and Q = 0, negative tolerances, sets past the stack buffers, EDF, and
// levels the cap stops early.
func TestClampQMatchesAssignQ(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	var st clampStats
	for trial := 0; trial < 3000; trial++ {
		clampDraw(t, r, trial, &st)
	}
	if st.jitter == 0 || st.constrained == 0 || st.tied == 0 || st.qAboveC == 0 || st.qZero == 0 ||
		st.negative == 0 || st.wide == 0 || st.edf == 0 || st.fewer == 0 {
		t.Fatalf("draws missed an edge: %+v", st)
	}
}

// FuzzClampQ fuzzes the same differential over the fixture's seed space.
func FuzzClampQ(f *testing.F) {
	for _, seed := range []int64{1, 32, 404, 8191, -5} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		clampDraw(t, rand.New(rand.NewSource(seed)), int(seed), nil)
	})
}

// TestClampQGuardStopsLongSkip: a level that never reaches its cap still
// answers to the guard. τ1's deadline of 1e6 sits above a period of 1e-6,
// so the seeded skip passes about 9e11 points, and the large C of the last
// task keeps the cap above every slack the level reaches; a small budget
// trips at budget+1 steps and a short timeout cancels the sweep.
func TestClampQGuardStopsLongSkip(t *testing.T) {
	ts := prioritySet(
		task.Task{C: 1e-7, T: 1e-6},
		task.Task{C: 1, T: 1e6},
		task.Task{C: 1e6, T: 2e6, Q: 1e6},
	)
	for _, c := range []struct {
		name string
		g    *guard.Ctx
		want error
	}{
		{"budget", guard.New(nil).WithBudget(5000), guard.ErrBudgetExceeded},
		{"timeout", guard.New(nil).WithTimeout(20 * time.Millisecond), guard.ErrCanceled},
	} {
		done := make(chan error, 1)
		go func() { done <- ClampQ(c.g, ts.Clone(), FixedPriority) }()
		select {
		case err := <-done:
			if !errors.Is(err, c.want) {
				t.Fatalf("under a %s: err %v, want %v", c.name, err, c.want)
			}
			if c.want == guard.ErrBudgetExceeded && c.g.Steps() != 5001 {
				t.Fatalf("tripped at %d steps, want 5001", c.g.Steps())
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("under a %s: still running after 10 s", c.name)
		}
	}
}

// TestClampQAllocs pins ClampQ under FP to no allocation up to fpCursorBuf
// tasks: tolerances, caps and cursors sit on the stack, and the set is
// clamped in place.
func TestClampQAllocs(t *testing.T) {
	ts := rmSet10()
	for i := range ts {
		ts[i].Q = ts[i].C / 4
	}
	work := ts.Clone()
	allocs := testing.AllocsPerRun(100, func() {
		copy(work, ts)
		if err := ClampQ(nil, work, FixedPriority); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ClampQ: %v allocs/op, want 0", allocs)
	}
}
