package npr

import (
	"math"
	"math/rand"
	"testing"

	"fnpr/internal/task"
)

func implicitSet() task.Set {
	return task.Set{
		{Name: "a", C: 1, T: 4},
		{Name: "b", C: 2, T: 8},
		{Name: "c", C: 4, T: 16},
	}
}

func TestDemandBound(t *testing.T) {
	ts := implicitSet()
	if got := DemandBound(ts, 0); got != 0 {
		t.Fatalf("dbf(0) = %g, want 0", got)
	}
	if got := DemandBound(ts, 4); got != 1 {
		t.Fatalf("dbf(4) = %g, want 1", got)
	}
	if got := DemandBound(ts, 8); got != 4 {
		t.Fatalf("dbf(8) = %g, want 4", got)
	}
	// t=16: a: floor(12/4)+1 = 4 jobs -> 4; b: floor(8/8)+1 = 2 -> 4;
	// c: floor(0/16)+1 = 1 -> 4. Total 12.
	if got := DemandBound(ts, 16); got != 12 {
		t.Fatalf("dbf(16) = %g, want 12", got)
	}
}

func TestDemandBoundMonotone(t *testing.T) {
	ts := implicitSet()
	r := rand.New(rand.NewSource(1))
	prevT, prevD := 0.0, 0.0
	for i := 0; i < 200; i++ {
		tt := prevT + r.Float64()*3
		d := DemandBound(ts, tt)
		if d < prevD {
			t.Fatalf("dbf not monotone: dbf(%g)=%g < dbf(%g)=%g", tt, d, prevT, prevD)
		}
		prevT, prevD = tt, d
	}
}

func TestAnalysisHorizon(t *testing.T) {
	ts := implicitSet() // U = 0.25+0.25+0.25 = 0.75
	h, err := AnalysisHorizon(ts)
	if err != nil {
		t.Fatal(err)
	}
	if h < 16 {
		t.Fatalf("horizon %g below largest deadline", h)
	}
	over := task.Set{{Name: "x", C: 10, T: 8}}
	if _, err := AnalysisHorizon(over); err == nil {
		t.Fatal("accepted overutilized set")
	}
}

func TestAnalysisHorizonFullUtilizationIntegral(t *testing.T) {
	ts := task.Set{{Name: "a", C: 2, T: 4}, {Name: "b", C: 4, T: 8}}
	h, err := AnalysisHorizon(ts)
	if err != nil {
		t.Fatal(err)
	}
	if h < 8 {
		t.Fatalf("horizon %g too small", h)
	}
}

func TestEDFBlockingTolerance(t *testing.T) {
	ts := implicitSet()
	tol, err := EDFBlockingTolerance(nil, ts)
	if err != nil {
		t.Fatal(err)
	}
	// Task a (D=4): no earlier deadline exists -> +Inf.
	if !math.IsInf(tol[0], 1) {
		t.Fatalf("tol[a] = %g, want +Inf", tol[0])
	}
	// Task b (D=8): earliest deadline is 4 with slack 4 - dbf(4) = 3.
	if tol[1] != 3 {
		t.Fatalf("tol[b] = %g, want 3", tol[1])
	}
	// Task c (D=16): deadlines 4 (slack 3), 8 (slack 4), 12 (slack 9).
	if tol[2] != 3 {
		t.Fatalf("tol[c] = %g, want 3", tol[2])
	}
}

func TestEDFBlockingToleranceRejectsInvalid(t *testing.T) {
	if _, err := EDFBlockingTolerance(nil, task.Set{}); err == nil {
		t.Fatal("accepted empty set")
	}
	if _, err := EDFBlockingTolerance(nil, task.Set{{Name: "", C: 1, T: 2}}); err == nil {
		t.Fatal("accepted invalid task")
	}
}

func TestRequestBound(t *testing.T) {
	ts := implicitSet()
	ts.AssignRateMonotonic()
	// Level 2 (task c) at t=16: own C 4 + a: ceil(16/4)*1 = 4 + b:
	// ceil(16/8)*2 = 4 -> 12.
	if got := RequestBound(ts, 2, 16); got != 12 {
		t.Fatalf("W_2(16) = %g, want 12", got)
	}
	// Level 0 at any t is its own C.
	if got := RequestBound(ts, 0, 3); got != 1 {
		t.Fatalf("W_0(3) = %g, want 1", got)
	}
}

func TestFPBlockingTolerance(t *testing.T) {
	ts := implicitSet()
	ts.AssignRateMonotonic()
	tol, err := fpTolerance(nil, ts)
	if err != nil {
		t.Fatal(err)
	}
	// Task a: max over (0,4] of t - 1 -> 3 at t=4.
	if tol[0] != 3 {
		t.Fatalf("tol[a] = %g, want 3", tol[0])
	}
	// Task b: points 4, 8: 4 - (2 + 1*1) = 1; 8 - (2 + 2*1) = 4.
	if tol[1] != 4 {
		t.Fatalf("tol[b] = %g, want 4", tol[1])
	}
	// Task c: points 4: 4-(4+1+2)=-3; 8: 8-(4+2+2)=0; 12: 12-(4+3+4)=1;
	// 16: 16-(4+4+4)=4.
	if tol[2] != 4 {
		t.Fatalf("tol[c] = %g, want 4", tol[2])
	}
}

func TestFPBlockingToleranceUnschedulable(t *testing.T) {
	ts := task.Set{
		{Name: "a", C: 3, T: 4, Prio: 0},
		{Name: "b", C: 3, T: 8, D: 6, Prio: 1},
	}
	tol, err := fpTolerance(nil, ts)
	if err != nil {
		t.Fatal(err)
	}
	// Task b: points 4: 4-(3+3)=-2; 6: 6-(3+2*3)=-3 -> best -2 < 0.
	if tol[1] >= 0 {
		t.Fatalf("tol[b] = %g, want negative", tol[1])
	}
}

func TestAssignQEDF(t *testing.T) {
	ts := implicitSet()
	qs, err := AssignQ(ts, EDF)
	if err != nil {
		t.Fatal(err)
	}
	// Task a: earliest deadline, its NPR can block nobody with an
	// earlier deadline -> tolerance +Inf, clamped to C = 1.
	if qs[0].Q != 1 {
		t.Fatalf("Q[a] = %g, want 1 (clamped to C)", qs[0].Q)
	}
	// Task b: must protect deadline 4 (slack 3) -> Q = min(3, C=2) = 2.
	if qs[1].Q != 2 {
		t.Fatalf("Q[b] = %g, want 2", qs[1].Q)
	}
	// Task c: deadlines 4 (slack 3), 8 (slack 4), 12 (slack 7) -> 3.
	if qs[2].Q != 3 {
		t.Fatalf("Q[c] = %g, want 3", qs[2].Q)
	}
	checkConsistency(t, ts, qs)
}

// checkConsistency verifies structural invariants of AssignQ output.
func checkConsistency(t *testing.T, in, out task.Set) {
	t.Helper()
	if len(in) != len(out) {
		t.Fatal("AssignQ changed set size")
	}
	for i := range out {
		if out[i].Q < 0 || out[i].Q > out[i].C {
			t.Fatalf("Q[%s] = %g outside [0, C=%g]", out[i].Name, out[i].Q, out[i].C)
		}
		if out[i].Name != in[i].Name || out[i].C != in[i].C || out[i].T != in[i].T {
			t.Fatal("AssignQ mutated task parameters")
		}
	}
}

func TestAssignQFP(t *testing.T) {
	ts := implicitSet()
	ts.AssignRateMonotonic()
	qs, err := AssignQ(ts, FixedPriority)
	if err != nil {
		t.Fatal(err)
	}
	// Highest priority: Q = C (nobody above to block).
	if qs[0].Q != qs[0].C {
		t.Fatalf("Q[hi] = %g, want C=%g", qs[0].Q, qs[0].C)
	}
	// b: blocks only a (tol 3) -> Q = min(3, C=2) = 2.
	if qs[1].Q != 2 {
		t.Fatalf("Q[b] = %g, want 2", qs[1].Q)
	}
	// c: blocks a (3) and b (4) -> 3, clamped by C=4 -> 3.
	if qs[2].Q != 3 {
		t.Fatalf("Q[c] = %g, want 3", qs[2].Q)
	}
	checkConsistency(t, ts, qs)
}

func TestAssignQUnknownPolicy(t *testing.T) {
	if _, err := AssignQ(implicitSet(), Policy(42)); err == nil {
		t.Fatal("accepted unknown policy")
	}
}

func TestAssignQUnschedulable(t *testing.T) {
	ts := task.Set{
		{Name: "a", C: 3, T: 4, Prio: 0},
		{Name: "b", C: 3, T: 8, D: 6, Prio: 1},
		{Name: "c", C: 1, T: 50, Prio: 2},
	}
	if _, err := AssignQ(ts, FixedPriority); err == nil {
		t.Fatal("accepted set with negative tolerance")
	}
}

func TestPolicyString(t *testing.T) {
	if EDF.String() != "EDF" || FixedPriority.String() != "FP" {
		t.Fatal("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy has empty name")
	}
}

// randomSchedulableSet builds a random implicit-deadline set with total
// utilization below cap and integral periods.
func randomSchedulableSet(r *rand.Rand, n int, cap float64) task.Set {
	ts := make(task.Set, 0, n)
	for i := 0; i < n; i++ {
		period := float64(4 * (1 + r.Intn(32)))
		c := 1 + r.Float64()*(period*cap/float64(n)-1)
		if c < 0.5 {
			c = 0.5
		}
		ts = append(ts, task.Task{
			Name: string(rune('a' + i)),
			C:    c,
			T:    period,
		})
	}
	return ts
}

// Property: AssignQ(EDF) yields Q values that keep every deadline's dbf
// slack at least as large as the largest Q of any later-deadline task —
// the Bertogna-Baruah schedulability condition for floating NPRs.
func TestAssignQEDFSoundSlack(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		ts := randomSchedulableSet(r, 2+r.Intn(4), 0.8)
		if ts.Utilization() >= 1 {
			continue
		}
		qs, err := AssignQ(ts, EDF)
		if err != nil {
			continue // negative tolerance: skip unschedulable draws
		}
		horizon, err := AnalysisHorizon(qs)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range oracleDeadlines(qs, horizon) {
			slack := d - DemandBound(qs, d)
			var blocking float64
			for _, tk := range qs {
				if tk.Deadline() > d && tk.Q > blocking {
					blocking = tk.Q
				}
			}
			if blocking > slack+1e-9 {
				t.Fatalf("trial %d: deadline %g slack %g below blocking %g (set %v)",
					trial, d, slack, blocking, qs)
			}
		}
	}
}

// Property: AssignQ(FP) yields Q values no larger than every higher-priority
// task's tolerance, so each task remains schedulable under the level-i test
// with the blocking its lower-priority tasks can impose.
func TestAssignQFPSound(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		ts := randomSchedulableSet(r, 2+r.Intn(4), 0.7)
		ts.AssignRateMonotonic()
		qs, err := AssignQ(ts, FixedPriority)
		if err != nil {
			continue
		}
		tol, err := fpTolerance(nil, ts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range qs {
			var maxLowerQ float64
			for j := i + 1; j < len(qs); j++ {
				if qs[j].Q > maxLowerQ {
					maxLowerQ = qs[j].Q
				}
			}
			if maxLowerQ > tol[i]+1e-9 {
				t.Fatalf("trial %d: task %d tolerance %g exceeded by lower-priority Q %g",
					trial, i, tol[i], maxLowerQ)
			}
		}
	}
}

func TestDeadlineBudgetGuard(t *testing.T) {
	// Utilization extremely close to 1 with a tiny period creates a
	// gigantic horizon; the analysis must fail loudly, not blow memory.
	ts := task.Set{
		{Name: "a", C: 0.9999999, T: 1},
		{Name: "b", C: 0.00000005, T: 1e9},
	}
	if _, err := EDFBlockingTolerance(nil, ts); err == nil {
		t.Fatal("accepted pathological horizon")
	}
}
