package npr_test

import (
	"math/rand"
	"testing"

	"fnpr/internal/npr"
	"fnpr/internal/sched"
	"fnpr/internal/task"
)

// The QPA-style processor-demand walk over npr.DemandBound runs on the EDF
// path of sched.Analyze. These tests check its verdicts from outside the
// sched package: with no delay functions and no NPR lengths the blocking term
// is zero, so the verdict must be the plain EDF demand test dbf(t) <= t.

// qpa is the EDF verdict of sched.Analyze on ts.
func qpa(ts task.Set) (bool, error) {
	res, err := sched.Analyze(nil, ts, sched.Options{Policy: sched.EDF})
	if err != nil {
		return false, err
	}
	return res.Schedulable, nil
}

// exhaustiveEDF checks dbf(t) <= t at every absolute deadline up to the
// analysis horizon, the reference the QPA walk must agree with.
func exhaustiveEDF(ts task.Set) (bool, error) {
	if ts.Utilization() > 1 {
		return false, nil
	}
	horizon, err := npr.AnalysisHorizon(ts)
	if err != nil {
		return false, err
	}
	for _, tk := range ts {
		for d := tk.Deadline(); d <= horizon; d += tk.T {
			if npr.DemandBound(ts, d) > d+1e-9 {
				return false, nil
			}
		}
	}
	return true, nil
}

func TestQPASchedulableSet(t *testing.T) {
	ok, err := qpa(task.Set{
		{Name: "a", C: 1, T: 4},
		{Name: "b", C: 2, T: 8},
		{Name: "c", C: 4, T: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("QPA rejected a schedulable set")
	}
}

func TestQPAOverloadedSet(t *testing.T) {
	ts := task.Set{
		{Name: "a", C: 3, T: 4},
		{Name: "b", C: 2, T: 6},
	}
	ok, err := qpa(ts)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("QPA accepted an overloaded set")
	}
}

func TestQPAConstrainedDeadlineMiss(t *testing.T) {
	// U < 1 but a tight constrained deadline fails the demand test.
	ts := task.Set{
		{Name: "a", C: 2, T: 10, D: 3},
		{Name: "b", C: 2, T: 10, D: 3.5},
	}
	ok, err := qpa(ts)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("QPA accepted a set with infeasible constrained deadlines")
	}
	ref, err := exhaustiveEDF(ts)
	if err != nil {
		t.Fatal(err)
	}
	if ref {
		t.Fatal("reference test disagrees")
	}
}

func TestQPAValidation(t *testing.T) {
	if _, err := qpa(task.Set{}); err == nil {
		t.Fatal("accepted empty set")
	}
	if _, err := qpa(task.Set{{Name: "", C: 1, T: 2}}); err == nil {
		t.Fatal("accepted invalid task")
	}
}

// Property: QPA agrees with the exhaustive processor-demand test on random
// constrained-deadline sets.
func TestQPAMatchesExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(2718))
	agreeSched, agreeUnsched := 0, 0
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(4)
		ts := make(task.Set, 0, n)
		for i := 0; i < n; i++ {
			period := float64(5 * (1 + r.Intn(40)))
			c := 1 + r.Float64()*(period/float64(n))
			d := c + r.Float64()*(period-c)
			ts = append(ts, task.Task{
				Name: string(rune('a' + i)),
				C:    c, T: period, D: d,
			})
		}
		if ts.Utilization() > 0.999 {
			continue
		}
		ref, err := exhaustiveEDF(ts)
		if err != nil {
			continue // horizon budget tripped; skip the comparison
		}
		got, err := qpa(ts)
		if err != nil {
			t.Fatalf("trial %d: QPA error: %v", trial, err)
		}
		if got != ref {
			t.Fatalf("trial %d: QPA=%v, exhaustive=%v for %v", trial, got, ref, ts)
		}
		if ref {
			agreeSched++
		} else {
			agreeUnsched++
		}
	}
	if agreeSched < 20 || agreeUnsched < 20 {
		t.Fatalf("weak coverage: %d schedulable, %d unschedulable agreements", agreeSched, agreeUnsched)
	}
}
