package sim

import (
	"math"
	"strings"
	"testing"

	"fnpr/internal/task"
)

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 3, 2, 4}
	if got := Percentile(v, 0.5); got != 3 {
		t.Fatalf("p50 = %g, want 3", got)
	}
	if got := Percentile(v, 1); got != 5 {
		t.Fatalf("p100 = %g, want 5", got)
	}
	if got := Percentile(v, 0); got != 1 {
		t.Fatalf("p0 = %g, want 1", got)
	}
	if got := Percentile(v, -1); got != 1 {
		t.Fatalf("clamped p = %g, want 1", got)
	}
	if got := Percentile(nil, 0.5); !math.IsNaN(got) {
		t.Fatalf("empty percentile = %g, want NaN", got)
	}
	// Input not mutated.
	if v[0] != 5 {
		t.Fatal("Percentile sorted the caller's slice")
	}
}

func TestResponseTimesAndStats(t *testing.T) {
	ts := task.Set{
		{Name: "hi", C: 2, T: 10, Prio: 0},
		{Name: "lo", C: 12, T: 40, Prio: 1},
	}
	res, err := Run(nil, Config{Tasks: ts, Policy: FixedPriority, Mode: FullyPreemptive, Horizon: 80})
	if err != nil {
		t.Fatal(err)
	}
	rts := res.ResponseTimes(0)
	if len(rts) != 8 {
		t.Fatalf("hi finished %d jobs, want 8", len(rts))
	}
	for _, v := range rts {
		if v != 2 {
			t.Fatalf("hi response %g, want 2", v)
		}
	}
	st := res.Stats(1)
	if st.Count != 2 {
		t.Fatalf("lo stats count = %d, want 2", st.Count)
	}
	if st.Max != 16 || st.Min != 16 {
		t.Fatalf("lo responses [%g,%g], want 16", st.Min, st.Max)
	}
	if st.PreemptionsMean != 1 {
		t.Fatalf("lo mean preemptions = %g, want 1", st.PreemptionsMean)
	}
	if !strings.Contains(st.String(), "p90") {
		t.Fatal("stats rendering broken")
	}
}

func TestStatsCountsUnfinishedMisses(t *testing.T) {
	ts := task.Set{
		{Name: "hog", C: 30, T: 100, Prio: 0},
		{Name: "b", C: 10, T: 100, D: 20, Prio: 1},
	}
	res, err := Run(nil, Config{Tasks: ts, Policy: FixedPriority, Mode: NonPreemptive, Horizon: 25})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats(1)
	if st.UnfinishedAtMiss != 1 {
		t.Fatalf("unfinished misses = %d, want 1", st.UnfinishedAtMiss)
	}
}
