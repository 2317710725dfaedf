package exact

import (
	"errors"
	"math"
	"sync"
	"testing"

	"fnpr/internal/guard"
	"fnpr/internal/memo"
	"fnpr/internal/sim"
	"fnpr/internal/synth"
	"fnpr/internal/task"
)

// twoTaskSet is a hand-checkable NP schedule: A runs [0,2], B blocks A's
// second job until 6, so WCRT(A)=3 via the blocking anomaly and WCRT(B)=6.
func twoTaskSet() task.Set {
	return task.Set{
		{Name: "A", C: 2, T: 5, D: 5, Prio: 0},
		{Name: "B", C: 4, T: 10, D: 10, Prio: 1},
	}
}

func TestSAGHandChecked(t *testing.T) {
	res, err := ResponseTimes(nil, twoTaskSet(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 3 {
		t.Fatalf("hyperperiod window must hold 3 jobs, got %d", res.Jobs)
	}
	if res.WCRT[0] != 3 || res.WCRT[1] != 6 {
		t.Fatalf("WCRT = %v, want [3 6]", res.WCRT)
	}
	if res.BCRT[0] != 2 || res.BCRT[1] != 6 {
		t.Fatalf("BCRT = %v, want [2 6]", res.BCRT)
	}
	if !res.Schedulable {
		t.Fatal("set is schedulable")
	}
	if res.Depth != res.Jobs {
		t.Fatalf("full exploration dispatches every job: depth %d, jobs %d", res.Depth, res.Jobs)
	}
}

// TestSAGJitterIntervals exercises interval states: with release jitter the
// WCRT must not shrink, and the exploration still merges states exactly.
func TestSAGJitterIntervals(t *testing.T) {
	base, err := ResponseTimes(nil, twoTaskSet(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	js := twoTaskSet()
	js[1].Jitter = 1
	jit, err := ResponseTimes(nil, js, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.WCRT {
		if jit.WCRT[i] < base.WCRT[i]-1e-12 {
			t.Fatalf("task %d: jitter reduced WCRT %g -> %g", i, base.WCRT[i], jit.WCRT[i])
		}
	}
}

// TestSAGNaiveMatchesMerged asserts the interval-merged exploration returns
// the same response times as the brute-force enumeration, bit-identically,
// while expanding no more states.
func TestSAGNaiveMatchesMerged(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		ts := randomNPSet(t, 21, trial)
		merged, err := ResponseTimes(nil, ts, Options{})
		if err != nil {
			t.Fatalf("trial %d merged: %v", trial, err)
		}
		naive, err := ResponseTimes(nil, ts, Options{Naive: true, MaxStates: -1})
		if err != nil {
			t.Fatalf("trial %d naive: %v", trial, err)
		}
		for i := range merged.WCRT {
			if merged.WCRT[i] != naive.WCRT[i] || merged.BCRT[i] != naive.BCRT[i] {
				t.Fatalf("trial %d task %d: merged (%g,%g) != naive (%g,%g)",
					trial, i, merged.WCRT[i], merged.BCRT[i], naive.WCRT[i], naive.BCRT[i])
			}
		}
		if merged.States > naive.States {
			t.Fatalf("trial %d: merged expanded more states (%d) than naive (%d)", trial, merged.States, naive.States)
		}
	}
}

// TestSAGParallelDeterminism asserts that schedule-graph explorations
// running concurrently are bit-identical to a serial run.
func TestSAGParallelDeterminism(t *testing.T) {
	ts := randomNPSet(t, 33, 4)
	ts[0].Jitter = 0.5
	serial, err := ResponseTimes(nil, ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	results := make([]*SAGResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = ResponseTimes(nil, ts, Options{})
		}(w)
	}
	wg.Wait()
	for w, par := range results {
		if err := errs[w]; err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
		if par.States != serial.States || par.Merges != serial.Merges ||
			par.Prunes != serial.Prunes || par.PeakFrontier != serial.PeakFrontier {
			t.Fatalf("worker %d: counters diverged: %+v vs %+v", w, par, serial)
		}
		for i := range serial.WCRT {
			if par.WCRT[i] != serial.WCRT[i] || par.BCRT[i] != serial.BCRT[i] {
				t.Fatalf("worker %d task %d: (%g,%g) != (%g,%g)",
					w, i, par.WCRT[i], par.BCRT[i], serial.WCRT[i], serial.BCRT[i])
			}
		}
	}
}

// TestSAGSimCrossCheck: a concrete synchronous zero-jitter full-WCET
// schedule is one scenario of the graph, so the simulator's observed
// response times never exceed the SAG worst case.
func TestSAGSimCrossCheck(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		ts := randomNPSet(t, 77, trial)
		res, err := ResponseTimes(nil, ts, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		h, _ := ts.Hyperperiod()
		simRes, err := sim.Run(nil, sim.Config{
			Tasks: ts, Policy: sim.FixedPriority, Mode: sim.NonPreemptive,
			Horizon: h,
		})
		if err != nil {
			t.Fatalf("trial %d sim: %v", trial, err)
		}
		for i, st := range simRes.Tasks {
			if st.Finished > 0 && st.MaxResponse > res.WCRT[i]+1e-9 {
				t.Fatalf("trial %d task %d: simulated response %g exceeds exact WCRT %g",
					trial, i, st.MaxResponse, res.WCRT[i])
			}
		}
	}
}

// TestSAGBudget asserts the typed state-space failure.
func TestSAGBudget(t *testing.T) {
	ts := randomNPSet(t, 9, 0)
	ts[0].Jitter = 1
	_, err := ResponseTimes(nil, ts, Options{MaxStates: 2, Naive: true})
	var sse *StateSpaceError
	if !errors.As(err, &sse) {
		t.Fatalf("want *StateSpaceError, got %v", err)
	}
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("must unwrap to ErrBudgetExceeded: %v", err)
	}
}

// TestSAGMemo asserts whole-result memoization keyed on the task set and
// horizon.
func TestSAGMemo(t *testing.T) {
	cache := memo.New(memo.Options{MaxEntries: 64})
	ts := twoTaskSet()
	opts := Options{Memo: cache}
	first, err := ResponseTimes(nil, ts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first run must be cold")
	}
	second, err := ResponseTimes(nil, ts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second run must hit the memo")
	}
	if second.WCRT[0] != first.WCRT[0] || second.WCRT[1] != first.WCRT[1] {
		t.Fatalf("cached result diverged: %v vs %v", second.WCRT, first.WCRT)
	}
	// A changed WCET must miss (content addressing).
	ts2 := twoTaskSet()
	ts2[1].C = 3
	third, err := ResponseTimes(nil, ts2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("different set must not hit")
	}
}

// TestSAGValidation covers the input guards.
func TestSAGValidation(t *testing.T) {
	if _, err := ResponseTimes(nil, task.Set{}, Options{}); err == nil {
		t.Fatal("empty set must fail")
	}
	ts := twoTaskSet()
	if _, err := ResponseTimes(nil, ts, Options{Horizon: math.Inf(1)}); err == nil {
		t.Fatal("infinite horizon must fail")
	}
	if res, err := ResponseTimes(nil, ts, Options{Horizon: 3}); err != nil || res.Jobs != 2 {
		t.Fatalf("sub-period horizon releases one job per task: %v %+v", err, res)
	}
	odd := task.Set{{Name: "x", C: 1, T: math.Pi * 10, D: math.Pi * 10}}
	if _, err := ResponseTimes(nil, odd, Options{}); err == nil {
		t.Fatal("irrational hyperperiod without explicit horizon must fail")
	}
	if res, err := ResponseTimes(nil, odd, Options{Horizon: math.Pi * 10}); err != nil || res.Jobs != 1 {
		t.Fatalf("explicit horizon must work: %v %+v", err, res)
	}
}

// TestSAGUnschedulable covers the deadline verdict.
func TestSAGUnschedulable(t *testing.T) {
	ts := task.Set{
		{Name: "A", C: 3, T: 5, D: 5, Prio: 0},
		{Name: "B", C: 4, T: 10, D: 6, Prio: 1},
	}
	res, err := ResponseTimes(nil, ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedulable {
		t.Fatalf("B's WCRT %g cannot meet D=6", res.WCRT[1])
	}
}

// randomNPSet builds a small priority-ordered task set with integral
// periods (so the hyperperiod exists) and modest utilization.
func randomNPSet(t *testing.T, seed int64, trial int) task.Set {
	t.Helper()
	r := synth.SubRand(seed, 0, trial)
	periods := []float64{4, 5, 8, 10, 16, 20}
	n := 2 + r.Intn(3)
	ts := make(task.Set, 0, n)
	for i := 0; i < n; i++ {
		T := periods[r.Intn(len(periods))]
		c := 0.25 + r.Float64()*(T*0.2)
		ts = append(ts, task.Task{
			Name: string(rune('a' + i)), C: c, T: T, D: T, Prio: i,
		})
	}
	if err := ts.Validate(); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	return ts
}
