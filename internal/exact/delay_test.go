package exact

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"fnpr/internal/delay"
	"fnpr/internal/guard"
	"fnpr/internal/memo"
	"fnpr/internal/synth"
)

// TestDelayDifferential cross-checks the pruned engine against the naive
// recursive oracle below on random piecewise-constant functions.
// The two agree up to float summation order (the oracle right-associates
// path sums, the engine accumulates left-to-right), hence the tolerance.
func TestDelayDifferential(t *testing.T) {
	for trial := 0; trial < 120; trial++ {
		r := synth.SubRand(42, 0, trial)
		c := 10 + r.Float64()*40
		q := 2 + r.Float64()*10
		maxV := q * (0.2 + r.Float64()*0.7) // keep max f < Q: finite delay
		f := synth.DelayFunction(r, c, maxV, 2+r.Intn(6))

		want := oracle(t, f, q)
		got, err := Delay(nil, f, q, Options{})
		if err != nil {
			t.Fatalf("trial %d: Delay: %v", trial, err)
		}
		tol := 1e-9 * (1 + math.Abs(want))
		if math.Abs(got.Delay-want) > tol {
			t.Fatalf("trial %d: exact=%g oracle=%g (c=%g q=%g)", trial, got.Delay, want, c, q)
		}
	}
}

// oracle is the naive branch-and-bound reference: an exhaustive recursive
// search over the same normalised strike scenarios, with no merging or
// pruning.
func oracle(t *testing.T, f *delay.Piecewise, q float64) float64 {
	t.Helper()
	c := f.Domain()
	starts := f.Breakpoints()
	var search func(e, paid float64) float64
	search = func(e, paid float64) float64 {
		best := 0.0
		try := func(prog float64) {
			if prog >= c-completionTol(c, prog+paid) {
				return
			}
			d := f.Eval(prog)
			if v := d + search(prog+q-d, paid+d); v > best {
				best = v
			}
		}
		try(e)
		for _, s := range starts {
			if s > e && s < c {
				try(s)
			}
		}
		return best
	}
	return search(q, 0)
}

// TestDelayNaiveMatchesPruned asserts bit-identical results between the
// brute-force and the merged/pruned exploration: both accumulate paid delay
// left-to-right over the same emission order, so even the float result is
// byte-equal.
func TestDelayNaiveMatchesPruned(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		r := synth.SubRand(7, 1, trial)
		c := 20 + r.Float64()*30
		q := 3 + r.Float64()*6
		f := synth.DelayFunction(r, c, q*0.8, 2+r.Intn(5))

		pruned, err := Delay(nil, f, q, Options{})
		if err != nil {
			t.Fatalf("pruned: %v", err)
		}
		naive, err := Delay(nil, f, q, Options{Naive: true, MaxStates: -1})
		if err != nil {
			t.Fatalf("naive: %v", err)
		}
		if pruned.Delay != naive.Delay {
			t.Fatalf("trial %d: pruned %v != naive %v", trial, pruned.Delay, naive.Delay)
		}
		if pruned.States > naive.States {
			t.Fatalf("trial %d: pruned expanded more states (%d) than naive (%d)", trial, pruned.States, naive.States)
		}
	}
}

// TestDelayParallelDeterminism asserts that explorations running
// concurrently — one Explorer per goroutine, as the atlas campaign runs them
// — are bit-identical to a serial run, including on reused Explorer slabs.
func TestDelayParallelDeterminism(t *testing.T) {
	r := synth.SubRand(99, 2, 0)
	f := synth.DelayFunction(r, 120, 4.5, 9)
	serial, err := Delay(nil, f, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	got := make([][]DelayResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ex := NewExplorer()
			for rep := 0; rep < 3; rep++ {
				res, err := ex.Delay(nil, f, 5, Options{})
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], res)
			}
		}(w)
	}
	wg.Wait()
	for w, runs := range got {
		for rep, res := range runs {
			if res != serial {
				t.Fatalf("worker %d run %d: %+v != serial %+v", w, rep, res, serial)
			}
		}
	}
}

// TestDelayDivergent covers the max f >= Q unbounded case.
func TestDelayDivergent(t *testing.T) {
	f := delay.Constant(10, 100)
	res, err := Delay(nil, f, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Delay, 1) {
		t.Fatalf("want +Inf, got %v", res.Delay)
	}
}

// TestDelayBudget asserts the typed state-space failure and its unwrapping
// to the guard budget error.
func TestDelayBudget(t *testing.T) {
	r := synth.SubRand(5, 3, 0)
	f := synth.DelayFunction(r, 200, 1.8, 12)
	_, err := Delay(nil, f, 2, Options{MaxStates: 8, Naive: true})
	var sse *StateSpaceError
	if !errors.As(err, &sse) {
		t.Fatalf("want *StateSpaceError, got %v", err)
	}
	if sse.Limit != 8 || sse.States <= 8-1 {
		t.Fatalf("unexpected budget report: %+v", sse)
	}
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("StateSpaceError must unwrap to guard.ErrBudgetExceeded: %v", err)
	}
}

// TestDelayGuard asserts guard cancellation aborts the exploration.
func TestDelayGuard(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := guard.New(ctx)
	r := synth.SubRand(5, 4, 0)
	f := synth.DelayFunction(r, 60, 3, 6)
	if _, err := Delay(g, f, 4, Options{}); !guard.Abortive(err) {
		t.Fatalf("want abortive error, got %v", err)
	}
}

// TestDelayMemo asserts whole-result memoization: second call hits, flags
// Cached, and returns the original counters.
func TestDelayMemo(t *testing.T) {
	cache := memo.New(memo.Options{MaxEntries: 64})
	r := synth.SubRand(11, 5, 0)
	f := synth.DelayFunction(r, 80, 3.5, 7)
	opts := Options{Memo: cache}
	first, err := Delay(nil, f, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first run must be cold")
	}
	second, err := Delay(nil, f, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second run must hit the memo")
	}
	second.Cached = false
	if second != first {
		t.Fatalf("cached result diverged: %+v vs %+v", second, first)
	}
}

// TestDelayValidation covers the input guards.
func TestDelayValidation(t *testing.T) {
	if _, err := Delay(nil, nil, 10, Options{}); err == nil {
		t.Fatal("nil function must fail")
	}
	f := delay.Constant(1, 10)
	for _, q := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := Delay(nil, f, q, Options{}); err == nil {
			t.Fatalf("q=%v must fail", q)
		}
	}
}

// TestDelayZeroAlloc asserts the steady-state exploration on a reused
// Explorer allocates nothing (the sim.Runner discipline) once the slabs
// have grown to the instance size.
func TestDelayZeroAlloc(t *testing.T) {
	r := synth.SubRand(3, 6, 0)
	f := synth.DelayFunction(r, 60, 3, 8)
	ex := NewExplorer()
	if _, err := ex.Delay(nil, f, 4, Options{}); err != nil { // warm the slabs
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ex.Delay(nil, f, 4, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady state allocates %v/op, want 0", allocs)
	}
}

// TestAsPiecewise covers the exact-capable lowering.
func TestAsPiecewise(t *testing.T) {
	p := delay.Constant(1, 10)
	if f, ok := AsPiecewise(p); !ok || f != p {
		t.Fatal("Piecewise must lower to itself")
	}
	ix := delay.NewIndexed(p)
	if f, ok := AsPiecewise(ix); !ok || f != ix.Piecewise() {
		t.Fatal("Indexed must lower to its backing curve")
	}
	pl, err := delay.NewPiecewiseLinear([]float64{0, 10}, []float64{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := AsPiecewise(pl); ok {
		t.Fatal("PiecewiseLinear must not be exact-capable")
	}
}
