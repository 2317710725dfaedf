package core

import (
	"testing"

	"fnpr/internal/delay"
	"fnpr/internal/obs"
)

func walkTestFn(t testing.TB) *delay.Piecewise {
	t.Helper()
	p, err := delay.NewPiecewise(
		[]float64{0, 30, 80, 150, 200},
		[]float64{2, 6, 1, 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestUpperBoundZeroAlloc pins the tentpole's allocation contract: the
// traceless Algorithm 1 walk performs no heap allocations per run, on both
// the scan and the indexed kernel.
func TestUpperBoundZeroAlloc(t *testing.T) {
	p := walkTestFn(t)
	for _, tc := range []struct {
		name string
		f    delay.Function
	}{
		{"scan", p},
		{"indexed", delay.NewIndexed(p)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if avg := testing.AllocsPerRun(200, func() {
				if _, err := UpperBound(tc.f, 20); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("UpperBound allocates %.1f objects per run, want 0", avg)
			}
		})
	}
}

// TestAnalyzeTraceMatchesTraceless asserts the traced Algorithm 1 walk is
// behaviour-identical to the traceless one on both kernels: the same bound,
// preemption count and divergence, with one trace record per preemption
// and the last record's running total equal to the bound.
func TestAnalyzeTraceMatchesTraceless(t *testing.T) {
	p := walkTestFn(t)
	for _, f := range []delay.Function{p, delay.NewIndexed(p)} {
		for _, q := range []float64{7, 20, 55, 300} {
			want, err := Analyze(nil, f, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Analyze(nil, f, q, Options{Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if got.TotalDelay != want.TotalDelay || got.Preemptions != want.Preemptions || got.Diverged != want.Diverged {
				t.Fatalf("%T Q=%g: traced (%v,%d,%v) vs traceless (%v,%d,%v)", f, q,
					got.TotalDelay, got.Preemptions, got.Diverged,
					want.TotalDelay, want.Preemptions, want.Diverged)
			}
			if want.Iterations != nil {
				t.Fatalf("%T Q=%g: traceless walk returned %d trace records", f, q, len(want.Iterations))
			}
			if len(got.Iterations) != got.Preemptions {
				t.Fatalf("%T Q=%g: %d trace records for %d preemptions", f, q, len(got.Iterations), got.Preemptions)
			}
			if n := len(got.Iterations); !got.Diverged && n > 0 && got.Iterations[n-1].Total != got.TotalDelay {
				t.Fatalf("%T Q=%g: trace ends at total %v, bound %v", f, q, got.Iterations[n-1].Total, got.TotalDelay)
			}
		}
	}
}

// TestAnalyzeZeroAllocWithScope pins the observability overhead contract of
// DESIGN.md §10: a traceless Analyze run with a live scope attached is still
// allocation-free — the walk accumulates its iteration and kernel-query
// counts in locals and flushes them into the registry at exit.
func TestAnalyzeZeroAllocWithScope(t *testing.T) {
	p := walkTestFn(t)
	rec := obs.NewTestRecorder()
	sc := rec.Scope()
	for _, tc := range []struct {
		name string
		f    delay.Function
	}{
		{"scan", p},
		{"indexed", delay.NewIndexed(p)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if avg := testing.AllocsPerRun(200, func() {
				if _, err := Analyze(nil, tc.f, 20, Options{Obs: sc}); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("Analyze with scope allocates %.1f objects per run, want 0", avg)
			}
		})
	}
	// A campaign worker's tally of the scope, flushed after every run,
	// keeps the contract too.
	tl := sc.Tally()
	runs := rec.Counter("core.alg1.runs")
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := Analyze(nil, p, 20, Options{Obs: tl}); err != nil {
			t.Fatal(err)
		}
		tl.Flush()
	}); avg != 0 {
		t.Errorf("Analyze with a tally allocates %.1f objects per run, want 0", avg)
	}
	if rec.Counter("core.alg1.runs") != runs+201 {
		t.Fatalf("tally flushed %d runs, want 201", rec.Counter("core.alg1.runs")-runs)
	}
	if rec.Counter("core.alg1.runs") == 0 || rec.Counter("core.alg1.iterations") == 0 {
		t.Fatal("scope recorded no runs/iterations despite being attached")
	}
}
