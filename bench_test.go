// Package fnpr's benchmark suite regenerates every figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`):
//
//	BenchmarkFigure1Offsets   — the Figure 1 start-offset analysis
//	BenchmarkFigure2Scenario  — the Figure 2 naive-bound counter-example
//	BenchmarkFigure4Functions — construction of the Figure 4 benchmarks
//	BenchmarkFigure5Sweep     — the full Figure 5 Q sweep (Algorithm 1 on
//	                            all three functions + state of the art)
//
// plus ablation benchmarks for the design choices DESIGN.md calls out:
// Algorithm 1 vs Equation 4 cost at several Q, the UCB cache analysis, the
// end-to-end CFG→fi pipeline, and the FNPR simulator. Figure-level
// benchmarks report headline numbers (bounds at representative Q) through
// b.ReportMetric so `go test -bench` output doubles as the experiment log.
package fnpr

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"fnpr/internal/cache"
	"fnpr/internal/cfg"
	"fnpr/internal/core"
	"fnpr/internal/delay"
	"fnpr/internal/eval"
	"fnpr/internal/exact"
	"fnpr/internal/fixednpr"
	"fnpr/internal/memo"
	"fnpr/internal/npr"
	"fnpr/internal/obs"
	"fnpr/internal/sched"
	"fnpr/internal/sim"
	"fnpr/internal/spec"
	"fnpr/internal/synth"
	"fnpr/internal/system"
	"fnpr/internal/task"
	"fnpr/internal/wire"
)

// BenchmarkFigure1Offsets measures the Eq 1-3 breadth-first interval
// analysis on the paper's Figure 1 CFG and reports the resulting WCET.
func BenchmarkFigure1Offsets(b *testing.B) {
	g := cfg.Figure1()
	var wcet float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off, err := g.AnalyzeOffsets()
		if err != nil {
			b.Fatal(err)
		}
		wcet = off.WCET
	}
	b.ReportMetric(wcet, "WCET")
}

// BenchmarkFigure2Scenario regenerates the Figure 2 counter-example and
// reports the three quantities the figure contrasts.
func BenchmarkFigure2Scenario(b *testing.B) {
	var rep *eval.Figure2Report
	for i := 0; i < b.N; i++ {
		r, err := eval.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		rep = r
	}
	b.ReportMetric(rep.Naive, "naive")
	b.ReportMetric(rep.Peak.TotalDelay, "worst-run")
	b.ReportMetric(rep.Algorithm1, "algorithm1")
}

// BenchmarkFigure4Functions measures construction of the three synthetic
// benchmark delay functions (Gaussian sampling into piecewise envelopes).
func BenchmarkFigure4Functions(b *testing.B) {
	params := delay.CalibratedParams()
	for i := 0; i < b.N; i++ {
		fns := params.Benchmarks()
		if len(fns) != 3 {
			b.Fatal("missing benchmark functions")
		}
	}
}

// BenchmarkFigure5Sweep regenerates the full Figure 5 data: Algorithm 1 on
// the three benchmark functions plus the state-of-the-art bound over the
// default Q grid. Headline values at Q=100 are reported as metrics.
//
// Two families of sub-benchmarks:
//
//   - e2e/*: the full Figure 5 pipeline (worker pool, degradation ladder,
//     state-of-the-art series, invariant checks) — the user-visible cost.
//   - kernel=*/n=*: sequential Algorithm 1 over the default Q grid on
//     Figure 4-derived functions resampled at n pieces, scan kernel vs
//     indexed kernel with the index prebuilt (its amortized regime). This
//     isolates the query-kernel cost from pool and harness overhead; the
//     scan/indexed pairs are rows of testdata/bench.golden.
func BenchmarkFigure5Sweep(b *testing.B) {
	for _, variant := range []struct {
		name   string
		params delay.BenchmarkParams
	}{
		{"e2e/literal", delay.LiteralParams()},
		{"e2e/calibrated", delay.CalibratedParams()},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var tbl = new(struct {
				g2At100, soaAt100 float64
			})
			for i := 0; i < b.N; i++ {
				t, err := eval.Figure5(nil, variant.params, eval.SweepOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if err := eval.Figure5Checks(t, 1); err != nil {
					b.Fatal(err)
				}
				for qi, q := range t.X {
					if q == 100 {
						for _, s := range t.Series {
							switch s.Name {
							case "Gaussian 2":
								tbl.g2At100 = s.Y[qi]
							case "State of the Art":
								tbl.soaAt100 = s.Y[qi]
							}
						}
					}
				}
			}
			b.ReportMetric(tbl.g2At100, "alg1(G2,Q=100)")
			b.ReportMetric(tbl.soaAt100, "soa(Q=100)")
		})
	}
	params := delay.CalibratedParams()
	names := delay.BenchmarkOrder()
	qs := eval.DefaultQGrid()
	for _, n := range []int{256, 1024, 4096, 16384} {
		byName, err := params.BenchmarksAt(n)
		if err != nil {
			b.Fatal(err)
		}
		for _, kernel := range []string{"scan", "indexed"} {
			fns := make([]delay.Function, len(names))
			for i, nm := range names {
				p, ok := byName[nm]
				if !ok {
					b.Fatalf("missing benchmark function %q", nm)
				}
				if kernel == "indexed" {
					fns[i] = delay.NewIndexed(p)
				} else {
					fns[i] = p
				}
			}
			b.Run(fmt.Sprintf("kernel=%s/n=%d", kernel, n), func(b *testing.B) {
				var g2At100 float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for fi, f := range fns {
						for _, q := range qs {
							v, err := core.Analyze(nil, f, q, core.Options{})
							if err != nil {
								b.Fatal(err)
							}
							if q == 100 && names[fi] == "Gaussian 2" {
								g2At100 = v.TotalDelay
							}
						}
					}
				}
				b.ReportMetric(g2At100, "alg1(G2,Q=100)")
			})
		}
	}
}

// BenchmarkIndexedKernel micro-benchmarks the two Function queries Algorithm 1
// is built from, scan vs indexed, on a large Figure 4-derived function, plus
// the one-time index construction cost those speedups amortize.
func BenchmarkIndexedKernel(b *testing.B) {
	const n = 16384
	byName, err := delay.CalibratedParams().BenchmarksAt(n)
	if err != nil {
		b.Fatal(err)
	}
	p := byName["Gaussian 2"]
	ix := delay.NewIndexed(p)
	c := p.Domain()
	kernels := []struct {
		name string
		f    delay.Function
	}{{"scan", p}, {"indexed", ix}}
	for _, k := range kernels {
		b.Run("MaxOn/kernel="+k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := float64(i%97) / 97 * c / 2
				k.f.MaxOn(a, a+c/2)
			}
		})
	}
	for _, k := range kernels {
		b.Run("FirstReach/kernel="+k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := float64(i%97) / 97 * c / 2
				k.f.FirstReachDescending(a, a+c/2, a+c/2)
			}
		})
	}
	b.Run("Build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			delay.NewIndexed(p)
		}
	})
}

// BenchmarkAlgorithm1 measures the core bound across Q (ablation: cost grows
// as Q shrinks because more windows are walked).
func BenchmarkAlgorithm1(b *testing.B) {
	f := delay.CalibratedParams().Gaussian2()
	for _, q := range []float64{20, 100, 500, 2000} {
		b.Run(fmt.Sprintf("Q=%g", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Analyze(nil, f, q, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEquation4 measures the state-of-the-art fixpoint for comparison.
func BenchmarkEquation4(b *testing.B) {
	f := delay.CalibratedParams().Gaussian2()
	for _, q := range []float64{20, 100, 500, 2000} {
		b.Run(fmt.Sprintf("Q=%g", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Analyze(nil, f, q, core.Options{Method: core.Equation4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCFGPipeline measures the end-to-end Section IV pipeline on
// synthetic programs of increasing size: random CFG -> loop-free offsets ->
// UCB analysis -> fi(t).
func BenchmarkCFGPipeline(b *testing.B) {
	cc := cache.Config{Sets: 64, Assoc: 2, LineBytes: 16, ReloadCost: 2}
	for _, blocks := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			r := rand.New(rand.NewSource(42))
			g, acc, err := synth.CFG(r, synth.CFGParams{
				Blocks: blocks, MaxFanout: 3,
				EMinLo: 1, EMinHi: 4, ESpread: 4,
				Lines: 128, AccessesPerBloc: 8, Reuse: 0.6,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off, err := g.AnalyzeOffsets()
				if err != nil {
					b.Fatal(err)
				}
				ucb, err := cache.AnalyzeUCB(g, acc, cc)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := delay.FromUCB(off, ucb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatorFNPR measures the discrete-event simulator under the
// three preemption models.
func BenchmarkSimulatorFNPR(b *testing.B) {
	ts := task.Set{
		{Name: "fast", C: 1, T: 7, Q: 1},
		{Name: "medium", C: 4, T: 23, Q: 2},
		{Name: "victim", C: 30, T: 120, Q: 6},
	}
	ts.AssignRateMonotonic()
	fns := []delay.Function{nil, delay.Constant(0.3, 4), delay.FrontLoaded(3, 0.5, 30)}
	for _, mode := range []sim.Mode{sim.FullyPreemptive, sim.FloatingNPR, sim.NonPreemptive} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(nil, sim.Config{
					Tasks: ts, Policy: sim.FixedPriority, Mode: mode,
					Horizon: 5000, Delay: fns,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQAssignment measures the Q derivation analyses.
func BenchmarkQAssignment(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	ts, err := synth.TaskSet(r, synth.TaskSetParams{
		N: 8, Utilization: 0.7, PeriodLo: 10, PeriodHi: 1000, RoundPeriod: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("EDF", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := npr.AssignQ(ts, npr.EDF); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := npr.AssignQ(ts, npr.FixedPriority); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDelayAwareRTA measures the FNPR response-time analysis with both
// delay methods (the schedulability-level ablation of the contribution).
func BenchmarkDelayAwareRTA(b *testing.B) {
	ts := task.Set{
		{Name: "hi", C: 10, T: 100, Q: 10, Prio: 0},
		{Name: "mid", C: 20, T: 200, Q: 8, Prio: 1},
		{Name: "lo", C: 40, T: 400, Q: 8, Prio: 2},
	}
	fns := []delay.Function{nil, delay.FrontLoaded(4, 0.5, 20), delay.FrontLoaded(5, 0.5, 40)}
	for _, m := range []sched.DelayMethod{sched.Algorithm1, sched.Equation4} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sched.Analyze(nil, ts, sched.Options{Delay: fns, Method: m}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRTASolver measures the fixed-priority RTA with the cutting-plane
// fixpoint solver on a population of wide-period task sets whose delay
// functions are piecewise curves at n pieces (indexed, so the per-task core
// bound stays cheap and the fixpoint engine dominates). The sets are
// warm-started from the no-delay response times, exactly like the analysis
// pipelines. The rta-iters/op metric is the engine-evaluation count per
// analysis pass (sched.rta.solver.iterations), gated exactly by make
// bench-gate against testdata/bench.golden. The tasks=N rows time the same
// engine on larger sets without delay.
func BenchmarkRTASolver(b *testing.B) {
	const sets = 10
	type fixture struct {
		ts   task.Set
		fns  []delay.Function
		warm []float64
	}
	build := func(pieces int) []fixture {
		var out []fixture
		for trial := 0; len(out) < sets; trial++ {
			r := synth.SubRand(1903, pieces, trial)
			ts, err := synth.TaskSet(r, synth.TaskSetParams{
				N: 10, Utilization: 0.55 + 0.15*r.Float64(),
				PeriodLo: 10, PeriodHi: 10_000, RoundPeriod: true,
				QFraction: 0.9, MinQ: 0.1,
			})
			if err != nil {
				continue
			}
			fns := make([]delay.Function, len(ts))
			for i := 1; i < len(ts); i++ {
				peak := 0.8 * ts[i].Q
				if peak > 0.9*ts[i].C {
					peak = 0.9 * ts[i].C
				}
				if peak <= 0 {
					continue
				}
				// A decaying sawtooth over the task's execution at the
				// requested resolution.
				xs := make([]float64, pieces+1)
				vs := make([]float64, pieces)
				for k := 0; k <= pieces; k++ {
					xs[k] = ts[i].C * float64(k) / float64(pieces)
				}
				for k := 0; k < pieces; k++ {
					frac := float64(k) / float64(pieces)
					vs[k] = peak * (0.05 + 0.95*(1-frac)*(0.7+0.3*float64((7*k)%5)/4))
				}
				p, err := delay.NewPiecewise(xs, vs)
				if err != nil {
					b.Fatal(err)
				}
				fns[i] = delay.NewIndexed(p)
			}
			nd, err := sched.Analyze(nil, ts, sched.Options{})
			if err != nil {
				continue
			}
			out = append(out, fixture{ts: ts, fns: fns, warm: nd.Response})
		}
		return out
	}
	for _, n := range []int{64, 1024, 16384} {
		fixtures := build(n)
		b.Run(fmt.Sprintf("solver=cutting/n=%d", n), func(b *testing.B) {
			reg := obs.NewRegistry()
			sc := obs.NewScope(reg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, fx := range fixtures {
					_, err := sched.Analyze(nil, fx.ts, sched.Options{
						Delay: fx.fns, Method: sched.Algorithm1,
						Warm: fx.warm, Obs: sc,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(reg.Counter("sched.rta.solver.iterations").Value())/float64(b.N), "rta-iters/op")
		})
	}
	// The tasks=N rows size the set instead: the plain fixed-priority RTA
	// over N-task sets at utilizations up to 0.99, some unschedulable, whose
	// refutations walk every breakpoint below the deadline. cutRoot selects
	// its segments in place for up to 16 higher-priority tasks and sorts
	// them above that; the rows sit on either side.
	for _, n := range []int{16, 128} {
		var sets []task.Set
		for trial := 0; len(sets) < 3; trial++ {
			ts, err := synth.TaskSet(synth.SubRand(1904, n, trial), synth.TaskSetParams{
				N: n, Utilization: []float64{0.7, 0.9, 0.99}[len(sets)],
				PeriodLo: 10, PeriodHi: 100_000, RoundPeriod: true,
			})
			if err == nil {
				sets = append(sets, ts)
			}
		}
		b.Run(fmt.Sprintf("solver=cutting/tasks=%d", n), func(b *testing.B) {
			reg := obs.NewRegistry()
			sc := obs.NewScope(reg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, ts := range sets {
					if _, err := sched.Analyze(nil, ts, sched.Options{Obs: sc}); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(reg.Counter("sched.rta.solver.iterations").Value())/float64(b.N), "rta-iters/op")
		})
	}
}

// BenchmarkCacheSim measures the concrete LRU cache simulator on a long
// trace (substrate sanity: the validation oracle must itself be cheap).
func BenchmarkCacheSim(b *testing.B) {
	cc := cache.Config{Sets: 64, Assoc: 4, LineBytes: 32, ReloadCost: 1}
	r := rand.New(rand.NewSource(3))
	trace := make([]cache.Line, 100_000)
	for i := range trace {
		trace[i] = cache.Line(r.Intn(512))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := cache.NewSim(cc)
		if err != nil {
			b.Fatal(err)
		}
		s.AccessAll(trace)
	}
}

// BenchmarkAcceptanceExperiment runs the extension schedulability experiment
// (acceptance ratio vs utilization) at reduced scale and reports the
// separation between Algorithm 1 and Equation 4 at the steepest point.
func BenchmarkAcceptanceExperiment(b *testing.B) {
	p := eval.DefaultAcceptanceParams()
	p.SetsPerPoint = 40
	var sep float64
	for i := 0; i < b.N; i++ {
		tbl, err := eval.Acceptance(nil, p)
		if err != nil {
			b.Fatal(err)
		}
		if err := eval.AcceptanceChecks(tbl); err != nil {
			b.Fatal(err)
		}
		var a1, e4 []float64
		for _, s := range tbl.Series {
			switch s.Name {
			case "algorithm1":
				a1 = s.Y
			case "equation4":
				e4 = s.Y
			}
		}
		sep = 0
		for k := range a1 {
			if d := a1[k] - e4[k]; d > sep {
				sep = d
			}
		}
	}
	b.ReportMetric(sep, "max-separation")
}

// BenchmarkAcceptanceCampaign measures the sharded acceptance-ratio engine
// at several worker-pool sizes on a reduced grid. The output table is
// bit-identical across the sub-benchmarks (the campaign's determinism
// contract), so the series isolates pure scheduling overhead/speedup; the
// workers=1 row is gated in testdata/bench.golden; the workers>1 rows are
// not, because their ns/op depends on the core count.
// Wall-clock gains track the machine's core count — on a single-core runner
// the sub-benchmarks coincide.
func BenchmarkAcceptanceCampaign(b *testing.B) {
	p := eval.DefaultAcceptanceParams()
	p.SetsPerPoint = 20
	p.UEnd = 0.80
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			p.Workers = w
			b.ReportAllocs()
			var points int
			for i := 0; i < b.N; i++ {
				tbl, err := eval.Acceptance(nil, p)
				if err != nil {
					b.Fatal(err)
				}
				points = len(tbl.X)
			}
			trials := float64(points * p.SetsPerPoint)
			b.ReportMetric(trials*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

// BenchmarkSimTrial measures one Monte-Carlo simulation trial, fresh
// simulator per run (mode=unpooled, the package-level sim.Run) vs a reused
// sim.Runner (mode=pooled, the campaign configuration). testdata/bench.golden
// gates both rows' allocs/op.
func BenchmarkSimTrial(b *testing.B) {
	ts := task.Set{
		{Name: "fast", C: 1, T: 7, Q: 1},
		{Name: "medium", C: 4, T: 23, Q: 2},
		{Name: "victim", C: 30, T: 120, Q: 6},
	}
	ts.AssignRateMonotonic()
	fns := []delay.Function{nil, delay.Constant(0.3, 4), delay.FrontLoaded(3, 0.5, 30)}
	cfg := sim.Config{
		Tasks: ts, Policy: sim.FixedPriority, Mode: sim.FloatingNPR,
		Horizon: 5000, Delay: fns,
	}
	b.Run("mode=unpooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(nil, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mode=pooled", func(b *testing.B) {
		runner := sim.NewRunner()
		// An untimed run grows the runner's buffers, so allocs/op reads the
		// reused runner's steady state.
		if _, err := runner.Run(nil, cfg); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := runner.Run(nil, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFixedVsFloating compares, on the same linear task, the optimal
// fixed preemption-point selection (Bertogna et al.) with the floating
// Algorithm 1 bound at equal maximum non-preemptive interval.
func BenchmarkFixedVsFloating(b *testing.B) {
	var tk fixednpr.Task
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 12; i++ {
		tk.Chunks = append(tk.Chunks, fixednpr.Chunk{
			Duration: 3 + r.Float64()*6,
			Cost:     r.Float64() * 2,
		})
	}
	const qmax = 15
	f, err := tk.DelayFunction()
	if err != nil {
		b.Fatal(err)
	}
	var fixed, floating float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel, err := fixednpr.SelectPoints(tk, qmax)
		if err != nil {
			b.Fatal(err)
		}
		fixed = sel.TotalCost
		fl, err := core.Analyze(nil, f, qmax, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		floating = fl.TotalDelay
	}
	b.ReportMetric(fixed, "fixed-delay")
	b.ReportMetric(floating, "floating-delay")
}

// BenchmarkLimitedRefinement measures the preemption-count-limited analysis
// (future work (ii)) against plain Algorithm 1 at the RTA level.
func BenchmarkLimitedRefinement(b *testing.B) {
	ts := task.Set{
		{Name: "hi", C: 5, T: 100, Q: 5, Prio: 0},
		{Name: "mid", C: 9, T: 250, Q: 6, Prio: 1},
		{Name: "lo", C: 60, T: 600, D: 400, Q: 10, Prio: 2},
	}
	fns := []delay.Function{nil, delay.Constant(1, 9), delay.Constant(3, 60)}
	var plainR, limR float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plain, err := sched.Analyze(nil, ts, sched.Options{Delay: fns, Method: sched.Algorithm1})
		if err != nil {
			b.Fatal(err)
		}
		lim, err := sched.Analyze(nil, ts, sched.Options{Delay: fns, Method: sched.Algorithm1, Limited: true})
		if err != nil {
			b.Fatal(err)
		}
		plainR, limR = plain.Response[2], lim.Response[2]
	}
	b.ReportMetric(plainR, "R-plain")
	b.ReportMetric(limR, "R-limited")
}

// BenchmarkAbstractCacheAnalysis measures the must/may abstract
// interpretation on synthetic programs.
func BenchmarkAbstractCacheAnalysis(b *testing.B) {
	cc := cache.Config{Sets: 64, Assoc: 4, LineBytes: 32, ReloadCost: 10}
	r := rand.New(rand.NewSource(6))
	g, acc, err := synth.CFG(r, synth.CFGParams{
		Blocks: 128, MaxFanout: 3,
		EMinLo: 1, EMinHi: 4, ESpread: 4,
		Lines: 256, AccessesPerBloc: 10, Reuse: 0.5,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.AnalyzeAbstract(g, acc, cc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreemptionCollation runs the preemption-count sweep (the paper's
// motivation: FNPR collates arrivals into fewer preemptions) and reports the
// per-job preemption counts at the largest Q under both models.
func BenchmarkPreemptionCollation(b *testing.B) {
	p := eval.DefaultPreemptionParams()
	p.Horizon = 12000
	var fnpr, full float64
	for i := 0; i < b.N; i++ {
		tbl, err := eval.Preemptions(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := eval.PreemptionChecks(tbl); err != nil {
			b.Fatal(err)
		}
		last := len(tbl.X) - 1
		fnpr = tbl.Series[0].Y[last]
		full = tbl.Series[1].Y[last]
	}
	b.ReportMetric(fnpr, "preempts/job-fnpr")
	b.ReportMetric(full, "preempts/job-fullpre")
}

// BenchmarkSystemPipeline measures the complete program-to-schedulability
// stack of internal/system on a three-task system.
func BenchmarkSystemPipeline(b *testing.B) {
	mk := func(lines []cache.Line, unit float64) (*cfg.Graph, cache.AccessMap) {
		g := cfg.New()
		load := g.AddSimple("load", unit*2, unit*3)
		head := g.AddSimple("head", unit/4, unit/4)
		body := g.AddSimple("body", unit, unit*1.5)
		store := g.AddSimple("store", unit, unit)
		g.MustEdge(load, head)
		g.MustEdge(head, body)
		g.MustEdge(body, head)
		g.MustEdge(head, store)
		g.LoopBounds[head] = cfg.Bound{Min: 2, Max: 4}
		return g, cache.AccessMap{load: lines, body: lines, store: lines[:1]}
	}
	g1, a1 := mk([]cache.Line{0, 1}, 1)
	g2, a2 := mk([]cache.Line{8, 9, 10, 11}, 2)
	g3, a3 := mk([]cache.Line{16, 17, 18, 19, 20, 21}, 4)
	cfgSys := system.Config{
		Tasks: []system.TaskProgram{
			{Name: "a", T: 80, Prio: 0, Graph: g1, Accesses: a1},
			{Name: "b", T: 400, Prio: 1, Q: 8, Graph: g2, Accesses: a2},
			{Name: "c", T: 2000, Prio: 2, Q: 6, Graph: g3, Accesses: a3},
		},
		Cache:  cache.Config{Sets: 16, Assoc: 2, LineBytes: 16, ReloadCost: 0.8},
		Policy: npr.FixedPriority,
		UseECB: true,
	}
	var cPrime float64
	for i := 0; i < b.N; i++ {
		res, err := system.Analyze(cfgSys)
		if err != nil {
			b.Fatal(err)
		}
		cPrime = res.Tasks[2].EffectiveC
	}
	b.ReportMetric(cPrime, "C'(lowest)")
}

// BenchmarkEnvelopeResolution is the precision-vs-speed ablation for
// piecewise envelopes: Algorithm 1 on the Gaussian 2 benchmark sampled at
// decreasing resolutions (Coarsen produces a conservative superset, so the
// bound can only grow as pieces shrink).
func BenchmarkEnvelopeResolution(b *testing.B) {
	full := delay.CalibratedParams().Gaussian2()
	for _, n := range []int{4000, 400, 40} {
		b.Run(fmt.Sprintf("pieces=%d", n), func(b *testing.B) {
			f, err := full.Coarsen(n)
			if err != nil {
				b.Fatal(err)
			}
			var bound float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := core.Analyze(nil, f, 100, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				bound = v.TotalDelay
			}
			b.ReportMetric(bound, "bound(Q=100)")
		})
	}
}

// BenchmarkMemoSweep measures the content-addressed result cache on the
// Figure 5 kernel workload: Algorithm 1 over the default Q grid on the three
// calibrated benchmark functions (indexed, 4096 pieces). cache=off is the
// uncached reference, cache=cold populates a fresh cache every iteration
// (the per-sweep overhead of memoization), and cache=warm repeats the sweep
// against a prepopulated cache so every query is answered by lookup. The
// cache=cold/cache=warm pair is the repeated-sweep payoff the -cache flag
// buys; all three rows are in testdata/bench.golden.
func BenchmarkMemoSweep(b *testing.B) {
	const n = 4096
	byName, err := delay.CalibratedParams().BenchmarksAt(n)
	if err != nil {
		b.Fatal(err)
	}
	names := delay.BenchmarkOrder()
	fns := make([]delay.Function, len(names))
	for i, nm := range names {
		p, ok := byName[nm]
		if !ok {
			b.Fatalf("missing benchmark function %q", nm)
		}
		fns[i] = delay.NewIndexed(p)
	}
	qs := eval.DefaultQGrid()
	sweep := func(b *testing.B, c *memo.Cache) {
		b.Helper()
		for _, f := range fns {
			for _, q := range qs {
				if _, err := core.Analyze(nil, f, q, core.Options{Memo: c}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("cache=off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweep(b, nil)
		}
	})
	b.Run("cache=cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweep(b, core.NewResultCache(memo.Options{}))
		}
	})
	b.Run("cache=warm", func(b *testing.B) {
		c := core.NewResultCache(memo.Options{})
		sweep(b, c) // prepopulate: every timed query hits
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweep(b, c)
		}
	})
}

// BenchmarkAnalyzeSetEdit measures the incremental task-set analysis: an
// 8-task set is analyzed over a 10-point Q grid, then one task's delay
// function is edited and the set re-analyzed. mode=full recomputes all 80
// terms from scratch; mode=incremental re-analyzes against the cache warmed
// by the previous run, so only the edited task's 10 terms recompute. Each
// iteration uses a distinct mutant so the edited column can never self-cache
// across iterations. The recomputed_frac metric (recomputed terms / total
// terms, <0.5 required) is gated exactly in testdata/bench.golden beside
// both modes' ns/op and allocs/op.
func BenchmarkAnalyzeSetEdit(b *testing.B) {
	const nTasks = 8
	r := rand.New(rand.NewSource(20260808))
	type curve struct{ xs, vs []float64 }
	curves := make([]curve, nTasks)
	ts := make(task.Set, nTasks)
	base := make([]delay.Function, nTasks)
	for i := range ts {
		np := 300 + r.Intn(200)
		xs := []float64{0}
		vs := make([]float64, 0, np)
		for k := 0; k < np; k++ {
			xs = append(xs, xs[len(xs)-1]+0.5+r.Float64()*2)
			vs = append(vs, r.Float64()*2)
		}
		p, err := delay.NewPiecewise(xs, vs)
		if err != nil {
			b.Fatal(err)
		}
		curves[i] = curve{xs: xs, vs: vs}
		ts[i] = task.Task{Name: fmt.Sprintf("t%d", i), C: p.Domain(), T: 10000}
		base[i] = p
	}
	qs := []float64{3, 4, 5, 6, 7, 8, 9, 10, 12, 15}
	// mutant returns the function slice with task 0's curve perturbed by an
	// iteration-unique amount — a fresh fingerprint every time.
	mutant := func(i int) []delay.Function {
		fns := append([]delay.Function(nil), base...)
		vs := append([]float64(nil), curves[0].vs...)
		vs[0] += float64(i+1) * 1e-9
		p, err := delay.NewPiecewise(curves[0].xs, vs)
		if err != nil {
			b.Fatal(err)
		}
		fns[0] = p
		return fns
	}
	b.Run("mode=full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eval.AnalyzeSet(nil, ts, mutant(i), eval.SweepOptions{Qs: qs}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mode=incremental", func(b *testing.B) {
		c := core.NewResultCache(memo.Options{})
		if _, err := eval.AnalyzeSet(nil, ts, base, eval.SweepOptions{Qs: qs, Memo: c}); err != nil {
			b.Fatal(err)
		}
		var recomputed, total int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eval.AnalyzeSet(nil, ts, mutant(i), eval.SweepOptions{Qs: qs, Memo: c})
			if err != nil {
				b.Fatal(err)
			}
			for _, sr := range res {
				for _, pt := range sr.Points {
					if pt.Done {
						total++
						if !pt.Cached {
							recomputed++
						}
					}
				}
			}
		}
		b.ReportMetric(float64(recomputed)/float64(total), "recomputed_frac")
	})
}

// exactBenchFunctions draws back-loaded piecewise delay curves — the family
// where the schedule-graph exploration branches hardest (the adversary's
// best strikes sit late in the job, so many candidate chains stay alive) —
// sized so the naive enumeration still terminates within the state budget.
func exactBenchFunctions(n int, c, q float64) []*delay.Piecewise {
	r := rand.New(rand.NewSource(1004))
	out := make([]*delay.Piecewise, 0, n)
	for len(out) < n {
		pieces := 10 + r.Intn(5)
		xs := make([]float64, 0, pieces+1)
		xs = append(xs, 0)
		for i := 1; i < pieces; i++ {
			xs = append(xs, c*(float64(i)+r.Float64()*0.6)/float64(pieces))
		}
		xs = append(xs, c)
		maxV := q * (0.6 + 0.25*r.Float64())
		vs := make([]float64, pieces)
		for i := range vs {
			frac := float64(i) / float64(pieces-1)
			vs[i] = maxV * (0.1 + 0.9*frac) * (0.75 + 0.25*r.Float64())
		}
		p, err := delay.NewPiecewise(xs, vs)
		if err != nil {
			continue
		}
		out = append(out, p)
	}
	return out
}

// BenchmarkExactDelay measures the exact worst-case cumulative-delay
// exploration with and without interval merging + dominance pruning on the
// same instances, with a reused (slab-pooled) Explorer. The states/op and
// merges/op metrics quantify the reduction; successors/op counts the
// successors emitted, one per breakpoint and layer in mode=pruned.
// testdata/bench.golden gates all three counters exactly.
func BenchmarkExactDelay(b *testing.B) {
	fns := exactBenchFunctions(16, 40, 6)
	for _, m := range []struct {
		name  string
		naive bool
	}{{"mode=naive", true}, {"mode=pruned", false}} {
		b.Run(m.name, func(b *testing.B) {
			ex := exact.NewExplorer()
			var states, successors, merges int
			pass := func() {
				states, successors, merges = 0, 0, 0
				for _, f := range fns {
					res, err := ex.Delay(nil, f, 6, exact.Options{Naive: m.naive, MaxStates: -1})
					if err != nil {
						b.Fatal(err)
					}
					states += res.States
					successors += res.Successors
					merges += res.Merges
				}
			}
			// An untimed pass grows the explorer's slabs, so allocs/op reads
			// the reused explorer's steady state, not its first growth
			// divided by b.N.
			pass()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
			b.ReportMetric(float64(states), "states/op")
			b.ReportMetric(float64(successors), "successors/op")
			b.ReportMetric(float64(merges), "merges/op")
		})
	}
}

// exactBenchSet builds the schedule-graph benchmark workload: a jittered
// task set with execution-time intervals (BCET < C), which is what makes
// availability intervals overlap and the merge rule pay off.
func exactBenchSet(n int) task.Set {
	r := rand.New(rand.NewSource(2010))
	periods := []float64{10, 20, 40, 80}
	ts := make(task.Set, 0, n)
	for i := 0; i < n; i++ {
		T := periods[i%len(periods)]
		c := 0.4 + r.Float64()*0.12*T
		ts = append(ts, task.Task{
			Name: fmt.Sprintf("t%d", i), C: c, BCET: 0.7 * c,
			T: T, Prio: i, Jitter: 0.05 * T,
		})
	}
	return ts
}

// BenchmarkExactSAG measures the schedule-graph response-time exploration
// with and without state merging on the same jittered task set. states/op
// counts expanded states over the hyperperiod; testdata/bench.golden gates
// it exactly for both modes.
func BenchmarkExactSAG(b *testing.B) {
	ts := exactBenchSet(5)
	for _, m := range []struct {
		name  string
		naive bool
	}{{"mode=naive", true}, {"mode=pruned", false}} {
		b.Run(m.name, func(b *testing.B) {
			var states, merges int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := exact.ResponseTimes(nil, ts, exact.Options{Naive: m.naive, MaxStates: -1})
				if err != nil {
					b.Fatal(err)
				}
				states, merges = res.States, res.Merges
			}
			b.ReportMetric(float64(states), "states/op")
			b.ReportMetric(float64(merges), "merges/op")
		})
	}
}

// BenchmarkExactMemo measures the content-addressed memoization of exact
// explorations: cache=cold pays one full exploration per function into a
// fresh cache, cache=warm answers every query by fingerprint lookup
// (verify-on-use). Both rows are in testdata/bench.golden.
func BenchmarkExactMemo(b *testing.B) {
	fns := exactBenchFunctions(16, 40, 6)
	b.Run("cache=cold", func(b *testing.B) {
		ex := exact.NewExplorer()
		for i := 0; i < b.N; i++ {
			c := memo.New(memo.Options{})
			for _, f := range fns {
				if _, err := ex.Delay(nil, f, 6, exact.Options{Memo: c, MaxStates: -1}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("cache=warm", func(b *testing.B) {
		ex := exact.NewExplorer()
		c := memo.New(memo.Options{})
		for _, f := range fns {
			if _, err := ex.Delay(nil, f, 6, exact.Options{Memo: c, MaxStates: -1}); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, f := range fns {
				res, err := ex.Delay(nil, f, 6, exact.Options{Memo: c, MaxStates: -1})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Cached {
					b.Fatal("warm lookup missed the cache")
				}
			}
		}
	})
}

// decodeBody is the /v1/analyze body shape BenchmarkDecodeBody decodes: a
// delay description and the task's C and Q.
type decodeBody struct {
	Delay *spec.Delay `json:"delay"`
	C     float64     `json:"c"`
	Q     float64     `json:"q"`
}

var decodeBodyFields = wire.Fields[decodeBody]{
	{Name: "delay", Read: func(r *wire.Reader, v *decodeBody) { spec.ReadDelay(r, &v.Delay) }},
	{Name: "c", Read: func(r *wire.Reader, v *decodeBody) { r.Float(&v.C) }},
	{Name: "q", Read: func(r *wire.Reader, v *decodeBody) { r.Float(&v.Q) }},
}

// BenchmarkDecodeBody measures the request decoder on serve-bulk-shaped
// bodies: an explicit piecewise curve of n pieces over C = 10000, with
// jittered breakpoints and values in [0, 15) as encoding/json writes them
// (shortest round-trip digits), decoded through wire.Decode and
// spec.ReadDelay. Nearly all of its time is spent reading numbers.
func BenchmarkDecodeBody(b *testing.B) {
	for _, n := range []int{2048, 8192} {
		rng := rand.New(rand.NewSource(int64(n)))
		const c = 10000.0
		xs, vs := make([]float64, n+1), make([]float64, n)
		for i := range vs {
			xs[i] = c * float64(i) / float64(n) * (1 + 0.3*rng.Float64()/float64(n))
			vs[i] = 15 * rng.Float64()
		}
		xs[n] = c
		body, err := json.Marshal(decodeBody{Delay: &spec.Delay{Kind: "piecewise", Breakpoints: xs, Values: vs}, C: c, Q: 20 + 380*rng.Float64()})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("pieces=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var v decodeBody
				if err := wire.Decode(body, &v, decodeBodyFields); err != nil {
					b.Fatal(err)
				}
				if len(v.Delay.Values) != n {
					b.Fatalf("decoded %d values, want %d", len(v.Delay.Values), n)
				}
			}
		})
	}
}
