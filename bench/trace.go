package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"fnpr/internal/core"
	"fnpr/internal/delay"
	"fnpr/internal/eval"
	"fnpr/internal/exact"
	"fnpr/internal/memo"
	"fnpr/internal/npr"
	"fnpr/internal/obs"
	"fnpr/internal/sched"
	"fnpr/internal/spec"
	"fnpr/internal/synth"
	"fnpr/internal/task"
	"fnpr/internal/textplot"
)

// The traced run explains an end-to-end number layer by layer. It sends a
// seeded sample through HTTP on one connection, then replays the same inputs
// directly through each layer's public function, timing every call from
// outside the program. A layer's time is what its calls took in the replay;
// the server's self time is the round trip minus all of them. Work counters
// come from the server's obs registry over the fixed ladder (or the traced
// jobs), so they repeat exactly for a given seed.

// layerTimes accumulates replayed time per layer across a sample.
type layerTimes struct {
	roundtrip, decode, encode, build, fingerprint, index, memo, core, eval, sched, npr, exact time.Duration
	// coreCalls counts the uncached core.Analyze calls behind coreAll.
	coreAll   time.Duration
	coreCalls int
	ops       int
}

// children is the part of the round trip the replay accounts for.
func (t layerTimes) children() time.Duration {
	return t.decode + t.encode + t.build + t.fingerprint + t.index + t.memo + t.core + t.eval
}

// timed runs f and returns how long it took.
func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// fastestOf is the shortest of three timed runs of f.
func fastestOf(f func()) time.Duration {
	d, _ := fastest(3, func() error { f(); return nil })
	return d
}

// fastest runs f n times and returns the shortest duration.
func fastest(n int, f func() error) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < n; i++ {
		var err error
		d := timed(func() { err = f() })
		if err != nil {
			return 0, err
		}
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterDelta reads the server registry's counter deltas between two
// snapshots; the service reports into the process-wide registry.
type counterDelta struct{ before, after obs.Snapshot }

func (d counterDelta) get(names ...string) float64 {
	v := int64(0)
	for _, n := range names {
		v += d.after.Counters[n] - d.before.Counters[n]
	}
	return float64(v)
}

// setCounters sets the registry- and process-derived per-layer metrics:
// ops is the operation count of the window, funcs the functions the exact
// layer could have explored and sets the task sets sched could have decided
// (a workload that analyses none reports 0 per set or function).
func setCounters(rep *report, d counterDelta, p0, p1 procSnap, ops, funcs, sets int) {
	per := func(v float64, n int) float64 { return ratio(v, float64(n)) }
	rep.set("delay.queries_per_op", per(d.get("delay.index.queries", "delay.scan.queries"), ops))
	rep.set("delay.index.rechecks_per_op", per(d.get("delay.index.rechecks"), ops))
	hits, misses := d.get("memo.hits"), d.get("memo.misses")
	rep.set("memo.hit_frac", ratio(hits, hits+misses))
	rep.set("memo.evictions_per_op", per(d.get("memo.evictions"), ops))
	rep.set("core.alg1.iterations_per_op", per(d.get("core.alg1.iterations"), ops))
	rep.set("core.eq4.iterations_per_op", per(d.get("core.eq4.iterations"), ops))
	rep.set("sched.rta.solver.iterations_per_set", per(d.get("sched.rta.solver.iterations"), sets))
	rep.set("sched.rta.solver.cuts_per_set", per(d.get("sched.rta.solver.cuts"), sets))
	rep.set("sched.rta.solver.fallbacks_per_set", per(d.get("sched.rta.solver.fallbacks"), sets))
	rep.set("exact.states_per_func", per(d.get("exact.states"), funcs))
	rep.set("exact.merges_per_func", per(d.get("exact.merges"), funcs))
	rep.set("exact.prunes_per_func", per(d.get("exact.prunes"), funcs))
	refused := d.get("server.rejected", "server.shed")
	rep.set("server.refused_frac", ratio(refused, refused+d.get("server.admitted")))
	rep.set("proc.allocs_per_op", per(float64(p1.allocs-p0.allocs), ops))
	rep.set("proc.gc_cpu_frac", ratio(p1.gcCPU-p0.gcCPU, p1.cpu-p0.cpu))
	rep.set("proc.cpu_ms_per_op", per(float64(p1.rusage-p0.rusage)/1e6, ops))
}

// setShares sets the time-derived per-layer metrics. base is the serial time
// the inner layers' shares are of: the round trips for serve, the Workers: 1
// campaign runs for campaigns.
func setShares(rep *report, t layerTimes, base time.Duration) {
	rt := float64(t.roundtrip)
	n := float64(t.ops)
	rep.set("server.roundtrip_us", rt/n/1e3)
	rep.set("server.decode_us", float64(t.decode)/n/1e3)
	rep.set("server.encode_us", float64(t.encode)/n/1e3)
	rep.set("server.self_us", float64(t.roundtrip-t.children())/n/1e3)
	rep.set("trace.coverage", ratio(float64(t.children()), rt))
	share := func(d time.Duration) float64 { return ratio(float64(d), float64(base)) }
	rep.set("spec.build_share", share(t.build))
	rep.set("delay.fingerprint_share", share(t.fingerprint))
	rep.set("delay.index_build_share", share(t.index))
	rep.set("memo.share", share(t.memo))
	rep.set("core.share", share(t.core))
	rep.set("eval.share", ratio(float64(t.eval), rt))
	rep.set("sched.share", share(t.sched))
	rep.set("npr.share", share(t.npr))
	rep.set("exact.share", share(t.exact))
	rep.set("core.analyze_us", ratio(float64(t.coreAll), float64(t.coreCalls))/1e3)
}

// allocsPer counts heap allocations per call of f over n calls.
func allocsPer(n int, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	before := mallocs()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(mallocs()-before) / float64(n)
}

func oversleepMetrics(rep *report, us []float64) {
	rep.set("gen.oversleep_p50_us", percentile(us, 50))
	rep.set("gen.oversleep_p99_us", percentile(us, 99))
}

// encodeIndented encodes v as the service writes its answers.
func encodeIndented(v any) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// traceServe is the traced run of a serve workload: the ladder for the
// counters, then a sample of traceSample requests replayed layer by layer.
func traceServe(w serveWorkload, o runOpts, rep *report) error {
	env, _, err := setupServe(w, o.seed)
	if err != nil {
		return err
	}
	defer env.close()
	cs, scs := env.conns(maxConns)
	clk := newRealClock()
	d := counterDelta{before: obs.Default().Snapshot()}
	p0 := readProc()
	phases, next := env.ladder(clk, cs, 0, o.seconds)
	p1 := readProc()
	d.after = obs.Default().Snapshot()
	for _, c := range scs {
		c.close()
	}
	ops := 0
	var over []float64
	for _, p := range phases {
		ops += len(p.samples)
		over = append(over, rep.account(p)...)
	}
	setCounters(rep, d, p0, p1, ops, 0, 0)
	oversleepMetrics(rep, over)

	sc := newServeConn(env.base, env.in, o.seed)
	sc.keepAll = true
	defer sc.close()
	completed, failed := closedLoop(clk, []conn{sc}, next, o.sizes.traceSample, clk.now()+time.Hour)
	rep.attempted += int64(completed)
	rep.failed += int64(failed)
	checkAnswers(rep, env.in, sc.kept)
	return replayServe(env, sc.kept, rep)
}

// replayServe replays the sampled requests through the layers.
func replayServe(env *serveEnv, sample []kept, rep *report) error {
	// The replay's cache sees the set-up warm-up, as the server's did.
	rc := core.NewResultCache(memo.Options{MaxEntries: env.w.cacheEntries})
	var b bytes.Buffer
	for _, r := range env.in.warm {
		b.Reset()
		path, err := env.in.body(r, &b)
		if err != nil {
			return err
		}
		if _, _, err := replayOne(rc, path, b.Bytes()); err != nil {
			return err
		}
	}
	var t layerTimes
	var fns []analyzeCall
	var w1, w2 time.Duration
	speedups := 0
	for _, k := range sample {
		b.Reset()
		path, err := env.in.body(k.req, &b)
		if err != nil {
			return err
		}
		lt, call, err := replayOne(rc, path, b.Bytes())
		if err != nil {
			return err
		}
		lt.roundtrip = k.rtt
		lt.ops = 1
		t.add(lt)
		if call.fn != nil {
			fns = append(fns, call)
		}
		if call.set != nil && speedups < 8 {
			speedups++
			for _, wk := range []int{1, 2} {
				opts := eval.SweepOptions{Qs: call.set.qs(), Workers: wk}
				prob, err := call.set.Spec.Build()
				if err != nil {
					return err
				}
				dt := timed(func() { _, err = eval.AnalyzeSet(nil, prob.Tasks, prob.Delay, opts) })
				if err != nil {
					return err
				}
				if wk == 1 {
					w1 += dt
				} else {
					w2 += dt
				}
			}
		}
	}
	setShares(rep, t, t.roundtrip)
	rep.set("eval.speedup_w2", ratio(float64(w1), float64(w2)))
	rep.set("core.allocs_per_call", allocsPer(len(fns), func(i int) {
		core.Analyze(nil, fns[i].fn, fns[i].q, core.Options{Method: fns[i].method})
	}))
	hc := core.NewResultCache(memo.Options{})
	for _, c := range fns {
		core.Analyze(nil, c.fn, c.q, core.Options{Method: c.method, Memo: hc})
	}
	rep.set("memo.hit_allocs", allocsPer(len(fns), func(i int) {
		core.Analyze(nil, fns[i].fn, fns[i].q, core.Options{Method: fns[i].method, Memo: hc})
	}))
	rep.set("exact.allocs_per_call", 0)
	return nil
}

// analyzeCall is one replayed analysis: an /v1/analyze input, or (set) an
// /v1/analyzeset body.
type analyzeCall struct {
	fn     delay.Function
	q      float64
	method core.Method
	set    *analyzeSetWire
}

// replayOne replays one request body and returns each layer's time. Steps
// without side effects run three times and the fastest counts, so the
// replay charges a layer only for work it cannot avoid; the memo steps and a
// delta sweep, which change the cache, run once. The memo step mirrors what
// core.Analyze does with the service's cache: one lookup, and on a miss the
// analysis and one insertion.
func replayOne(rc *memo.Cache, path string, body []byte) (layerTimes, analyzeCall, error) {
	var lt layerTimes
	var call analyzeCall
	var err error
	switch path {
	case "/v1/analyze":
		var w analyzeWire
		lt.decode = fastestOf(func() { err = decodeStrict(body, &w) })
		if err != nil {
			return lt, call, err
		}
		var fn delay.Function
		lt.build = fastestOf(func() { fn, err = w.Delay.Build(w.C) })
		if err != nil {
			return lt, call, err
		}
		var fp delay.Fingerprint
		lt.fingerprint = fastestOf(func() { fp, err = delay.FingerprintOf(fn) })
		if err != nil {
			return lt, call, err
		}
		verify := fmt.Sprintf("%x/%d/%x", fp[:], w.method(), math.Float64bits(w.Q))
		key := fnv64a(verify)
		var res core.Result
		var hit bool
		lt.memo = timed(func() { _, hit = rc.Get(key, verify) })
		lt.coreAll = fastestOf(func() { res, err = core.Analyze(nil, fn, w.Q, core.Options{Method: w.method()}) })
		if err != nil {
			return lt, call, err
		}
		if !hit {
			lt.core = lt.coreAll
			lt.memo += timed(func() { rc.Put(key, verify, res, 128) })
		}
		lt.coreCalls = 1
		lt.encode = fastestOf(func() {
			resp := map[string]any{"total_delay": res.TotalDelay, "preemptions": res.Preemptions,
				"diverged": res.Diverged, "steps": 0}
			if hit {
				resp["cached"] = true
			}
			encodeIndented(resp)
		})
		call = analyzeCall{fn: fn, q: w.Q, method: w.method()}
	case "/v1/analyzeset":
		var w analyzeSetWire
		lt.decode = fastestOf(func() { err = decodeStrict(body, &w) })
		if err != nil {
			return lt, call, err
		}
		var built *spec.Problem
		lt.build = fastestOf(func() { built, err = w.Spec.Build() })
		if err != nil {
			return lt, call, err
		}
		indexed := make([]delay.Function, len(built.Delay))
		lt.index = fastestOf(func() {
			for i, f := range built.Delay {
				indexed[i] = delay.AutoIndex(f)
			}
		})
		opts := eval.SweepOptions{Qs: w.qs()}
		if w.Delta {
			opts.Memo = rc
			lt.fingerprint = timed(func() {
				for _, f := range indexed {
					if f != nil {
						delay.FingerprintOf(f)
					}
				}
			})
		}
		var res []eval.SweepResult
		sweep := func() { res, err = eval.AnalyzeSet(nil, built.Tasks, indexed, opts) }
		if w.Delta {
			lt.eval = timed(sweep)
		} else {
			lt.eval = fastestOf(sweep)
		}
		if err != nil {
			return lt, call, err
		}
		lt.encode = fastestOf(func() {
			encodeIndented(map[string]any{"policy": built.Policy, "qs": opts.Qs, "results": res, "steps": 0})
		})
		call = analyzeCall{set: &w}
	default:
		return lt, call, fmt.Errorf("bench: no replay for %s", path)
	}
	return lt, call, nil
}

func (t *layerTimes) add(o layerTimes) {
	t.roundtrip += o.roundtrip
	t.decode += o.decode
	t.encode += o.encode
	t.build += o.build
	t.fingerprint += o.fingerprint
	t.index += o.index
	t.memo += o.memo
	t.core += o.core
	t.eval += o.eval
	t.sched += o.sched
	t.npr += o.npr
	t.exact += o.exact
	t.coreAll += o.coreAll
	t.coreCalls += o.coreCalls
	t.ops += o.ops
}

// fnv64a is the 64-bit FNV-1a hash, the fold the result cache keys with.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// traceCampaign is the traced run of a campaign workload: traceJobs jobs
// through HTTP for the counters and round trips, each replayed as a direct
// eval call, and the first job's functions or task sets replayed through the
// layers below eval.
func traceCampaign(w campaignWorkload, o runOpts, rep *report) error {
	env, _, err := setupCampaign()
	if err != nil {
		return err
	}
	defer env.close()
	d := counterDelta{before: obs.Default().Snapshot()}
	p0 := readProc()
	var runs []jobRun
	var over []float64
	for i := 0; i < o.sizes.traceJobs; i++ {
		rep.attempted++
		jr, err := env.runJob(w.path, w.body(jobSeed(o.seed, i), o.sizes))
		if err != nil {
			return err
		}
		if err := checkTable(jr.result, w.checks); err != nil {
			rep.wrong(err)
		}
		runs = append(runs, jr)
		for _, s := range jr.oversleep {
			over = append(over, float64(s)/1e3)
		}
	}
	p1 := readProc()
	d.after = obs.Default().Snapshot()
	ops := len(runs) * w.ops(o.sizes)
	funcs, sets := 0, 0
	if w.path == campaignAtlas.path {
		funcs = ops
	} else {
		sets = ops
	}
	setCounters(rep, d, p0, p1, ops, funcs, sets)
	oversleepMetrics(rep, over)

	var t layerTimes
	var w1 time.Duration
	for i, jr := range runs {
		seed := jobSeed(o.seed, i)
		body := w.body(seed, o.sizes)
		var sub map[string]any
		t.decode += fastestOf(func() { err = decodeStrict(body, &sub) })
		if err != nil {
			return err
		}
		// The direct runs repeat and the fastest counts: the replay charges
		// eval only for the work it cannot avoid, never for interference
		// during one run, so it does not outweigh the round trip it explains.
		var tbl *textplot.Table
		ev, err := fastest(3, func() (e error) { tbl, e = w.direct(seed, o.sizes, maxConns); return e })
		if err != nil {
			return err
		}
		t.eval += ev
		raw, err := json.Marshal(tbl)
		if err != nil {
			return err
		}
		if err := sameJSON(jr.result, raw); err != nil {
			rep.wrong(fmt.Errorf("traced job %d: %w", i, err))
		}
		t.encode += fastestOf(func() {
			encodeIndented(map[string]any{"id": "job-000001", "kind": "campaign", "state": "done",
				"fingerprint": "0123456789abcdef0123456789abcdef", "result": json.RawMessage(raw)})
		})
		serial, err := fastest(3, func() (e error) { _, e = w.direct(seed, o.sizes, 1); return e })
		if err != nil {
			return err
		}
		w1 += serial
		t.roundtrip += jr.latency
		t.ops++
	}
	rep.set("eval.speedup_w2", ratio(float64(w1), float64(t.eval)))

	// Below eval, the first job's work replayed serially; shares are of its
	// Workers: 1 wall time.
	inner := layerTimes{}
	var allocsCore, allocsExact float64
	if w.path == campaignAtlas.path {
		allocsCore, allocsExact, err = replayAtlas(jobSeed(o.seed, 0), o.sizes, &inner)
	} else {
		allocsCore, err = replayAcceptance(jobSeed(o.seed, 0), o.sizes, &inner)
	}
	if err != nil {
		return err
	}
	t.core, t.exact, t.sched, t.npr = inner.core, inner.exact, inner.sched, inner.npr
	t.coreAll, t.coreCalls = inner.coreAll, inner.coreCalls
	setShares(rep, t, w1/time.Duration(len(runs)))
	// The campaign's round trip holds only decode, eval and encode; the
	// inner layers run inside eval and are not children of the round trip.
	rep.set("server.self_us", float64(t.roundtrip-t.decode-t.eval-t.encode)/float64(t.ops)/1e3)
	rep.set("trace.coverage", ratio(float64(t.decode+t.eval+t.encode), float64(t.roundtrip)))
	rep.set("core.allocs_per_call", allocsCore)
	rep.set("exact.allocs_per_call", allocsExact)
	rep.set("memo.hit_allocs", 0)
	return nil
}

// atlasCurve draws one curve of an atlas family: a 3–6 piece step function
// over [0, c) whose maximum stays below q, front-loaded, back-loaded or with
// two peaks. It is the benchmark's own generator with the families' shapes
// (the campaign's is unexported); the job's exact.states counter shows the
// work is comparable.
func atlasCurve(r *rand.Rand, fam int, c, q float64) (*delay.Piecewise, error) {
	maxV := q * (0.35 + 0.4*r.Float64())
	pieces := 3 + r.Intn(4)
	xs := []float64{0}
	for i := 1; i < pieces; i++ {
		xs = append(xs, c*(float64(i)+r.Float64()*0.6)/float64(pieces))
	}
	xs = append(xs, c)
	vs := make([]float64, pieces)
	for i := range vs {
		frac := float64(i) / float64(pieces-1)
		jitter := 0.75 + 0.25*r.Float64()
		switch fam {
		case 0:
			vs[i] = maxV * (1 - frac*0.9) * jitter
		case 1:
			vs[i] = maxV * (0.1 + frac*0.9) * jitter
		default:
			vs[i] = maxV * (0.15 + 0.85*math.Abs(2*frac-1)) * jitter
		}
	}
	return delay.NewPiecewise(xs, vs)
}

// allocSample is how many calls the allocation counts average over.
const allocSample = 500

// coreCall is one replayed core.Analyze input.
type coreCall struct {
	f delay.Function
	q float64
}

// timeCore times the Algorithm 1 and Equation 4 bounds of f at q.
func timeCore(t *layerTimes, f delay.Function, q float64) error {
	var err error
	for _, m := range []core.Method{core.Algorithm1, core.Equation4} {
		dt := timed(func() { _, err = core.Analyze(nil, f, q, core.Options{Method: m}) })
		if err != nil {
			return err
		}
		t.core += dt
		t.coreAll += dt
		t.coreCalls++
	}
	return nil
}

// coreAllocs counts allocations per Algorithm 1 bound over calls.
func coreAllocs(calls []coreCall) float64 {
	return allocsPer(len(calls), func(i int) { core.Analyze(nil, calls[i].f, calls[i].q, core.Options{}) })
}

// replayAtlas replays one atlas job's functions through exact.Delay and the
// two core.Analyze bounds, and returns the allocations per core and exact
// call.
func replayAtlas(seed int64, s sizes, t *layerTimes) (float64, float64, error) {
	ex := exact.NewExplorer()
	var sample []coreCall
	var err error
	for fam := 0; fam < 3; fam++ {
		for qi, q := range atlasQs {
			for trial := 0; trial < s.atlasFuncs; trial++ {
				f, err := atlasCurve(synth.SubRand(seed, fam*len(atlasQs)+qi, trial), fam, atlasC, q)
				if err != nil {
					return 0, 0, err
				}
				t.exact += timed(func() { _, err = ex.Delay(nil, f, q, exact.Options{}) })
				if err != nil {
					return 0, 0, err
				}
				if err := timeCore(t, f, q); err != nil {
					return 0, 0, err
				}
				if len(sample) < allocSample {
					sample = append(sample, coreCall{f, q})
				}
			}
		}
	}
	ae := allocsPer(len(sample), func(i int) {
		_, err = ex.Delay(nil, sample[i].f.(*delay.Piecewise), sample[i].q, exact.Options{})
	})
	return coreAllocs(sample), ae, err
}

// replayAcceptance replays one acceptance job's trials the way the campaign
// builds them (synth.SubRand → synth.TaskSet → npr.AssignQ → four
// sched.Analyze calls) and, for the core share, the Algorithm 1 and
// Equation 4 bounds sched computes per task. sched's own share is its time
// minus those core calls. It returns the allocations per core call.
func replayAcceptance(seed int64, s sizes, t *layerTimes) (float64, error) {
	p := acceptanceParams(seed, s, 1)
	var sample []coreCall
	var schedT time.Duration
	pt := 0
	for u := p.UStart; u <= p.UEnd+1e-9; u += p.UStep {
		for tr := 0; tr < p.SetsPerPoint; tr++ {
			r := synth.SubRand(p.Seed, pt, tr)
			ts, err := synth.TaskSet(r, synth.TaskSetParams{N: p.Tasks, Utilization: u,
				PeriodLo: 20, PeriodHi: 2000, RoundPeriod: true, QFraction: p.QFraction, MinQ: 0.1})
			if err != nil {
				return 0, err
			}
			var qs task.Set
			t.npr += timed(func() { qs, err = npr.AssignQ(ts, npr.FixedPriority) })
			if err != nil {
				continue // infeasible even fully preemptively: rejected everywhere
			}
			for i := range ts {
				if qs[i].Q < ts[i].Q {
					ts[i].Q = qs[i].Q
				}
				if ts[i].Q <= 0 {
					ts[i].Q = 1e-3
				}
			}
			fns := make([]delay.Function, len(ts))
			for i, tk := range ts {
				if i == 0 {
					continue // highest priority: never preempted
				}
				peak := p.DelayScale * tk.C
				if peak >= tk.Q {
					peak = tk.Q * 0.8
				}
				if fns[i], err = delay.NewFrontLoaded(peak, peak/5, tk.C); err != nil {
					return 0, err
				}
			}
			schedT += timed(func() {
				var warm []float64
				if nd, err := sched.Analyze(nil, ts, sched.Options{Delay: make([]delay.Function, len(ts)), Method: sched.Algorithm1}); err == nil {
					warm = nd.Response
				}
				a1, err := sched.Analyze(nil, ts, sched.Options{Delay: fns, Method: sched.Algorithm1, Warm: warm})
				sched.Analyze(nil, ts, sched.Options{Delay: fns, Method: sched.Algorithm1, Limited: true, Warm: warm})
				if err == nil {
					warm = a1.Response
				}
				sched.Analyze(nil, ts, sched.Options{Delay: fns, Method: sched.Equation4, Warm: warm})
			})
			for i := 1; i < len(ts); i++ {
				if err := timeCore(t, fns[i], ts[i].Q); err != nil {
					return 0, err
				}
				if len(sample) < allocSample {
					sample = append(sample, coreCall{fns[i], ts[i].Q})
				}
			}
		}
		pt++
	}
	if t.sched = schedT - t.core; t.sched < 0 {
		t.sched = 0
	}
	return coreAllocs(sample), nil
}
