package eval

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"fnpr/internal/delay"
	"fnpr/internal/guard"
	"fnpr/internal/journal"
	"fnpr/internal/npr"
	"fnpr/internal/obs"
	"fnpr/internal/sched"
	"fnpr/internal/synth"
	"fnpr/internal/textplot"
)

// AcceptanceParams configures the schedulability acceptance-ratio
// experiment — an extension beyond the paper's own evaluation, in the style
// its venue uses to compare schedulability tests: sweep total utilization,
// draw random task sets, and measure the fraction each analysis admits.
type AcceptanceParams struct {
	// Seed makes the experiment reproducible. Every (point, trial) shard
	// derives its own RNG sub-stream from it (synth.Stream.Sub), so the
	// campaign's output is a pure function of the seed — never of the
	// worker count or goroutine scheduling.
	Seed int64
	// SetsPerPoint is the number of random task sets per utilization.
	SetsPerPoint int
	// Tasks per set.
	Tasks int
	// UStart, UEnd, UStep define the utilization sweep.
	UStart, UEnd, UStep float64
	// DelayScale sets the peak preemption delay as a fraction of each
	// task's C (front-loaded pattern).
	DelayScale float64
	// QFraction sets Q as a fraction of C (clamped to C).
	QFraction float64
	// Workers is the size of the trial worker pool; <= 0 selects
	// GOMAXPROCS, 1 runs serially on the caller's goroutine. The result
	// is bit-identical for every value.
	Workers int
	// Obs receives campaign progress events and metrics; nil falls back
	// to the guard's scope.
	Obs *obs.Scope
	// Journal, when non-nil, checkpoints each fully aggregated utilization
	// point as it completes, so an aborted campaign (SIGTERM, deadline,
	// budget) can be resumed without redoing finished points.
	Journal *journal.Journal
	// Resume is the journal's latest-record view (journal.Latest); restored
	// points skip all their trials. Because every point is a pure function
	// of (Seed, point, trial), a resumed campaign's table is byte-identical
	// to an uninterrupted run's.
	Resume map[string]json.RawMessage
}

// DefaultAcceptanceParams returns the configuration used by the figures
// binary and the benchmark suite.
func DefaultAcceptanceParams() AcceptanceParams {
	return AcceptanceParams{
		Seed:         1,
		SetsPerPoint: 200,
		Tasks:        5,
		UStart:       0.40,
		UEnd:         0.95,
		UStep:        0.05,
		DelayScale:   0.10,
		QFraction:    0.25,
	}
}

// Validate rejects malformed campaign parameters up front, so a bad config
// fails fast instead of looping forever or failing thousands of trials in.
func (p AcceptanceParams) Validate() error {
	switch {
	case p.SetsPerPoint <= 0:
		return guard.Invalidf("eval: SetsPerPoint %d, need > 0", p.SetsPerPoint)
	case p.Tasks <= 0:
		return guard.Invalidf("eval: Tasks %d, need > 0", p.Tasks)
	case math.IsNaN(p.UStep) || p.UStep <= 0:
		return guard.Invalidf("eval: UStep %g, need > 0", p.UStep)
	case math.IsNaN(p.UStart) || math.IsInf(p.UStart, 0) || p.UStart <= 0:
		return guard.Invalidf("eval: UStart %g, need finite > 0", p.UStart)
	case math.IsNaN(p.UEnd) || math.IsInf(p.UEnd, 0) || p.UEnd < p.UStart:
		return guard.Invalidf("eval: UEnd %g, need finite >= UStart %g", p.UEnd, p.UStart)
	case math.IsNaN(p.DelayScale) || p.DelayScale < 0:
		return guard.Invalidf("eval: DelayScale %g, need >= 0", p.DelayScale)
	case math.IsNaN(p.QFraction) || p.QFraction <= 0:
		return guard.Invalidf("eval: QFraction %g, need > 0", p.QFraction)
	}
	return nil
}

func (p AcceptanceParams) scope(g *guard.Ctx) *obs.Scope {
	if p.Obs != nil {
		return p.Obs
	}
	return g.Obs()
}

// points enumerates the utilization grid.
func (p AcceptanceParams) points() []float64 {
	var pts []float64
	for u := p.UStart; u <= p.UEnd+1e-9; u += p.UStep {
		pts = append(pts, u)
	}
	return pts
}

// acceptanceMetaKey fingerprints a journaled campaign; acceptancePointKey is
// the journal key of one fully aggregated utilization point.
const acceptanceMetaKey = "campaign:acceptance"

func acceptancePointKey(pt int, u float64) string {
	return fmt.Sprintf("accpoint:%d:%g", pt, u)
}

// acceptanceMeta is the journal fingerprint of a campaign's shape. Every
// parameter that changes the verdicts is included, so resuming with different
// parameters is rejected instead of silently mixing two experiments.
type acceptanceMeta struct {
	Seed         int64   `json:"seed"`
	SetsPerPoint int     `json:"sets"`
	Tasks        int     `json:"tasks"`
	UStart       float64 `json:"ustart"`
	UEnd         float64 `json:"uend"`
	UStep        float64 `json:"ustep"`
	DelayScale   float64 `json:"delayscale"`
	QFraction    float64 `json:"qfraction"`
}

// acceptancePointRec is one checkpointed point: the utilization and the
// per-analysis admit counts over the point's SetsPerPoint trials.
type acceptancePointRec struct {
	U     float64 `json:"u"`
	Admit [4]int  `json:"admit"`
}

// checkMeta verifies a resumed journal belongs to this campaign's parameters
// and stamps a fresh journal with them.
func (p AcceptanceParams) checkMeta() error {
	meta := acceptanceMeta{
		Seed: p.Seed, SetsPerPoint: p.SetsPerPoint, Tasks: p.Tasks,
		UStart: p.UStart, UEnd: p.UEnd, UStep: p.UStep,
		DelayScale: p.DelayScale, QFraction: p.QFraction,
	}
	if p.Resume != nil {
		var prev acceptanceMeta
		ok, err := journal.Get(p.Resume, acceptanceMetaKey, &prev)
		if err != nil {
			return err
		}
		if ok {
			if prev != meta {
				return guard.Invalidf("eval: journal belongs to a different acceptance campaign (%+v)", prev)
			}
			return nil
		}
	}
	if p.Journal != nil {
		return p.Journal.Append(acceptanceMetaKey, meta)
	}
	return nil
}

// restore loads checkpointed points from the resume view. admits[pt] and
// restored[pt] are filled for every point the journal already holds.
func (p AcceptanceParams) restore(pts []float64, admits [][4]int, restored []bool) (int, error) {
	if p.Resume == nil {
		return 0, nil
	}
	n := 0
	for pt, u := range pts {
		var rec acceptancePointRec
		ok, err := journal.Get(p.Resume, acceptancePointKey(pt, u), &rec)
		if err != nil {
			return n, err
		}
		if ok && rec.U == u {
			admits[pt] = rec.Admit
			restored[pt] = true
			n++
		}
	}
	return n, nil
}

// acceptanceVerdict is the outcome of one random task set: which of the four
// analyses admitted it. It depends only on (Seed, point, trial) — the
// campaign aggregates verdicts in shard order, so the table is identical for
// every worker count.
type acceptanceVerdict struct {
	admit [4]bool
}

// acceptanceTrial draws the (point, trial) shard's task set from its own RNG
// sub-stream and runs the four analyses. Analysis failures count as
// rejections (the set is not admitted) unless the guard aborted, which stops
// the campaign.
//
// The response-time fixpoints are warm-chained: delay bounds are
// non-negative, so the no-delay response times lower-bound every delay-aware
// variant, and Algorithm 1's response times lower-bound Equation 4's (its C'
// vector is pointwise smaller). Seeding is sound in that direction and keeps
// every result bit-identical (see sched.Options.Warm); it only trims
// fixpoint iterations.
func acceptanceTrial(g *guard.Ctx, p AcceptanceParams, point int, u float64, trial int, st *synth.Stream) (acceptanceVerdict, error) {
	var v acceptanceVerdict
	if err := g.Tick(); err != nil {
		return v, err
	}
	r := st.Sub(p.Seed, point, trial)
	ts, err := synth.TaskSet(r, synth.TaskSetParams{
		N: p.Tasks, Utilization: u,
		PeriodLo: 20, PeriodHi: 2000, RoundPeriod: true,
		QFraction: p.QFraction, MinQ: 0.1,
	})
	if err != nil {
		return v, err
	}
	// Clamp each Q by the blocking tolerance of the higher-priority tasks
	// (the paper assumes Q comes from such an analysis); sets that are
	// infeasible even fully preemptively count as rejections everywhere.
	if qs, err := npr.AssignQ(ts, npr.FixedPriority); err == nil {
		for i := range ts {
			if qs[i].Q < ts[i].Q {
				ts[i].Q = qs[i].Q
			}
			if ts[i].Q <= 0 {
				ts[i].Q = 1e-3
			}
		}
	} else {
		return v, nil
	}
	fns := make([]delay.Function, len(ts))
	for i, tk := range ts {
		if i == 0 {
			continue // highest priority: never preempted
		}
		peak := p.DelayScale * tk.C
		// Keep the analysis well-defined: the NPR must exceed the peak
		// delay or every bound diverges.
		if peak >= tk.Q {
			peak = tk.Q * 0.8
		}
		fn, err := delay.NewFrontLoaded(peak, peak/5, tk.C)
		if err != nil {
			return v, err
		}
		fns[i] = fn
	}
	// No-delay envelope first: its response times seed the others.
	var ndRTs []float64
	nd, err := sched.Analyze(g, ts, sched.Options{Delay: make([]delay.Function, len(ts)), Method: sched.Algorithm1})
	if err == nil {
		v.admit[3] = nd.Schedulable
		ndRTs = nd.Response
	} else if guard.Abortive(err) {
		return v, err
	}
	var a1RTs []float64
	a1, err := sched.Analyze(g, ts, sched.Options{Delay: fns, Method: sched.Algorithm1, Warm: ndRTs})
	if err == nil {
		v.admit[0] = a1.Schedulable
		a1RTs = a1.Response
	} else if guard.Abortive(err) {
		return v, err
	}
	if lim, err := sched.Analyze(g, ts, sched.Options{Delay: fns, Method: sched.Algorithm1, Limited: true, Warm: ndRTs}); err == nil {
		v.admit[1] = lim.Schedulable
	} else if guard.Abortive(err) {
		return v, err
	}
	e4Warm := ndRTs
	if a1RTs != nil {
		e4Warm = a1RTs // Algorithm 1 lower-bounds Equation 4
	}
	if e4, err := sched.Analyze(g, ts, sched.Options{Delay: fns, Method: sched.Equation4, Warm: e4Warm}); err == nil {
		v.admit[2] = e4.Schedulable
	} else if guard.Abortive(err) {
		return v, err
	}
	return v, nil
}

// Acceptance runs the experiment and returns the acceptance ratio of each
// analysis per utilization point:
//
//	algorithm1          — FNPR RTA with the paper's Algorithm 1 C'
//	algorithm1-limited  — plus the preemption-count refinement
//	equation4           — FNPR RTA with the state-of-the-art Equation 4 C'
//	no-delay            — FNPR RTA ignoring preemption delay (optimistic
//	                      upper envelope on what any sound test can admit)
//
// Trials are sharded over p.Workers goroutines; each shard draws from its
// own deterministic RNG sub-stream and verdicts are aggregated in shard
// order, so the table is bit-identical for every worker count.
//
// With a Journal attached, every fully aggregated utilization point is
// checkpointed as it completes, and a Resume view restores finished points
// without rerunning a single trial; determinism makes the resumed table
// byte-identical to an uninterrupted run's.
func Acceptance(g *guard.Ctx, p AcceptanceParams) (*textplot.Table, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.checkMeta(); err != nil {
		return nil, err
	}
	if err := g.Err(); err != nil {
		return nil, err
	}
	pts := p.points()
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sc := p.scope(g)
	total := len(pts) * p.SetsPerPoint
	sc.Emit(obs.Event{Type: obs.CampaignStarted, Spec: "acceptance", Total: total})
	sc.Gauge("campaign.workers").Set(float64(workers))
	trialsDone := sc.Counter("campaign.trials")

	admits := make([][4]int, len(pts))
	restored := make([]bool, len(pts))
	if n, err := p.restore(pts, admits, restored); err != nil {
		return nil, err
	} else if n > 0 {
		sc.Counter("campaign.points.restored").Add(int64(n))
		sc.Emit(obs.Event{Type: obs.CampaignResumed, Spec: "acceptance",
			Restored: n * p.SetsPerPoint, Total: total})
	}
	// checkpoint appends the point's aggregate to the journal; an append
	// failure aborts the campaign (a journal that silently stops recording
	// would resume wrong).
	checkpoint := func(pt int, u float64, admit [4]int) error {
		if p.Journal == nil {
			return nil
		}
		return p.Journal.Append(acceptancePointKey(pt, u), acceptancePointRec{U: u, Admit: admit})
	}

	if workers == 1 {
		st := new(synth.Stream)
		done := 0
		for pt, u := range pts {
			if restored[pt] {
				done += p.SetsPerPoint
				continue
			}
			var admit [4]int
			for tr := 0; tr < p.SetsPerPoint; tr++ {
				v, err := acceptanceTrial(g, p, pt, u, tr, st)
				if err != nil {
					return nil, err
				}
				for k, ok := range v.admit {
					if ok {
						admit[k]++
					}
				}
				trialsDone.Inc()
			}
			admits[pt] = admit
			if err := checkpoint(pt, u, admit); err != nil {
				return nil, err
			}
			done += p.SetsPerPoint
			sc.Emit(obs.Event{Type: obs.CampaignPoint, Spec: "acceptance",
				Q: u, Completed: done, Total: total})
		}
	} else if err := p.runSharded(g, sc, pts, workers, admits, restored, checkpoint); err != nil {
		return nil, err
	}

	tbl := &textplot.Table{
		XLabel: "utilization",
		YLabel: "acceptance ratio",
		Series: []textplot.Series{
			{Name: "algorithm1"},
			{Name: "algorithm1-limited"},
			{Name: "equation4"},
			{Name: "no-delay"},
		},
	}
	for pt, u := range pts {
		tbl.X = append(tbl.X, u)
		for k := 0; k < 4; k++ {
			tbl.Series[k].Y = append(tbl.Series[k].Y, float64(admits[pt][k])/float64(p.SetsPerPoint))
		}
	}
	if err := tbl.Validate(); err != nil {
		return nil, err
	}
	sc.Emit(obs.Event{Type: obs.CampaignFinished, Spec: "acceptance",
		Completed: total, Total: total})
	return tbl, nil
}

// runSharded fans the campaign's (point, trial) shards out over the worker
// pool, writing each verdict into its own slot of a shared slice. The worker
// finishing a point's last trial aggregates that point's admit counts into
// admits (verdicts are per-slot, so the aggregation order — and hence the
// table — is independent of worker interleaving), checkpoints it and emits
// its progress event. Restored points are never enqueued. The first abortive
// error wins; remaining shards are skipped.
func (p AcceptanceParams) runSharded(g *guard.Ctx, sc *obs.Scope, pts []float64, workers int,
	admits [][4]int, restored []bool, checkpoint func(int, float64, [4]int) error) error {
	trialsDone := sc.Counter("campaign.trials")
	total := len(pts) * p.SetsPerPoint
	verdicts := make([]acceptanceVerdict, total)
	// pointLeft counts each utilization point's outstanding trials so the
	// worker finishing a point's last trial can aggregate and checkpoint it.
	pointLeft := make([]atomic.Int64, len(pts))
	var completed atomic.Int64
	for i := range pointLeft {
		if restored[i] {
			completed.Add(int64(p.SetsPerPoint))
			continue
		}
		pointLeft[i].Store(int64(p.SetsPerPoint))
	}

	var (
		mu       sync.Mutex
		abortErr error
	)
	abort := func(err error) {
		mu.Lock()
		if abortErr == nil {
			abortErr = err
		}
		mu.Unlock()
	}
	aborted := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return abortErr != nil
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := new(synth.Stream) // per-worker shard stream
			for idx := range jobs {
				if aborted() {
					continue
				}
				pt := idx / p.SetsPerPoint
				tr := idx % p.SetsPerPoint
				v, err := acceptanceTrial(g, p, pt, pts[pt], tr, st)
				if err != nil {
					abort(err)
					continue
				}
				verdicts[idx] = v
				trialsDone.Inc()
				done := completed.Add(1)
				if pointLeft[pt].Add(-1) == 0 {
					// Last trial of the point: every sibling slot was
					// written before its pointLeft decrement, so the
					// aggregation below observes all of them.
					var admit [4]int
					for i := pt * p.SetsPerPoint; i < (pt+1)*p.SetsPerPoint; i++ {
						for k, ok := range verdicts[i].admit {
							if ok {
								admit[k]++
							}
						}
					}
					admits[pt] = admit
					if err := checkpoint(pt, pts[pt], admit); err != nil {
						abort(err)
						continue
					}
					sc.Emit(obs.Event{Type: obs.CampaignPoint, Spec: "acceptance",
						Q: pts[pt], Completed: int(done), Total: total})
				}
			}
		}()
	}
	for idx := 0; idx < total; idx++ {
		if restored[idx/p.SetsPerPoint] {
			continue
		}
		jobs <- idx
	}
	close(jobs)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return abortErr
}

// AcceptanceChecks verifies the structural guarantees the experiment must
// exhibit: ratios in [0,1]; equation4 never admits a set algorithm1 rejects
// in aggregate (soundness of the dominance claim at population level:
// ratio(eq4) <= ratio(alg1)); the limited refinement at least matches
// algorithm1; nothing exceeds the no-delay envelope.
func AcceptanceChecks(tbl *textplot.Table) error {
	col := func(name string) []float64 {
		for _, s := range tbl.Series {
			if s.Name == name {
				return s.Y
			}
		}
		return nil
	}
	a1 := col("algorithm1")
	a1l := col("algorithm1-limited")
	e4 := col("equation4")
	nd := col("no-delay")
	if a1 == nil || a1l == nil || e4 == nil || nd == nil {
		return fmt.Errorf("eval: acceptance table incomplete")
	}
	for i := range tbl.X {
		for _, v := range []float64{a1[i], a1l[i], e4[i], nd[i]} {
			if v < 0 || v > 1 {
				return fmt.Errorf("eval: ratio %g outside [0,1] at U=%g", v, tbl.X[i])
			}
		}
		if e4[i] > a1[i]+1e-12 {
			return fmt.Errorf("eval: equation4 (%g) above algorithm1 (%g) at U=%g", e4[i], a1[i], tbl.X[i])
		}
		if a1[i] > a1l[i]+1e-12 {
			return fmt.Errorf("eval: algorithm1 (%g) above limited refinement (%g) at U=%g", a1[i], a1l[i], tbl.X[i])
		}
		if a1l[i] > nd[i]+1e-12 {
			return fmt.Errorf("eval: limited (%g) above no-delay envelope (%g) at U=%g", a1l[i], nd[i], tbl.X[i])
		}
	}
	return nil
}
