package eval

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"fnpr/internal/delay"
	"fnpr/internal/guard"
	"fnpr/internal/journal"
	"fnpr/internal/npr"
	"fnpr/internal/obs"
	"fnpr/internal/sched"
	"fnpr/internal/synth"
	"fnpr/internal/task"
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
	case p.Tasks > maxTasks:
		return guard.Invalidf("eval: Tasks %d exceeds the limit of %d", p.Tasks, maxTasks)
	}
	if n := len(p.points()); n > maxUtilPoints {
		return guard.Invalidf("eval: utilization grid %g..%g by %g exceeds %d points", p.UStart, p.UEnd, p.UStep, maxUtilPoints)
	} else if p.SetsPerPoint > maxTrials/n {
		return guard.Invalidf("eval: %d points of %d sets exceed the limit of %d trials", n, p.SetsPerPoint, maxTrials)
	}
	return nil
}

func (p AcceptanceParams) scope(g *guard.Ctx) *obs.Scope {
	if p.Obs != nil {
		return p.Obs
	}
	return g.Obs()
}

// maxUtilPoints caps the utilization grid.
const maxUtilPoints = 1000

// points enumerates the utilization grid, stopping after maxUtilPoints+1
// points: a step too small to advance u past its rounding would otherwise
// never end it, and Validate rejects a grid that long.
func (p AcceptanceParams) points() []float64 {
	var pts []float64
	for u := p.UStart; u <= p.UEnd+1e-9 && len(pts) <= maxUtilPoints; u += p.UStep {
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

// acceptanceWorker is one pool worker's reusable trial state: its shard
// stream and the delay curves each trial rebuilds in place. none is the
// all-nil delay slice of the no-delay envelope.
type acceptanceWorker struct {
	st     synth.Stream
	curves []delay.Piecewise
	fns    []delay.Function
	none   []delay.Function
}

func newAcceptanceWorker(tasks int) *acceptanceWorker {
	return &acceptanceWorker{
		curves: make([]delay.Piecewise, tasks),
		fns:    make([]delay.Function, tasks),
		none:   make([]delay.Function, tasks),
	}
}

// acceptanceTrial draws the (point, trial) shard's task set from its own RNG
// sub-stream and decides the four verdicts on it (acceptanceVerdicts).
// Analysis failures count as rejections (the set is not admitted) unless
// the guard aborted, which stops the campaign.
func acceptanceTrial(g *guard.Ctx, p AcceptanceParams, point int, u float64, trial int, w *acceptanceWorker) (acceptanceVerdict, error) {
	if err := g.Tick(); err != nil {
		return acceptanceVerdict{}, err
	}
	ts, fns, err := w.draw(p, point, u, trial)
	if err != nil || ts == nil {
		return acceptanceVerdict{}, err
	}
	// The analyses count into the campaign's scope, which p.Obs overrides.
	return acceptanceVerdicts(g, p.scope(g), ts, fns, w.none[:len(ts)])
}

// draw builds the (point, trial) shard's task set and its front-loaded delay
// curves in the worker's buffers. A nil set means a set infeasible even
// fully preemptively: it counts as a rejection everywhere.
func (w *acceptanceWorker) draw(p AcceptanceParams, point int, u float64, trial int) (task.Set, []delay.Function, error) {
	r := w.st.Sub(p.Seed, point, trial)
	ts, err := synth.TaskSet(r, synth.TaskSetParams{
		N: p.Tasks, Utilization: u,
		PeriodLo: 20, PeriodHi: 2000, RoundPeriod: true,
		QFraction: p.QFraction, MinQ: 0.1,
	})
	if err != nil {
		return nil, nil, err
	}
	// Clamp each Q by the blocking tolerance of the higher-priority tasks
	// (the paper assumes Q comes from such an analysis).
	if err := npr.ClampQ(nil, ts, npr.FixedPriority); err != nil {
		return nil, nil, nil
	}
	for i := range ts {
		if ts[i].Q <= 0 {
			ts[i].Q = 1e-3
		}
	}
	fns := w.fns[:len(ts)] // fns[0] stays nil: the highest priority is never preempted
	for i, tk := range ts[1:] {
		peak := p.DelayScale * tk.C
		// Keep the analysis well-defined: the NPR must exceed the peak
		// delay or every bound diverges.
		if peak >= tk.Q {
			peak = tk.Q * 0.8
		}
		if err := w.curves[i+1].ResetFrontLoaded(peak, peak/5, tk.C); err != nil {
			return nil, nil, err
		}
		fns[i+1] = &w.curves[i+1]
	}
	return ts, fns, nil
}

// acceptanceVerdicts decides which of the four analyses admit ts under the
// delay curves fns (none is the all-nil slice of the no-delay envelope).
// It runs only the analyses whose verdict the bound ordering leaves open
// (DESIGN §11.3): delays are non-negative, the limited C' never exceeds
// Algorithm 1's, Algorithm 1's never exceeds Equation 4's, and the
// response-time recurrence is monotone in C'. Algorithm 1 runs first:
//
//   - if it admits, so do the no-delay and the limited analyses, and only
//     Equation 4 runs;
//   - if it rejects (a divergent bound included), so does Equation 4, and
//     the no-delay analysis runs;
//   - if that rejects too, so does the limited analysis; if it admits,
//     the limited analysis runs.
//
// Equation 4 is warm-started from Algorithm 1's response times and the
// limited analysis from the no-delay ones, both lower bounds. Seeding keeps
// every result bit-identical (see sched.Options.Warm); it only trims
// iterations.
func acceptanceVerdicts(g *guard.Ctx, sc *obs.Scope, ts task.Set, fns, none []delay.Function) (acceptanceVerdict, error) {
	var v acceptanceVerdict
	a1, a1RTs, err := admits(g, ts, sched.Options{Obs: sc, Delay: fns, Method: sched.Algorithm1})
	if err != nil {
		return v, err
	}
	if a1 {
		v.admit[0], v.admit[1], v.admit[3] = true, true, true
		v.admit[2], _, err = admits(g, ts, sched.Options{Obs: sc, Delay: fns, Method: sched.Equation4, Warm: a1RTs})
		return v, err
	}
	nd, ndRTs, err := admits(g, ts, sched.Options{Obs: sc, Delay: none, Method: sched.Algorithm1})
	if !nd || err != nil {
		return v, err
	}
	v.admit[3] = true
	v.admit[1], _, err = admits(g, ts, sched.Options{Obs: sc, Delay: fns, Method: sched.Algorithm1, Limited: true, Warm: ndRTs})
	return v, err
}

// admits runs one analysis and reports whether it admits ts, with its
// response times. An error is a rejection unless it is abortive, which it
// returns.
func admits(g *guard.Ctx, ts task.Set, opts sched.Options) (bool, []float64, error) {
	res, err := sched.Analyze(g, ts, opts)
	switch {
	case err == nil:
		return res.Schedulable, res.Response, nil
	case guard.Abortive(err):
		return false, nil, err
	}
	return false, nil, nil
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
	mCampaignWorkers.On(sc).Set(float64(workers))

	admits := make([][4]int, len(pts))
	restored := make([]bool, len(pts))
	if n, err := p.restore(pts, admits, restored); err != nil {
		return nil, err
	} else if n > 0 {
		mCampaignRestored.On(sc).Add(int64(n))
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

	if err := p.runSharded(g, sc, pts, workers, admits, restored, checkpoint); err != nil {
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

// runSharded runs the campaign's (point, trial) shards on the worker pool,
// writing each verdict into its own slot of a shared slice. The worker
// finishing a point's last trial aggregates that point's admit counts into
// admits (verdicts are per-slot, so the aggregation order — and hence the
// table — is independent of worker interleaving), checkpoints it and emits
// its progress event. Restored points run no trial. The first error stops
// the campaign.
func (p AcceptanceParams) runSharded(g *guard.Ctx, sc *obs.Scope, pts []float64, workers int,
	admits [][4]int, restored []bool, checkpoint func(int, float64, [4]int) error) error {
	trialsDone := mCampaignTrials.On(sc)
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
	return runPool(g, workers, total, func() func(*guard.Ctx, int) error {
		w := newAcceptanceWorker(p.Tasks)
		return func(g *guard.Ctx, idx int) error {
			pt, tr := idx/p.SetsPerPoint, idx%p.SetsPerPoint
			if restored[pt] {
				return nil
			}
			v, err := acceptanceTrial(g, p, pt, pts[pt], tr, w)
			if err != nil {
				return err
			}
			verdicts[idx] = v
			trialsDone.Inc()
			done := completed.Add(1)
			if pointLeft[pt].Add(-1) != 0 {
				return nil
			}
			// Last trial of the point: every sibling slot was written
			// before its pointLeft decrement, so the aggregation below
			// observes all of them.
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
				return err
			}
			sc.Emit(obs.Event{Type: obs.CampaignPoint, Spec: "acceptance",
				Q: pts[pt], Completed: int(done), Total: total})
			return nil
		}
	})
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
