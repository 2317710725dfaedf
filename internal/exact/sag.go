package exact

import (
	"encoding/hex"
	"math"
	"slices"

	"fnpr/internal/guard"
	"fnpr/internal/task"
)

// maxSAGJobs caps the job count of one schedule-graph window; beyond it the
// instance is rejected up front (the state budget would trip long before the
// window completed anyway).
const maxSAGJobs = 4096

// SAGResult carries the outcome of one schedule-graph exploration.
type SAGResult struct {
	// WCRT and BCRT hold per-task worst- and best-case response times over
	// the analysed window (latest finish minus earliest release, and the
	// symmetric best case, maximised/minimised over the task's jobs and
	// all execution orders).
	WCRT, BCRT []float64
	// Jobs is the number of jobs in the window.
	Jobs int
	// States, Merges and Prunes count expanded states, same-set interval
	// unions and contained-interval absorptions.
	States, Merges, Prunes int
	// Depth is the number of BFS layers completed (equals Jobs on a full
	// exploration).
	Depth int
	// PeakFrontier is the widest per-layer frontier after merging.
	PeakFrontier int
	// Schedulable reports every task's WCRT within its deadline.
	Schedulable bool
	// Cached reports a whole-result memo hit.
	Cached bool
}

// sagJob is one job of the analysed window. Jobs are ordered task-major
// (tasks in priority order, releases in order within a task), so the slice
// index doubles as the fixed-priority dispatch order with same-task FIFO.
type sagJob struct {
	task       int
	rmin, rmax float64
	emin, emax float64
}

// sagState is one schedule-graph node: the set of dispatched jobs (a bitmask
// slice into the explorer's word slab) and the interval of instants at which
// the processor possibly becomes available.
type sagState struct {
	off    int // word offset into the owning slab
	lo, hi float64
}

// sagExplorer holds the reusable slabs of one exploration.
type sagExplorer struct {
	jobs       []sagJob
	words      int
	cur, next  []sagState
	curSlab    []uint64
	nextSlab   []uint64
	wcrt, bcrt []float64
}

// ResponseTimes runs the exact schedule-graph analysis of a non-preemptive
// fixed-priority job set over one hyperperiod (or opts.Horizon): every task
// releases jobs periodically with release jitter [kT, kT+J] and execution
// in [BCET, C], the dispatcher is work-conserving non-preemptive FP, and
// the result is the exact per-task response-time range over all execution
// scenarios. Tasks must be in priority order (index 0 highest), as in
// package sched.
//
// FNPR semantics enter through the execution bounds: analysing a set whose
// C was inflated by a cumulative preemption-delay bound (C' = C + delay)
// yields response times exact for the inflated set — the atlas campaign
// compares the same window under exact, Algorithm 1 and Equation 4
// inflations, where the sustainability of the model (response times are
// monotone in execution times, Vlk et al.) orders the three.
//
// Intervals are treated as closed on a continuous timeline: where a
// higher-priority certain release bounds the latest start, that bound is
// the supremum of the admissible open start interval, so reported WCRTs are
// suprema (on integer-valued inputs this matches the discrete convention of
// the literature to within one grid unit, always from above — never
// optimistic).
func ResponseTimes(g *guard.Ctx, ts task.Set, opts Options) (*SAGResult, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if len(ts) == 0 {
		return nil, guard.Invalidf("exact: empty task set")
	}
	if err := g.EntryErr(); err != nil {
		return nil, err
	}
	sc := opts.Obs
	mRuns.On(sc).Inc()

	horizon := opts.Horizon
	if horizon == 0 {
		h, ok := ts.Hyperperiod()
		if !ok {
			return nil, guard.Invalidf("exact: task periods have no integral hyperperiod; set Options.Horizon explicitly")
		}
		horizon = h
	}
	if horizon <= 0 || math.IsNaN(horizon) || math.IsInf(horizon, 0) {
		return nil, guard.Invalidf("exact: horizon must be positive and finite, got %g", horizon)
	}

	var key uint64
	var verify string
	memoOK := false
	if opts.Memo != nil {
		key, verify = sagMemoKey(ts, horizon)
		memoOK = true
		if v, ok := opts.Memo.Get(key, verify); ok {
			if r, ok := v.(*SAGResult); ok {
				mMemoHits.On(sc).Inc()
				out := *r
				out.Cached = true
				return &out, nil
			}
		}
	}

	ex := &sagExplorer{}
	if err := ex.buildJobs(ts, horizon); err != nil {
		return nil, err
	}
	res, err := ex.explore(g, opts)
	if err != nil {
		return nil, err
	}
	res.Schedulable = true
	for i := range ts {
		if res.WCRT[i] > ts[i].Deadline()+1e-9 {
			res.Schedulable = false
		}
	}
	mStates.On(sc).Add(int64(res.States))
	mMerges.On(sc).Add(int64(res.Merges))
	mPrunes.On(sc).Add(int64(res.Prunes))
	if memoOK {
		opts.Memo.Put(key, verify, res, int64(len(verify))+int64(16*len(ts))+96)
		mMemoStores.On(sc).Inc()
	}
	return res, nil
}

// sagMemoKey content-addresses a schedule-graph result: every task field
// that shapes the window's jobs, plus the horizon.
func sagMemoKey(ts task.Set, horizon float64) (uint64, string) {
	b := make([]byte, 0, 8+len(ts)*48)
	b = appendBits(b, uint64(len(ts)))
	for _, tk := range ts {
		b = appendBits(b, math.Float64bits(tk.C))
		b = appendBits(b, math.Float64bits(tk.Best()))
		b = appendBits(b, math.Float64bits(tk.T))
		b = appendBits(b, math.Float64bits(tk.Deadline()))
		b = appendBits(b, math.Float64bits(tk.Jitter))
	}
	b = appendBits(b, math.Float64bits(horizon))
	verify := "exact/sag:" + hex.EncodeToString(b)
	return fnv64a(verify), verify
}

// buildJobs lays out the window's jobs task-major.
func (ex *sagExplorer) buildJobs(ts task.Set, horizon float64) error {
	ex.jobs = ex.jobs[:0]
	for i, tk := range ts {
		n := int(math.Ceil(horizon/tk.T - 1e-9))
		if n < 1 {
			return guard.Invalidf("exact: horizon %g shorter than period of task %s", horizon, tk.Name)
		}
		if len(ex.jobs)+n > maxSAGJobs {
			return guard.Invalidf("exact: window has more than %d jobs", maxSAGJobs)
		}
		for k := 0; k < n; k++ {
			r := float64(k) * tk.T
			ex.jobs = append(ex.jobs, sagJob{
				task: i,
				rmin: r, rmax: r + tk.Jitter,
				emin: tk.Best(), emax: tk.C,
			})
		}
	}
	ex.words = (len(ex.jobs) + 63) / 64
	return nil
}

// explore is the layered BFS over dispatch decisions.
func (ex *sagExplorer) explore(g *guard.Ctx, opts Options) (*SAGResult, error) {
	n := len(ex.jobs)
	budget := opts.maxStates()
	res := &SAGResult{Jobs: n}

	ntasks := 0
	for _, j := range ex.jobs {
		if j.task+1 > ntasks {
			ntasks = j.task + 1
		}
	}
	ex.wcrt = resize(ex.wcrt, ntasks, math.Inf(-1))
	ex.bcrt = resize(ex.bcrt, ntasks, math.Inf(1))

	// Root: nothing dispatched, processor available at time zero.
	if cap(ex.curSlab) < ex.words {
		ex.curSlab = make([]uint64, ex.words)
	} else {
		ex.curSlab = ex.curSlab[:ex.words]
		for i := range ex.curSlab {
			ex.curSlab[i] = 0
		}
	}
	ex.cur = append(ex.cur[:0], sagState{off: 0, lo: 0, hi: 0})
	ex.nextSlab = ex.nextSlab[:0]

	for layer := 0; layer < n; layer++ {
		if len(ex.cur) == 0 {
			return nil, guard.Invalidf("exact: schedule graph stalled at layer %d (no eligible job)", layer)
		}
		if len(ex.cur) > res.PeakFrontier {
			res.PeakFrontier = len(ex.cur)
		}
		if budget > 0 && res.States+len(ex.cur) > budget {
			return nil, &StateSpaceError{States: res.States + len(ex.cur), Limit: budget}
		}
		expanded, err := ex.expandLayer(g)
		if err != nil {
			return nil, err
		}
		res.States += expanded
		res.Depth++
		if !opts.Naive {
			ex.mergeLayer(res)
		}
		ex.cur, ex.next = ex.next, ex.cur[:0]
		ex.curSlab, ex.nextSlab = ex.nextSlab, ex.curSlab[:0]
	}
	res.WCRT = append([]float64(nil), ex.wcrt...)
	res.BCRT = append([]float64(nil), ex.bcrt...)
	return res, nil
}

// expandLayer applies every eligible dispatch of every state of ex.cur,
// emitting the successors into ex.next/ex.nextSlab (reset first) and
// raising the per-task response extrema; it returns the number of states
// expanded.
//
// Eligibility follows the schedule-abstraction-graph construction: from a
// state with availability [lo, hi], job j (whose same-task predecessor is
// dispatched) can start at EST = max(lo, rmin_j); the latest instant any
// next dispatch can happen is t_wc = max(hi, min over pending rmax) (the
// processor is certainly free and some job certainly released); and j in
// particular cannot start once a higher-priority job is certainly released
// (t_high, the min rmax over pending higher-priority jobs). j is eligible
// iff EST <= min(t_wc, t_high) with the t_high bound strict, and then
// starts anywhere in [EST, LST], finishing in [EST+emin, LST+emax].
func (ex *sagExplorer) expandLayer(g *guard.Ctx) (expanded int, err error) {
	ex.next = ex.next[:0]
	ex.nextSlab = ex.nextSlab[:0]
	for _, s := range ex.cur {
		if err := g.Tick(); err != nil {
			return 0, err
		}
		expanded++
		mask := ex.curSlab[s.off : s.off+ex.words]

		// min rmax over all pending jobs. Same-task successors never beat
		// their predecessor (releases are ordered within a task), so this
		// equals the min over immediately dispatchable jobs.
		minRmax := math.Inf(1)
		for j, job := range ex.jobs {
			if mask[j>>6]&(1<<(uint(j)&63)) == 0 && job.rmax < minRmax {
				minRmax = job.rmax
			}
		}
		twc := math.Max(s.hi, minRmax)

		// Jobs are priority-ordered, so one pass maintains the running min
		// rmax over higher-priority pending jobs.
		thigh := math.Inf(1)
		prevTask, prevPending := -1, false
		for j, job := range ex.jobs {
			pending := mask[j>>6]&(1<<(uint(j)&63)) == 0
			if !pending {
				if job.task != prevTask {
					prevTask, prevPending = job.task, false
				}
				continue
			}
			dispatchable := !(job.task == prevTask && prevPending)
			if job.task != prevTask {
				prevTask, prevPending = job.task, true
			} else {
				prevPending = true
			}
			if dispatchable {
				est := math.Max(s.lo, job.rmin)
				lst := math.Min(twc, thigh)
				if est <= lst && est < thigh {
					ex.dispatch(mask, j, est, lst)
				}
			}
			if job.rmax < thigh {
				thigh = job.rmax
			}
		}
	}
	return expanded, nil
}

// dispatch emits the successor of starting job j in [est, lst].
func (ex *sagExplorer) dispatch(mask []uint64, j int, est, lst float64) {
	job := ex.jobs[j]
	off := len(ex.nextSlab)
	ex.nextSlab = append(ex.nextSlab, mask...)
	ex.nextSlab[off+(j>>6)] |= 1 << (uint(j) & 63)
	ex.next = append(ex.next, sagState{off: off, lo: est + job.emin, hi: lst + job.emax})
	if w := lst + job.emax - job.rmin; w > ex.wcrt[job.task] {
		ex.wcrt[job.task] = w
	}
	if b := math.Max(job.emin, est+job.emin-job.rmax); b < ex.bcrt[job.task] {
		ex.bcrt[job.task] = b
	}
}

// mergeLayer canonicalises ex.next: sort by (job set, lo asc, hi desc),
// then union same-set states whose intervals overlap or touch — the
// exactness-preserving merge rule — counting contained intervals as prunes
// and extensions as merges.
func (ex *sagExplorer) mergeLayer(res *SAGResult) {
	slices.SortFunc(ex.next, func(a, b sagState) int {
		am := ex.nextSlab[a.off : a.off+ex.words]
		bm := ex.nextSlab[b.off : b.off+ex.words]
		for w := 0; w < ex.words; w++ {
			if am[w] != bm[w] {
				if am[w] < bm[w] {
					return -1
				}
				return 1
			}
		}
		switch {
		case a.lo != b.lo:
			if a.lo < b.lo {
				return -1
			}
			return 1
		case a.hi != b.hi:
			if a.hi > b.hi {
				return -1
			}
			return 1
		default:
			return 0
		}
	})
	out := ex.next[:0]
	for _, s := range ex.next {
		if len(out) > 0 {
			p := &out[len(out)-1]
			if sameMask(ex.nextSlab, p.off, s.off, ex.words) && s.lo <= p.hi {
				if s.hi <= p.hi {
					res.Prunes++
				} else {
					p.hi = s.hi
					res.Merges++
				}
				continue
			}
		}
		out = append(out, s)
	}
	ex.next = out
}

// sameMask compares two bitmask windows of one slab.
func sameMask(slab []uint64, a, b, words int) bool {
	for w := 0; w < words; w++ {
		if slab[a+w] != slab[b+w] {
			return false
		}
	}
	return true
}

// resize returns s with exactly n entries, all reset to v.
func resize(s []float64, n int, v float64) []float64 {
	if cap(s) < n {
		s = make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}
