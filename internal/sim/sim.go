// Package sim is a discrete-event uniprocessor scheduling simulator with
// first-class support for floating non-preemptive regions (FNPR) and
// progression-dependent preemption delay.
//
// It implements the run-time model of Section III of the paper: jobs of a
// task set contend for one processor under fixed-priority or EDF scheduling.
// In FloatingNPR mode, the arrival of a higher-priority job while a job of
// τi runs does not preempt immediately; instead τi enters a non-preemptive
// region of length Qi (or until it finishes), after which the normal
// priority order is enforced — potentially collating several arrivals into
// a single preemption. When a job is preempted at progression p through its
// operations, it owes fi(p) extra execution time (the cache-related
// preemption delay), repaid when it next occupies the processor before any
// further progress is made.
//
// The simulator is used by the test suite and the evaluation harness to
// validate, per Theorem 1, that the Algorithm 1 bound of package core
// dominates the delay accrued in every simulated schedule, and to reproduce
// the run-time development sketched in Figure 2.
package sim

import (
	"fmt"
	"math"
	"slices"

	"fnpr/internal/delay"
	"fnpr/internal/guard"
	"fnpr/internal/task"
)

// Policy selects the priority order.
type Policy int

const (
	// FixedPriority uses task.Prio (smaller = higher priority).
	FixedPriority Policy = iota
	// EDF uses earliest absolute deadline first.
	EDF
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case FixedPriority:
		return "FP"
	case EDF:
		return "EDF"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Mode selects the preemption model.
type Mode int

const (
	// FullyPreemptive preempts immediately on higher-priority arrival.
	FullyPreemptive Mode = iota
	// FloatingNPR defers preemption by the running task's Q.
	FloatingNPR
	// NonPreemptive never preempts a running job.
	NonPreemptive
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case FullyPreemptive:
		return "fully-preemptive"
	case FloatingNPR:
		return "floating-npr"
	case NonPreemptive:
		return "non-preemptive"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config describes one simulation.
type Config struct {
	Tasks  task.Set
	Policy Policy
	Mode   Mode

	// Horizon is the simulated time span; releases beyond it are
	// ignored and jobs still active at the horizon are reported as
	// unfinished.
	Horizon float64

	// Delay holds the per-task preemption delay functions; nil entries
	// (or a nil slice) mean preemptions are free for those tasks. Each
	// function's domain must equal the task's C.
	Delay []delay.Function

	// Releases optionally overrides the release pattern per task
	// (indexed like Tasks). When nil for a task, jobs are released
	// periodically at 0, T, 2T, ... up to the horizon (the synchronous
	// worst case). Release times must be non-decreasing and successive
	// releases at least T apart is NOT enforced (sporadic bursts can be
	// modelled deliberately), but times must be non-negative.
	Releases [][]float64

	// ExecTime optionally scales each job's actual execution demand as
	// a fraction of C in (0, 1]; 1 (default when zero) simulates every
	// job running for its full WCET.
	ExecTime float64

	// SwitchCost is a fixed context-switch overhead charged to the
	// preempted job at every preemption, on top of its cache-related
	// delay. It is accounted separately (JobStat.SwitchPaid), so the
	// CRPD bounds of package core remain directly comparable with
	// JobStat.DelayPaid.
	SwitchCost float64
}

// EventKind enumerates trace events.
type EventKind int

const (
	// EvRelease marks a job arrival.
	EvRelease EventKind = iota
	// EvStart marks the first dispatch of a job.
	EvStart
	// EvPreempt marks a preemption (the victim is recorded).
	EvPreempt
	// EvResume marks a preempted job regaining the processor.
	EvResume
	// EvFinish marks a job completion.
	EvFinish
	// EvNPRStart marks the start of a floating non-preemptive region.
	EvNPRStart
	// EvNPREnd marks the expiry of a floating non-preemptive region.
	EvNPREnd
	// EvMiss marks a deadline miss (at the absolute deadline).
	EvMiss
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvRelease:
		return "release"
	case EvStart:
		return "start"
	case EvPreempt:
		return "preempt"
	case EvResume:
		return "resume"
	case EvFinish:
		return "finish"
	case EvNPRStart:
		return "npr-start"
	case EvNPREnd:
		return "npr-end"
	case EvMiss:
		return "miss"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one trace entry.
type Event struct {
	Time float64
	Kind EventKind
	// Task and Job identify the affected job (task index and job
	// sequence number within the task).
	Task, Job int
	// Progression is the job's progression at the event (meaningful for
	// preemptions and finishes).
	Progression float64
	// Delay is the preemption delay charged (EvPreempt only).
	Delay float64
}

// String renders the event compactly.
func (e Event) String() string {
	return fmt.Sprintf("t=%-8.3f %-9s task=%d job=%d prog=%.3f delay=%.3f",
		e.Time, e.Kind, e.Task, e.Job, e.Progression, e.Delay)
}

// JobStat summarises one job.
type JobStat struct {
	Task, Job    int
	Release      float64
	Deadline     float64 // absolute
	Finish       float64 // completion time; +Inf when unfinished at horizon
	Preemptions  int
	DelayPaid    float64
	SwitchPaid   float64
	ExecDemand   float64 // base execution demand (without delay)
	Missed       bool
	PreemptProgs []float64 // progression at each preemption
	PreemptExecs []float64 // job execution-time clock at each preemption
}

// ResponseTime returns Finish - Release.
func (j JobStat) ResponseTime() float64 { return j.Finish - j.Release }

// TaskStat aggregates per task.
type TaskStat struct {
	Released, Finished, Missed int
	Preemptions                int
	DelayPaid                  float64
	SwitchPaid                 float64
	MaxResponse                float64
	MaxDelayPerJob             float64
}

// Result is the outcome of a simulation run.
type Result struct {
	Config Config
	Events []Event
	Jobs   []JobStat
	Tasks  []TaskStat
	// Idle is the total processor idle time within the horizon.
	Idle float64
}

// job is the internal run-time state of one job instance.
type job struct {
	taskIdx, seq int
	release      float64
	deadline     float64
	demand       float64 // base execution demand
	progress     float64 // program progress in [0, demand]
	debt         float64 // outstanding preemption-delay work
	execTime     float64 // processor time consumed so far (progress scale + delay)
	started      bool
	missedNoted  bool
	finished     bool
	finish       float64 // completion time (meaningful when finished)

	preemptions  int
	delayPaid    float64
	switchPaid   float64
	preemptProgs []float64
	preemptExecs []float64
}

func (j *job) remainingWall() float64 {
	return j.debt + (j.demand - j.progress)
}

const timeEps = 1e-9

// Run executes the simulation under a guard scope: the event loop charges
// one guard step per simulated event, so long horizons can be canceled,
// time-bounded and budget-bounded. A nil guard means no limits.
func Run(g *guard.Ctx, cfg Config) (*Result, error) {
	return NewRunner().Run(g, cfg)
}

// validateConfig checks cfg and resolves the execution-time fraction.
func validateConfig(cfg Config) (float64, error) {
	if err := cfg.Tasks.Validate(); err != nil {
		return 0, err
	}
	if len(cfg.Tasks) == 0 {
		return 0, guard.Invalidf("sim: empty task set")
	}
	if cfg.Horizon <= 0 || math.IsNaN(cfg.Horizon) || math.IsInf(cfg.Horizon, 0) {
		return 0, guard.Invalidf("sim: invalid horizon %g", cfg.Horizon)
	}
	if cfg.Delay != nil && len(cfg.Delay) != len(cfg.Tasks) {
		return 0, guard.Invalidf("sim: %d delay functions for %d tasks", len(cfg.Delay), len(cfg.Tasks))
	}
	frac := cfg.ExecTime
	if frac == 0 {
		frac = 1
	}
	if frac < 0 || frac > 1 || math.IsNaN(frac) {
		return 0, guard.Invalidf("sim: ExecTime %g outside (0,1]", frac)
	}
	if cfg.SwitchCost < 0 || math.IsNaN(cfg.SwitchCost) || math.IsInf(cfg.SwitchCost, 0) {
		return 0, guard.Invalidf("sim: invalid switch cost %g", cfg.SwitchCost)
	}
	if cfg.Mode == FloatingNPR {
		for i, tk := range cfg.Tasks {
			if tk.Q <= 0 {
				return 0, guard.Invalidf("sim: task %d (%s) has no NPR length Q in FloatingNPR mode", i, tk.Name)
			}
		}
	}
	for i := range cfg.Tasks {
		if cfg.Delay != nil && cfg.Delay[i] != nil {
			if d := cfg.Delay[i].Domain(); math.Abs(d-cfg.Tasks[i].C) > 1e-9 {
				return 0, guard.Invalidf("sim: task %d delay domain %g != C %g", i, d, cfg.Tasks[i].C)
			}
		}
	}
	return frac, nil
}

// Runner is a reusable simulator instance for Monte-Carlo campaigns: every
// internal buffer — the release table, the job slab, the ready queue, the
// event trace and the result records — is retained across Run calls, so a
// worker simulating thousands of random job sets stays allocation-free once
// the buffers have grown to the workload's high-water mark.
//
// A Runner is NOT safe for concurrent use; campaigns keep one per worker
// goroutine. The *Result a Run returns (including its Events, Jobs, Tasks
// and per-job preemption logs) is owned by the Runner and only valid until
// the next Run on the same Runner — callers that need the data longer copy
// what they keep. The package-level Run, which constructs a fresh
// Runner per call, is unaffected by this aliasing.
type Runner struct {
	st state
}

// NewRunner returns an empty Runner; buffers grow on first use.
func NewRunner() *Runner {
	return &Runner{}
}

// Run executes one simulation on the Runner's reused buffers. Semantics are
// identical to the package-level Run — same validation, same event
// sequence, same statistics — only the allocation behaviour differs.
func (r *Runner) Run(g *guard.Ctx, cfg Config) (*Result, error) {
	frac, err := validateConfig(cfg)
	if err != nil {
		return nil, err
	}
	s := &r.st
	s.reset(cfg, frac)
	s.buildReleases()
	s.growSlab(len(s.releases))
	if err := s.run(g); err != nil {
		return nil, err
	}
	return s.result(), nil
}

type pendingRelease struct {
	time    float64
	taskIdx int
	seq     int
}

type state struct {
	cfg  Config
	frac float64

	releases []pendingRelease // sorted by time, then task index
	nextRel  int

	ready   []*job // pending, not running
	running *job

	// nprUntil is the wall-clock expiry of the active NPR; NaN when no
	// NPR is armed.
	nprArmed bool
	nprUntil float64

	now  float64
	idle float64

	events []Event
	jobs   []*job

	// slab is the backing storage of every job instance of one run: the
	// release table fixes the job count up front, so the slab is sized
	// once per run and the job pointers in ready/jobs/running stay stable.
	// Across Runner reuses the slab (and each slab entry's preemption
	// logs) keep their capacity, which is what makes repeat runs
	// allocation-free.
	slab     []job
	nextSlab int

	// res is the reusable result record a Runner hands out.
	res Result
}

// reset rewinds the state for a fresh run while keeping every buffer's
// capacity.
func (s *state) reset(cfg Config, frac float64) {
	s.cfg = cfg
	s.frac = frac
	s.releases = s.releases[:0]
	s.nextRel = 0
	s.ready = s.ready[:0]
	s.running = nil
	s.nprArmed = false
	s.nprUntil = 0
	s.now = 0
	s.idle = 0
	s.events = s.events[:0]
	s.jobs = s.jobs[:0]
	s.nextSlab = 0
}

// growSlab ensures storage for n jobs. Growing discards the old slab (and
// the per-job log capacity it carried); steady-state campaigns hit the
// high-water mark quickly and stop allocating.
func (s *state) growSlab(n int) {
	if cap(s.slab) < n {
		s.slab = make([]job, n)
		return
	}
	s.slab = s.slab[:n]
}

func (s *state) buildReleases() {
	for i, tk := range s.cfg.Tasks {
		if s.cfg.Releases != nil && i < len(s.cfg.Releases) && s.cfg.Releases[i] != nil {
			for k, t := range s.cfg.Releases[i] {
				if t < s.cfg.Horizon {
					s.releases = append(s.releases, pendingRelease{time: t, taskIdx: i, seq: k})
				}
			}
			continue
		}
		seq := 0
		for t := 0.0; t < s.cfg.Horizon; t += tk.T {
			s.releases = append(s.releases, pendingRelease{time: t, taskIdx: i, seq: seq})
			seq++
		}
	}
	slices.SortStableFunc(s.releases, func(a, b pendingRelease) int {
		switch {
		case a.time < b.time:
			return -1
		case a.time > b.time:
			return 1
		default:
			return a.taskIdx - b.taskIdx
		}
	})
}

// higherPriority reports whether job a strictly precedes job b.
func (s *state) higherPriority(a, b *job) bool {
	switch s.cfg.Policy {
	case EDF:
		if a.deadline != b.deadline {
			return a.deadline < b.deadline
		}
		return a.taskIdx < b.taskIdx
	default: // FixedPriority
		pa, pb := s.cfg.Tasks[a.taskIdx].Prio, s.cfg.Tasks[b.taskIdx].Prio
		if pa != pb {
			return pa < pb
		}
		return a.taskIdx < b.taskIdx
	}
}

func (s *state) bestReady() *job {
	var best *job
	for _, j := range s.ready {
		if best == nil || s.higherPriority(j, best) {
			best = j
		}
	}
	return best
}

func (s *state) removeReady(j *job) {
	for i, r := range s.ready {
		if r == j {
			s.ready = append(s.ready[:i], s.ready[i+1:]...)
			return
		}
	}
}

func (s *state) emit(kind EventKind, j *job, prog, d float64) {
	s.events = append(s.events, Event{
		Time: s.now, Kind: kind,
		Task: j.taskIdx, Job: j.seq,
		Progression: prog, Delay: d,
	})
}

// advanceRunning progresses the running job by wall time dt: debt is repaid
// first, then program progress accrues.
func (s *state) advanceRunning(dt float64) {
	j := s.running
	if j == nil || dt <= 0 {
		return
	}
	j.execTime += dt
	pay := math.Min(j.debt, dt)
	j.debt -= pay
	dt -= pay
	j.progress += dt
	if j.progress > j.demand {
		j.progress = j.demand
	}
}

func (s *state) dispatch() {
	// Called when no job is running: pick the best ready job.
	best := s.bestReady()
	if best == nil {
		return
	}
	s.removeReady(best)
	s.running = best
	if !best.started {
		best.started = true
		s.emit(EvStart, best, best.progress, 0)
	} else {
		s.emit(EvResume, best, best.progress, 0)
	}
}

// preemptRunning moves the running job back to the ready queue, charging its
// preemption delay.
func (s *state) preemptRunning() {
	j := s.running
	d := 0.0
	if s.cfg.Delay != nil && s.cfg.Delay[j.taskIdx] != nil {
		d = s.cfg.Delay[j.taskIdx].Eval(j.progress)
	}
	j.debt += d + s.cfg.SwitchCost
	j.delayPaid += d
	j.switchPaid += s.cfg.SwitchCost
	j.preemptions++
	j.preemptProgs = append(j.preemptProgs, j.progress)
	j.preemptExecs = append(j.preemptExecs, j.execTime)
	s.emit(EvPreempt, j, j.progress, d)
	s.ready = append(s.ready, j)
	s.running = nil
	s.nprArmed = false
}

func (s *state) run(g *guard.Ctx) error {
	for {
		if err := g.Tick(); err != nil {
			return err
		}
		// Next event time: release, completion, NPR expiry.
		next := math.Inf(1)
		if s.nextRel < len(s.releases) {
			next = s.releases[s.nextRel].time
		}
		if s.running != nil {
			if c := s.now + s.running.remainingWall(); c < next {
				next = c
			}
		}
		if s.nprArmed && s.nprUntil < next {
			next = s.nprUntil
		}
		if math.IsInf(next, 1) || next > s.cfg.Horizon {
			// Advance to horizon and stop.
			if s.running != nil {
				s.advanceRunning(s.cfg.Horizon - s.now)
			} else {
				s.idle += s.cfg.Horizon - s.now
			}
			s.now = s.cfg.Horizon
			return nil
		}

		// Advance time to the event.
		if s.running != nil {
			s.advanceRunning(next - s.now)
		} else {
			s.idle += next - s.now
		}
		s.now = next

		// 1. Completion. Dispatching the successor is deferred to
		// step 4 so that same-instant releases are visible first —
		// otherwise a lower-priority job could be dispatched and
		// instantly preempted at progress 0, charging a spurious
		// f(0) delay.
		if s.running != nil && s.running.remainingWall() <= timeEps {
			j := s.running
			j.finished = true
			j.finish = s.now
			s.emit(EvFinish, j, j.progress, 0)
			if s.now > j.deadline+timeEps && !j.missedNoted {
				j.missedNoted = true
				s.emit(EvMiss, j, j.progress, 0)
			}
			s.running = nil
			s.nprArmed = false
		}

		// 2. Releases at this instant.
		for s.nextRel < len(s.releases) && s.releases[s.nextRel].time <= s.now+timeEps {
			rel := s.releases[s.nextRel]
			s.nextRel++
			tk := s.cfg.Tasks[rel.taskIdx]
			j := &s.slab[s.nextSlab]
			s.nextSlab++
			*j = job{
				taskIdx:      rel.taskIdx,
				seq:          rel.seq,
				release:      rel.time,
				deadline:     rel.time + tk.Deadline(),
				demand:       tk.C * s.frac,
				preemptProgs: j.preemptProgs[:0],
				preemptExecs: j.preemptExecs[:0],
			}
			s.jobs = append(s.jobs, j)
			s.emit(EvRelease, j, 0, 0)
			s.handleArrival(j)
		}

		// 3. NPR expiry.
		if s.nprArmed && s.now >= s.nprUntil-timeEps {
			s.nprArmed = false
			if s.running != nil {
				s.emit(EvNPREnd, s.running, s.running.progress, 0)
				if best := s.bestReady(); best != nil && s.higherPriority(best, s.running) {
					s.preemptRunning()
					s.dispatch()
				}
			}
		}

		// 4. Idle processor: dispatch.
		if s.running == nil {
			s.dispatch()
		}
	}
}

// handleArrival applies the preemption model to a newly released job.
func (s *state) handleArrival(j *job) {
	if s.running == nil {
		s.ready = append(s.ready, j)
		return
	}
	if !s.higherPriority(j, s.running) {
		s.ready = append(s.ready, j)
		return
	}
	switch s.cfg.Mode {
	case FullyPreemptive:
		// The displaced job is charged once; the successor is
		// dispatched in step 4 of the main loop, after every
		// same-instant release has been queued (so the highest
		// arrival wins without intermediate spurious preemptions).
		s.ready = append(s.ready, j)
		s.preemptRunning()
	case FloatingNPR:
		s.ready = append(s.ready, j)
		if !s.nprArmed {
			q := s.cfg.Tasks[s.running.taskIdx].Q
			s.nprArmed = true
			s.nprUntil = s.now + q
			s.emit(EvNPRStart, s.running, s.running.progress, 0)
		}
	case NonPreemptive:
		s.ready = append(s.ready, j)
	}
}

// result assembles the run's Result into the state's reusable record. Finish
// times and misses were recorded on the jobs as they happened, so a single
// pass over the job slab suffices — no event-log replay, no index map.
func (s *state) result() *Result {
	res := &s.res
	res.Config = s.cfg
	res.Events = s.events
	res.Idle = s.idle
	res.Jobs = res.Jobs[:0]
	if cap(res.Tasks) >= len(s.cfg.Tasks) {
		res.Tasks = res.Tasks[:len(s.cfg.Tasks)]
		for i := range res.Tasks {
			res.Tasks[i] = TaskStat{}
		}
	} else {
		res.Tasks = make([]TaskStat, len(s.cfg.Tasks))
	}
	for _, j := range s.jobs {
		st := JobStat{
			Task: j.taskIdx, Job: j.seq,
			Release: j.release, Deadline: j.deadline,
			Finish:       math.Inf(1),
			Preemptions:  j.preemptions,
			DelayPaid:    j.delayPaid,
			SwitchPaid:   j.switchPaid,
			ExecDemand:   j.demand,
			PreemptProgs: j.preemptProgs,
			PreemptExecs: j.preemptExecs,
		}
		ts := &res.Tasks[j.taskIdx]
		ts.Released++
		ts.Preemptions += j.preemptions
		ts.DelayPaid += j.delayPaid
		ts.SwitchPaid += j.switchPaid
		if j.delayPaid > ts.MaxDelayPerJob {
			ts.MaxDelayPerJob = j.delayPaid
		}
		if j.finished {
			st.Finish = j.finish
			ts.Finished++
			if rt := j.finish - j.release; rt > ts.MaxResponse {
				ts.MaxResponse = rt
			}
		}
		if j.missedNoted {
			st.Missed = true
			ts.Missed++
		} else if !j.finished && j.deadline < s.cfg.Horizon {
			// Unfinished jobs past their deadline also count as misses.
			st.Missed = true
			ts.Missed++
		}
		res.Jobs = append(res.Jobs, st)
	}
	return res
}
