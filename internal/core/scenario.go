package core

import (
	"math"

	"fnpr/internal/delay"
)

// This file models concrete run-time preemption scenarios under the floating
// non-preemptive region semantics, used to validate Theorem 1 empirically and
// to reproduce the Figure 2 counter-example against the naive bound.
//
// Semantics: let the task's execution-time clock e advance only while the
// task occupies the processor (including time spent repaying preemption
// delay). Under FNPR scheduling with region length Q, preemption i happens at
// execution time e_i with e_1 >= Q and e_{i+1} >= e_i + Q. When preemption i
// strikes, the task's progression through its operations is
//
//	p_i = e_i - sum_{j<i} f(p_j)
//
// (execution time minus delay already repaid), and the preemption costs
// f(p_i) extra execution time. The job completes when its progression reaches
// C = f.Domain().

// Scenario is a concrete preemption scenario: the execution-time instants at
// which preemptions strike. Instants must be >= Q apart and >= Q; instants
// at which the job has already finished are ignored.
type Scenario []float64

// RunResult is the outcome of replaying a scenario.
type RunResult struct {
	// TotalDelay is the cumulative preemption delay actually paid.
	TotalDelay float64
	// Preemptions counts the preemptions that struck before completion.
	Preemptions int
	// Progressions records the task progression at each preemption.
	Progressions []float64
	// FinishTime is the execution time at which the job completes
	// (C + TotalDelay).
	FinishTime float64
}

// GreedyScenario builds the scenario that preempts as early and as often as
// the FNPR constraint allows: e_1 = Q, e_{i+1} = e_i + Q, until the job
// finishes. This is the adversary sketched in the lower plot of Figure 2.
func GreedyScenario(f delay.Function, q float64) (Scenario, RunResult) {
	c := f.Domain()
	var s Scenario
	var res RunResult
	e := q
	for {
		prog := e - res.TotalDelay
		if prog >= c-completionTol(c, e) {
			break
		}
		d := f.Eval(prog)
		res.TotalDelay += d
		res.Preemptions++
		res.Progressions = append(res.Progressions, prog)
		s = append(s, e)
		e += q
		if res.Preemptions >= scenarioCap {
			break
		}
	}
	res.FinishTime = c + res.TotalDelay
	return s, res
}

// PeakSeekingScenario preempts, within each successive execution-time window
// of length Q, at the moment the progression passes the point with the
// largest delay reachable in that window — a stronger adversary than the
// greedy one on peaked functions. MaxOn locates the window maxima exactly
// for the piecewise representations.
func PeakSeekingScenario(f delay.Function, q float64) (Scenario, RunResult) {
	c := f.Domain()
	var s Scenario
	var res RunResult
	earliest := q // earliest execution time of the next preemption
	for {
		progAtEarliest := earliest - res.TotalDelay
		if progAtEarliest >= c-completionTol(c, earliest) {
			break
		}
		// The adversary may delay the preemption to hit a higher
		// peak, but waiting costs progression: any strike at
		// execution time e >= earliest catches progression
		// p = e - paid. Search the progression interval
		// [progAtEarliest, c) for the best f value, but only up to
		// one window ahead (waiting longer only helps later windows,
		// which the loop covers anyway).
		limit := math.Min(progAtEarliest+q, c)
		pm, _ := f.MaxOn(progAtEarliest, limit)
		e := pm + res.TotalDelay
		if e < earliest {
			e = earliest
		}
		prog := e - res.TotalDelay
		if prog >= c-completionTol(c, e) {
			break
		}
		d := f.Eval(prog)
		res.TotalDelay += d
		res.Preemptions++
		res.Progressions = append(res.Progressions, prog)
		s = append(s, e)
		earliest = e + q
		if res.Preemptions >= scenarioCap {
			break
		}
	}
	res.FinishTime = c + res.TotalDelay
	return s, res
}

// scenarioCap bounds scenario replay length as a defence against divergent
// (delay >= Q) configurations, which would otherwise stall progression
// forever.
const scenarioCap = 1_000_000

// completionTol is the tolerance for deciding that a job's progression has
// reached C. Scenario execution times accumulate floating-point drift of a
// few ulps per preemption; a "preemption" striking within this sliver of
// the job's end is an artifact of that drift (in exact arithmetic the job
// completes first, which is also Algorithm 1's semantics), found by fuzzing
// — see the seed corpus of FuzzAlgorithm1Soundness.
func completionTol(c, e float64) float64 {
	return 1e-9 * (1 + math.Abs(c) + math.Abs(e))
}
