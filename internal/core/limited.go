package core

import (
	"fmt"
	"math"
)

// This file supports the refinement the paper lists as future work (ii)
// in Section VII: "reducing the number of preemptions (i.e., the number of
// iterations) considered in Algorithm 1 — it is indeed impossible for a
// task to get preempted every Qi time units ... unless the periods of the
// other tasks enable such a preemption scenario."
//
// When the environment can cause at most n preemptions of a job (e.g. n
// bounds the higher-priority releases within the job's response time), the
// cumulative delay is bounded by the sum of the n largest per-iteration
// charges of Algorithm 1 (Analyze with Options.Limited; the charge selection
// itself is limitCharges in analyze.go). The argument extends Theorem 1's
// induction: each scenario preemption is absorbed by exactly one algorithm
// iteration (case 2 of the proof), distinct preemptions by distinct
// iterations (two preemptions are >= Q apart on the job's execution clock
// while an iteration window spans Q execution time), and each absorbed
// preemption is charged at most that iteration's delaymax. With at most n
// preemptions, at most n iterations absorb anything, so the total is bounded
// by the n largest charges. The result is also <= n x max f, and <= the
// full Algorithm 1 bound in floats too: limitCharges caps the sum by the
// walk's total. The test suite validates the bound against adversarial
// scenarios restricted to n preemptions.

// PreemptionCount bounds the number of preemptions a job with response time
// r can suffer from higher-priority tasks with the given periods (and
// release jitters): at most one preemption per higher-priority release
// inside the response window.
func PreemptionCount(r float64, periods, jitters []float64) (int, error) {
	if len(jitters) != 0 && len(jitters) != len(periods) {
		return 0, fmt.Errorf("core: %d jitters for %d periods", len(jitters), len(periods))
	}
	if r < 0 || math.IsNaN(r) {
		return 0, fmt.Errorf("core: invalid response time %g", r)
	}
	var n float64
	for i, t := range periods {
		if t <= 0 {
			return 0, fmt.Errorf("core: invalid period %g", t)
		}
		j := 0.0
		if len(jitters) > 0 {
			j = jitters[i]
		}
		n += math.Ceil((r + j) / t)
	}
	if n > float64(math.MaxInt32) {
		return math.MaxInt32, nil
	}
	return int(n), nil
}
