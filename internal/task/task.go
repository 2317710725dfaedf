// Package task defines the sporadic task model used throughout the library.
//
// The model follows Section III of Marinho, Nélis, Petters and Puaut,
// "Preemption Delay Analysis for Floating Non-Preemptive Region Scheduling"
// (DATE 2012): a set τ = {τ1..τn} of sporadic tasks runs on a single core.
// Each task τi has a worst-case execution time Ci (in isolation), a minimum
// inter-arrival time Ti, a relative deadline Di and a floating non-preemptive
// region length Qi. Once a higher-priority job arrives while τi runs, τi
// keeps the processor for at most Qi further time units before the scheduler
// re-evaluates priorities, so consecutive preemptions of a job of τi are at
// least Qi apart in its execution progression.
package task

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"fnpr/internal/guard"
)

// Task is one sporadic task. All time quantities share a single (arbitrary)
// time unit; the library never assumes a particular granularity.
type Task struct {
	// Name is a human-readable identifier used in traces and error
	// messages. Names must be unique within a Set.
	Name string

	// C is the worst-case execution time of one job of the task when it
	// executes in isolation, i.e. excluding any preemption delay.
	C float64

	// BCET is the best-case execution time in isolation. Zero means
	// "unknown"; analyses that need it fall back to C.
	BCET float64

	// T is the period (periodic tasks) or minimum inter-arrival time
	// (sporadic tasks) between consecutive job releases.
	T float64

	// D is the relative deadline. Zero means implicit deadline (D = T).
	D float64

	// Q is the length of the task's floating non-preemptive regions.
	// Q = 0 degenerates to fully-preemptive behaviour; Q >= C makes the
	// task effectively non-preemptive.
	Q float64

	// Prio is the task's fixed priority; smaller values denote higher
	// priority. It is ignored by EDF analyses.
	Prio int

	// Jitter is the maximum release jitter, used by the response-time
	// analyses that account for it.
	Jitter float64
}

// Deadline returns the effective relative deadline (D, or T when D == 0).
func (t Task) Deadline() float64 {
	if t.D == 0 {
		return t.T
	}
	return t.D
}

// Best returns the effective best-case execution time (BCET, or C when unset).
func (t Task) Best() float64 {
	if t.BCET == 0 {
		return t.C
	}
	return t.BCET
}

// Utilization returns C/T.
func (t Task) Utilization() float64 {
	if t.T == 0 {
		return math.Inf(1)
	}
	return t.C / t.T
}

// Validate reports whether the task parameters are internally consistent:
// every time quantity must be finite and non-NaN, C and T positive, D, Q,
// Jitter and BCET non-negative, BCET <= C and C within the deadline. All
// failures wrap guard.ErrInvalidInput.
func (t Task) Validate() error {
	switch {
	case t.Name == "":
		return guard.Invalidf("task: empty name")
	case t.C <= 0 || math.IsNaN(t.C) || math.IsInf(t.C, 0):
		return guard.Invalidf("task %s: C must be positive and finite, got %v", t.Name, t.C)
	case t.T <= 0 || math.IsNaN(t.T) || math.IsInf(t.T, 0):
		return guard.Invalidf("task %s: T must be positive and finite, got %v", t.Name, t.T)
	case t.D < 0 || math.IsNaN(t.D) || math.IsInf(t.D, 0):
		return guard.Invalidf("task %s: D must be non-negative and finite, got %v", t.Name, t.D)
	case t.Q < 0 || math.IsNaN(t.Q) || math.IsInf(t.Q, 0):
		return guard.Invalidf("task %s: Q must be non-negative and finite, got %v", t.Name, t.Q)
	case t.Jitter < 0 || math.IsNaN(t.Jitter) || math.IsInf(t.Jitter, 0):
		return guard.Invalidf("task %s: jitter must be non-negative and finite, got %v", t.Name, t.Jitter)
	case t.BCET < 0 || math.IsNaN(t.BCET) || !(t.BCET <= t.C):
		return guard.Invalidf("task %s: BCET must lie in [0, C], got %v", t.Name, t.BCET)
	case t.C > t.Deadline():
		return guard.Invalidf("task %s: C (%v) exceeds deadline (%v)", t.Name, t.C, t.Deadline())
	}
	return nil
}

// String renders the task compactly for traces and error messages.
func (t Task) String() string {
	return fmt.Sprintf("%s{C=%g T=%g D=%g Q=%g P=%d}", t.Name, t.C, t.T, t.Deadline(), t.Q, t.Prio)
}

// Set is an ordered collection of tasks. The order is significant for
// fixed-priority analyses: index 0 is conventionally the highest priority
// (AssignRateMonotonic sorts a set that way).
type Set []Task

// pairwiseNames is the largest set whose names Validate compares pairwise.
// Small sets, such as a campaign trial's, skip the map's allocation; larger
// ones go through a map, so a big set from outside the program is checked
// in linear time.
const pairwiseNames = 16

// Validate checks every task and the set-level constraints (unique names).
func (s Set) Validate() error {
	var seen map[string]struct{}
	if len(s) > pairwiseNames {
		seen = make(map[string]struct{}, len(s))
	}
	for i, t := range s {
		if err := t.Validate(); err != nil {
			return err
		}
		dup := false
		if seen != nil {
			_, dup = seen[t.Name]
			seen[t.Name] = struct{}{}
		} else {
			for _, u := range s[:i] {
				if u.Name == t.Name {
					dup = true
					break
				}
			}
		}
		if dup {
			return guard.Invalidf("task set: duplicate task name %q", t.Name)
		}
	}
	return nil
}

// Utilization returns the total utilization sum(Ci/Ti).
func (s Set) Utilization() float64 {
	var u float64
	for _, t := range s {
		u += t.Utilization()
	}
	return u
}

// Clone returns a deep copy of the set.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	copy(c, s)
	return c
}

// AssignRateMonotonic assigns priorities by ascending period (shorter period
// = higher priority = smaller Prio value) and sorts the set accordingly.
func (s Set) AssignRateMonotonic() {
	// The stable sort only asks whether the result is below zero, which is
	// exactly "shorter period, or equal periods and the name first": the
	// order of a less-function sort, NaN periods included.
	slices.SortStableFunc(s, func(a, b Task) int {
		if a.T != b.T {
			if a.T < b.T {
				return -1
			}
			return 1
		}
		return strings.Compare(a.Name, b.Name)
	})
	for i := range s {
		s[i].Prio = i
	}
}

// Hyperperiod returns the least common multiple of the task periods, assuming
// they are (close to) integers. The second return value is false when a
// period is non-integral (beyond 1e-9 tolerance) or the LCM overflows
// practical simulation horizons (> maxHorizon).
func (s Set) Hyperperiod() (float64, bool) {
	const maxHorizon = 1e12
	lcm := int64(1)
	for _, t := range s {
		p := math.Round(t.T)
		if math.Abs(p-t.T) > 1e-9 || p <= 0 {
			return 0, false
		}
		lcm = lcmInt(lcm, int64(p))
		if lcm <= 0 || float64(lcm) > maxHorizon {
			return 0, false
		}
	}
	return float64(lcm), true
}

func gcdInt(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcmInt(a, b int64) int64 {
	g := gcdInt(a, b)
	if g == 0 {
		return 0
	}
	return a / g * b
}

// String renders the set as a table-ish single line per task.
func (s Set) String() string {
	var b strings.Builder
	for i, t := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	return b.String()
}
