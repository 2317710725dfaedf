// Package fixednpr implements the fixed non-preemptive region model the
// paper contrasts with its floating model (Section II): preemption points
// are hard-coded in the task, preemptions are allowed only there, and the
// points are chosen off-line to minimise the total preemption cost subject
// to a maximum non-preemptive interval (the blocking tolerance of the
// higher-priority workload). This is the "optimal selection of preemption
// points" problem of Bertogna et al. (reference [13] of the paper), solved
// here by dynamic programming.
//
// The package exists both as a baseline for comparison experiments (fixed
// vs floating total delay on the same task) and to make the library usable
// for systems that can afford code modification.
package fixednpr

import (
	"errors"
	"fmt"
	"math"

	"fnpr/internal/delay"
)

// Chunk is one sequential section of a task: Duration units of execution
// followed by a potential preemption point whose cache-related cost is Cost.
// The final chunk's Cost is ignored (the task end is not a preemption
// point).
type Chunk struct {
	Duration float64
	Cost     float64
}

// Task is a linear (sequential) task, the task model of reference [13].
type Task struct {
	Chunks []Chunk
}

// Validate checks the chunk list.
func (t Task) Validate() error {
	if len(t.Chunks) == 0 {
		return errors.New("fixednpr: task has no chunks")
	}
	for i, c := range t.Chunks {
		if c.Duration <= 0 || math.IsNaN(c.Duration) || math.IsInf(c.Duration, 0) {
			return fmt.Errorf("fixednpr: chunk %d has invalid duration %g", i, c.Duration)
		}
		if c.Cost < 0 || math.IsNaN(c.Cost) || math.IsInf(c.Cost, 0) {
			return fmt.Errorf("fixednpr: chunk %d has invalid cost %g", i, c.Cost)
		}
	}
	return nil
}

// C returns the task's total isolated execution time.
func (t Task) C() float64 {
	var c float64
	for _, ch := range t.Chunks {
		c += ch.Duration
	}
	return c
}

// Selection is the outcome of the preemption point optimisation.
type Selection struct {
	// Points lists the selected boundaries: Points contains i when a
	// preemption point is enabled after chunk i (0-based).
	Points []int
	// TotalCost is the summed preemption cost of the selected points —
	// the worst-case total preemption delay of the task under the fixed
	// model (every enabled point preempted once).
	TotalCost float64
	// MaxInterval is the longest non-preemptive interval of the
	// resulting task (must be <= the QMax constraint).
	MaxInterval float64
}

// SelectPoints chooses the subset of potential preemption points minimising
// total preemption cost such that no non-preemptive interval (between
// consecutive enabled points, or the task boundaries) exceeds qmax.
// It returns an error when even enabling every point leaves an interval
// above qmax (some chunk is longer than qmax).
func SelectPoints(t Task, qmax float64) (*Selection, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if qmax <= 0 || math.IsNaN(qmax) || math.IsInf(qmax, 0) {
		return nil, fmt.Errorf("fixednpr: invalid qmax %g", qmax)
	}
	n := len(t.Chunks)
	prefix := make([]float64, n+1)
	for i, c := range t.Chunks {
		prefix[i+1] = prefix[i] + c.Duration
		if c.Duration > qmax {
			return nil, fmt.Errorf("fixednpr: chunk %d duration %g exceeds qmax %g; no feasible selection", i, c.Duration, qmax)
		}
	}
	// best[j] = minimal cost of a feasible selection for the prefix
	// ending with an enabled point at boundary j (after chunk j-1);
	// boundary 0 is the task start (cost 0), boundary n the task end.
	const inf = math.MaxFloat64
	best := make([]float64, n+1)
	prev := make([]int, n+1)
	for j := 1; j <= n; j++ {
		best[j] = inf
		prev[j] = -1
	}
	for j := 1; j <= n; j++ {
		cost := 0.0
		if j < n {
			cost = t.Chunks[j-1].Cost
		}
		for k := 0; k < j; k++ {
			if prefix[j]-prefix[k] > qmax+1e-12 {
				continue
			}
			if best[k] == inf {
				continue
			}
			if v := best[k] + cost; v < best[j] {
				best[j] = v
				prev[j] = k
			}
		}
	}
	if best[n] == inf {
		return nil, errors.New("fixednpr: no feasible selection")
	}
	// Reconstruct.
	sel := &Selection{TotalCost: best[n]}
	for j := prev[n]; j > 0; j = prev[j] {
		sel.Points = append(sel.Points, j-1)
	}
	// Reverse to ascending order.
	for i, k := 0, len(sel.Points)-1; i < k; i, k = i+1, k-1 {
		sel.Points[i], sel.Points[k] = sel.Points[k], sel.Points[i]
	}
	// Longest interval.
	last := 0.0
	for _, p := range sel.Points {
		sel.MaxInterval = math.Max(sel.MaxInterval, prefix[p+1]-last)
		last = prefix[p+1]
	}
	sel.MaxInterval = math.Max(sel.MaxInterval, prefix[n]-last)
	return sel, nil
}

// DelayFunction builds the floating-model preemption delay function
// equivalent to the linear task: while execution is inside chunk i (or at
// its boundary), a preemption costs the boundary cost of the chunk the task
// is currently in. This lets the same task be analysed under both models:
// fixed (SelectPoints) and floating (core.Analyze on this function).
func (t Task) DelayFunction() (*delay.Piecewise, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	xs := []float64{0}
	var vs []float64
	acc := 0.0
	for i, c := range t.Chunks {
		acc += c.Duration
		xs = append(xs, acc)
		cost := c.Cost
		if i == len(t.Chunks)-1 {
			cost = 0 // no preemption point at the task end
		}
		vs = append(vs, cost)
	}
	return delay.NewPiecewise(xs, vs)
}
