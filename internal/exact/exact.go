// Package exact implements bounded exact schedule-graph explorations for
// floating-NPR analysis, the third bound alongside Algorithm 1 and the
// Equation 4 state of the art: a breadth-first enumeration of schedule
// states engineered so the combinatorial frontier stays tractable.
//
// Two engines share the machinery:
//
//   - Delay explores preemption-strike scenarios of a single job under one
//     (f, Q) pair and returns the exact worst-case cumulative preemption
//     delay — the quantity Algorithm 1 upper-bounds. States are
//     (next-admissible-strike progression, delay paid so far) pairs; the
//     attainable future delay is a nonincreasing function of the
//     progression alone, which licenses the dominance pruning and
//     same-progression merging that collapse the naive exponential tree to
//     a pareto frontier per layer (see DESIGN.md §16 for the proof).
//
//   - ResponseTimes explores the schedule graph of a non-preemptive
//     periodic job set over one hyperperiod, per Vlk/Jaroš/Hanzálek's
//     revisiting of Nasri-style schedule-abstraction graphs: states are
//     (dispatched-job set, processor-availability interval) pairs, states
//     with equal job sets and overlapping intervals merge exactly, and the
//     per-task best/worst response times fall out of the dispatch
//     intervals.
//
// Both engines run under guard step budgets with a typed state-space
// failure (StateSpaceError, an ErrBudgetExceeded), reuse buffers across
// runs through an Explorer (zero steady-state allocations), and memoize
// whole results content-addressed in an internal/memo cache (verify-on-use
// canonical fingerprints). An exploration runs on one goroutine; callers
// with many instances (the atlas campaign) parallelise across explorations,
// one Explorer per worker.
//
// Metrics (catalogued in DESIGN.md §16): counters exact.runs, exact.states,
// exact.merges, exact.prunes, exact.memo.hits, exact.memo.stores,
// exact.degraded (incremented by package sched on budget degradation).
package exact

import (
	"encoding/hex"
	"fmt"
	"math"

	"fnpr/internal/delay"
	"fnpr/internal/guard"
	"fnpr/internal/memo"
	"fnpr/internal/obs"
)

// DefaultMaxStates bounds an exploration whose Options did not say: far
// above what the merged frontiers of realistic instances need, far below
// what a naive enumeration can burn.
const DefaultMaxStates = 1 << 20

// Options configures an exploration (both engines).
type Options struct {
	// MaxStates caps the number of expanded states; the exploration fails
	// with a *StateSpaceError beyond it. Zero selects DefaultMaxStates;
	// negative means unbounded.
	MaxStates int

	// Naive disables state merging, dominance pruning and the visited
	// frontier — the brute-force enumeration the benchmarks compare
	// against. Results are identical where the budget allows completion.
	Naive bool

	// Horizon is the analysis window of ResponseTimes; zero selects one
	// hyperperiod. Ignored by Delay.
	Horizon float64

	// Memo, when non-nil, content-addresses whole results so repeated
	// explorations of the same instance cost one lookup (verify-on-use,
	// counted by exact.memo.hits / exact.memo.stores).
	Memo *memo.Cache

	// Obs receives the exact.* counters; nil collects nothing.
	Obs *obs.Scope
}

// maxStates resolves the effective state budget.
func (o Options) maxStates() int {
	switch {
	case o.MaxStates == 0:
		return DefaultMaxStates
	case o.MaxStates < 0:
		return math.MaxInt
	default:
		return o.MaxStates
	}
}

// StateSpaceError reports that an exploration hit its state budget before
// draining the frontier. It unwraps to guard.ErrBudgetExceeded, so existing
// exit-code and HTTP mappings treat it as a budget failure; callers that
// can degrade (sched.Analyze falls back to Algorithm 1) detect it with
// errors.As.
type StateSpaceError struct {
	States int // states expanded before giving up
	Limit  int // the budget that tripped
}

// Error implements error.
func (e *StateSpaceError) Error() string {
	return fmt.Sprintf("exact: state space exceeded %d states (budget %d): %v",
		e.States, e.Limit, guard.ErrBudgetExceeded)
}

// Unwrap makes errors.Is(err, guard.ErrBudgetExceeded) true.
func (e *StateSpaceError) Unwrap() error { return guard.ErrBudgetExceeded }

// completionTol is the relative tolerance under which a strike at
// progression e counts as landing after the job completes at c: it absorbs
// the execution-time drift of summed float strikes near the end of the job.
func completionTol(c, e float64) float64 {
	return 1e-9 * (1 + math.Abs(c) + math.Abs(e))
}

// fnv64a is the 64-bit FNV-1a fold used for memo primary keys, matching the
// cache convention of internal/core.
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// appendBits appends a big-endian uint64 to the identity bytes.
func appendBits(b []byte, v uint64) []byte {
	return append(b,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// delayMemoKey builds the content address of a Delay result: the canonical
// curve fingerprint, the Q bits and an engine tag. Naive is excluded: it
// changes nothing but the search order, and results are identical when it
// completes.
func delayMemoKey(f delay.Function, q float64) (key uint64, verify string, ok bool) {
	fp, err := delay.FingerprintOf(f)
	if err != nil {
		return 0, "", false
	}
	b := make([]byte, 0, delay.FingerprintSize+16)
	b = append(b, fp[:]...)
	b = appendBits(b, math.Float64bits(q))
	verify = "exact/delay:" + hex.EncodeToString(b)
	return fnv64a(verify), verify, true
}

// AsPiecewise lowers a delay function to the piecewise-constant form the
// exact engines branch on: *Piecewise directly, *Indexed via its backing
// curve. The second return is false for other implementations — notably
// *PiecewiseLinear, whose charge varies within a segment, so the
// strike-at-piece-start normalisation the exact search branches on does not
// apply; callers degrade to Algorithm 1, which needs only the Function
// interface.
func AsPiecewise(f delay.Function) (*delay.Piecewise, bool) {
	switch f := f.(type) {
	case *delay.Piecewise:
		return f, true
	case *delay.Indexed:
		return f.Piecewise(), true
	default:
		return nil, false
	}
}
