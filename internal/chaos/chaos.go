// Package chaos is the deterministic fault injector the crash-safety test
// suites of internal/eval and internal/server drive: it wraps a
// delay.Function with faults that fire at precisely chosen places in the
// analysis — panic at one grid point's Algorithm 1 walk, panic in the
// Equation 4 fallback query, burn the shared step budget, cancel the run
// after N queries — so every rung of the batch runtime's degradation ladder
// (fallback → quarantine → abort with journal intact) can be exercised on
// purpose, repeatably. Only tests import it.
//
// Targeting exploits two call-shape facts of internal/core:
//
//   - the Algorithm 1 walk for grid point Q issues its first
//     FirstReachDescending query with a == Q, and progression strictly
//     increases afterwards, so "a == Q" identifies exactly one grid point's
//     primary analysis (and fires once per analysis of that point);
//   - only the Equation 4 fallback queries MaxOn(0, Domain()); the walk's
//     windows all start at or after Q > 0, so that shape identifies the
//     fallback.
//
// Counter-based faults are deterministic for a fixed query order (one
// worker).
package chaos

import (
	"fmt"
	"sync/atomic"

	"fnpr/internal/delay"
	"fnpr/internal/guard"
)

// Fault selects which faults a wrapped function injects. The zero value
// injects nothing.
type Fault struct {
	// PanicAtQ, when positive, panics inside the Algorithm 1 walk of the
	// grid point whose protected window starts at this Q (see the package
	// comment). Every analysis of that point triggers the fault.
	PanicAtQ float64

	// PanicFallback panics inside the Equation 4 fallback's full-domain
	// MaxOn query, killing the degradation rung and forcing quarantine.
	PanicFallback bool

	// Burn charges this many extra steps on Guard per query, burning the
	// shared budget so the analysis trips guard.ErrBudgetExceeded
	// mid-flight.
	Burn int64

	// Guard is the scope Burn charges. Required when Burn > 0.
	Guard *guard.Ctx

	// CancelAfter invokes Cancel once, after this many queries — delayed
	// cancellation arriving while the analysis is deep in its loops.
	CancelAfter int64

	// Cancel is the abort hook CancelAfter fires (typically a
	// context.CancelFunc). Required when CancelAfter > 0.
	Cancel func()
}

// Wrap returns f with the given faults injected around its queries. The
// wrapper implements delay.Function and is safe for concurrent use.
func Wrap(f delay.Function, fault Fault) *Func {
	return &Func{inner: f, fault: fault}
}

// Func is a fault-injecting delay.Function. See Wrap.
type Func struct {
	inner   delay.Function
	fault   Fault
	queries atomic.Int64
	fired   atomic.Int64
}

var _ delay.Function = (*Func)(nil)

// Fired returns how many faults this function has injected so far (panics
// thrown, cancels issued; budget burn is continuous and not counted).
func (c *Func) Fired() int64 { return c.fired.Load() }

// hook runs the per-query faults: budget burn and delayed cancel.
func (c *Func) hook() {
	n := c.queries.Add(1)
	if c.fault.Burn > 0 && c.fault.Guard != nil {
		// The burn itself ignores the budget verdict: the analysis's own
		// next Tick observes the exhausted budget, exactly as it would if
		// the work had genuinely been done.
		_ = c.fault.Guard.TickN(c.fault.Burn)
	}
	if c.fault.CancelAfter > 0 && n == c.fault.CancelAfter && c.fault.Cancel != nil {
		c.fired.Add(1)
		c.fault.Cancel()
	}
}

// Domain implements delay.Function. It passes through unfaulted so input
// validation (which every analysis runs before its loops) stays clean — the
// faults target the analysis, not its preconditions.
func (c *Func) Domain() float64 { return c.inner.Domain() }

// Eval implements delay.Function.
func (c *Func) Eval(t float64) float64 {
	c.hook()
	return c.inner.Eval(t)
}

// MaxOn implements delay.Function, injecting the fallback panic on the
// Equation 4 query shape.
func (c *Func) MaxOn(a, b float64) (tmax, fmax float64) {
	c.hook()
	if c.fault.PanicFallback && a == 0 && b == c.inner.Domain() {
		c.fired.Add(1)
		panic(fmt.Sprintf("chaos: injected panic in Eq.4 fallback (MaxOn[0,%g])", b))
	}
	return c.inner.MaxOn(a, b)
}

// FirstReachDescending implements delay.Function, injecting the targeted
// grid-point panic on the first-window query shape.
func (c *Func) FirstReachDescending(a, b, cc float64) (x float64, ok bool) {
	c.hook()
	if c.fault.PanicAtQ > 0 && a == c.fault.PanicAtQ {
		c.fired.Add(1)
		panic(fmt.Sprintf("chaos: injected panic at Q=%g", a))
	}
	return c.inner.FirstReachDescending(a, b, cc)
}
