// Package guard is the analysis runtime every long-running procedure in this
// repository threads through: a cancellation/budget scope (Ctx) polled from
// the inner loops of Algorithm 1, the Equation 4 fixpoint, the exact oracle,
// the response-time analyses, the demand-bound tests and the simulator, plus
// a panic-isolating closure runner (Run) and a structured error taxonomy.
//
// All of the paper's procedures are iterative and can legitimately diverge on
// adversarial inputs (the bound diverges whenever max f >= Q), so every entry
// point needs three things the raw algorithms do not provide: a way for the
// caller to abort (context cancellation and wall-clock deadlines), a hard
// ceiling on work (step budgets), and containment of programming errors
// (panic recovery), with errors a caller can classify:
//
//   - ErrCanceled        — the caller aborted (context cancel or deadline);
//   - ErrBudgetExceeded  — the step budget ran out before a result;
//   - ErrDiverged        — the analysis itself has no finite answer;
//   - ErrInvalidInput    — the input fails validation (NaN, ±Inf, shape);
//   - ErrPanic           — a panic was recovered inside a guarded scope;
//   - ErrOverload        — admission control refused the work up front;
//   - ErrStorage         — the durable layer (journal, job store) failed.
//
// A nil *Ctx is valid everywhere and means "no limits": Tick and Err return
// nil, so pre-existing call sites keep their exact behaviour at zero cost.
package guard

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"fnpr/internal/obs"
)

// The error taxonomy. Callers classify with errors.Is; all errors produced by
// this package (and by the analysis packages that build on it) wrap exactly
// one of these sentinels.
var (
	// ErrCanceled reports that the analysis was aborted by its caller,
	// either through context cancellation or a wall-clock deadline.
	ErrCanceled = errors.New("analysis canceled")
	// ErrBudgetExceeded reports that the iteration/step budget ran out
	// before the analysis reached a result.
	ErrBudgetExceeded = errors.New("analysis budget exceeded")
	// ErrDiverged reports that the analysis has no finite answer on this
	// input (e.g. the Equation 4 fixpoint with max f >= Q).
	ErrDiverged = errors.New("analysis diverged")
	// ErrInvalidInput reports input that fails validation before any
	// iteration starts (NaN or infinite parameters, malformed shapes).
	ErrInvalidInput = errors.New("invalid input")
	// ErrPanic reports a panic recovered inside a guarded scope.
	ErrPanic = errors.New("analysis panicked")
	// ErrOverload reports that the work was refused up front by admission
	// control — a full queue, a saturated concurrency limit or a draining
	// server — rather than attempted and failed. The request was not
	// started, so retrying later is always sound.
	ErrOverload = errors.New("analysis overloaded")
	// ErrStorage reports that the durable-storage layer underneath an
	// analysis failed — a journal or job-manifest write refused (ENOSPC),
	// torn short, or an fsync reporting an I/O error. The computation may
	// be fine; its durability is not, so the work must not be reported as
	// safely checkpointed.
	ErrStorage = errors.New("storage failure")
)

// Invalidf builds an ErrInvalidInput-wrapped error.
func Invalidf(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrInvalidInput)
}

// Divergedf builds an ErrDiverged-wrapped error.
func Divergedf(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrDiverged)
}

// Budgetf builds an ErrBudgetExceeded-wrapped error.
func Budgetf(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrBudgetExceeded)
}

// Overloadf builds an ErrOverload-wrapped error.
func Overloadf(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrOverload)
}

// Storagef builds an ErrStorage-wrapped error around an underlying disk
// failure, keeping the cause in the chain (errors.Is still sees ENOSPC etc).
func Storagef(err error, format string, args ...any) error {
	return fmt.Errorf("%s: %w: %w", fmt.Sprintf(format, args...), ErrStorage, err)
}

// pollEvery is how many steps pass between context/deadline polls. Budget
// accounting is exact on every step; only the (comparatively expensive)
// context and clock checks are amortised.
const pollEvery = 256

// Ctx is one guarded analysis scope: a context, an optional wall-clock
// deadline, an optional step budget and an optional progress checkpoint
// callback. It is safe for concurrent use — parallel sweep workers share one
// Ctx so that budget and cancellation are global to the analysis, not
// per-goroutine.
//
// The zero value of *Ctx (nil) is a valid scope with no limits.
type Ctx struct {
	ctx        context.Context
	deadline   time.Time
	budget     int64
	steps      atomic.Int64
	checkpoint func(steps int64)
	obs        *obs.Scope
}

// New returns a guarded scope observing ctx. A nil ctx means no cancellation
// source; limits are attached with WithBudget / WithDeadline / WithTimeout.
func New(ctx context.Context) *Ctx {
	return &Ctx{ctx: ctx}
}

// WithBudget sets the total step budget; n <= 0 means unlimited. It returns
// g for chaining and must be called before the scope is shared.
func (g *Ctx) WithBudget(n int64) *Ctx {
	g.budget = n
	return g
}

// WithDeadline sets a wall-clock deadline; the zero time means none.
func (g *Ctx) WithDeadline(t time.Time) *Ctx {
	g.deadline = t
	return g
}

// WithTimeout sets the deadline d from now; d <= 0 means none.
func (g *Ctx) WithTimeout(d time.Duration) *Ctx {
	if d > 0 {
		g.deadline = time.Now().Add(d)
	}
	return g
}

// WithCheckpoint installs a progress callback invoked roughly every pollEvery
// steps with the cumulative step count. The callback must be safe for
// concurrent use when the scope is shared between goroutines.
func (g *Ctx) WithCheckpoint(fn func(steps int64)) *Ctx {
	g.checkpoint = fn
	return g
}

// WithObs attaches an observability scope: every analysis running under this
// guard reports its metrics, spans and progress events there. Like the other
// With* setters it must be called before the scope is shared.
func (g *Ctx) WithObs(s *obs.Scope) *Ctx {
	g.obs = s
	return g
}

// Obs returns the attached observability scope; nil (collect nothing) on a
// nil Ctx or when none was attached. The nil scope is valid everywhere, so
// callers use the result unconditionally.
func (g *Ctx) Obs() *obs.Scope {
	if g == nil {
		return nil
	}
	return g.obs
}

// Steps returns the number of steps charged so far.
func (g *Ctx) Steps() int64 {
	if g == nil {
		return 0
	}
	return g.steps.Load()
}

// Remaining returns the steps left in the budget, or -1 when unlimited.
func (g *Ctx) Remaining() int64 {
	if g == nil || g.budget <= 0 {
		return -1
	}
	r := g.budget - g.steps.Load()
	if r < 0 {
		return 0
	}
	return r
}

// Tick charges one step and returns a non-nil error when the scope is
// exhausted or canceled. Analyses call it once per loop iteration; it is the
// single cheap hook that makes a loop cancellable, time-bounded and
// budget-bounded at once.
func (g *Ctx) Tick() error {
	return g.TickN(1)
}

// TickN charges n steps at once (for loops whose iterations do n units of
// inner work each).
func (g *Ctx) TickN(n int64) error {
	if g == nil {
		return nil
	}
	s := g.steps.Add(n)
	if g.budget > 0 && s > g.budget {
		return fmt.Errorf("%w after %d steps (budget %d)", ErrBudgetExceeded, s, g.budget)
	}
	// Amortised: context and clock are polled every pollEvery steps. With
	// TickN the poll can only be late by one call's worth of steps.
	if s%pollEvery < n {
		if g.checkpoint != nil {
			g.checkpoint(s)
		}
		return g.poll(s)
	}
	return nil
}

// Done returns the cancellation channel of the scope's context, or nil (block
// forever) when the scope has no cancellation source, for callers that wait
// on cancellation in a select.
func (g *Ctx) Done() <-chan struct{} {
	if g == nil || g.ctx == nil {
		return nil
	}
	return g.ctx.Done()
}

// Err checks cancellation and the deadline without charging a step — the
// entry-point check, so an already-canceled context fails before any work.
func (g *Ctx) Err() error {
	if g == nil {
		return nil
	}
	return g.poll(g.steps.Load())
}

func (g *Ctx) poll(steps int64) error {
	if g.ctx != nil {
		if err := g.ctx.Err(); err != nil {
			return fmt.Errorf("%w after %d steps: %v", ErrCanceled, steps, err)
		}
	}
	if !g.deadline.IsZero() && time.Now().After(g.deadline) {
		return fmt.Errorf("%w after %d steps: wall-clock deadline passed", ErrCanceled, steps)
	}
	return nil
}

// Run executes fn inside a panic-isolating scope: a panic in fn (or anything
// it calls) is recovered and returned as an ErrPanic-wrapped error carrying
// the label, instead of unwinding the caller. It also performs the entry
// check, so fn is never entered under an already-dead scope.
//
// The type parameter carries fn's result through without boxing; on error
// the zero value is returned.
func Run[T any](g *Ctx, label string, fn func() (T, error)) (out T, err error) {
	if e := g.Err(); e != nil {
		return out, e
	}
	defer func() {
		if r := recover(); r != nil {
			var zero T
			out = zero
			err = fmt.Errorf("%s: %w: %v", label, ErrPanic, r)
		}
	}()
	return fn()
}

// Abortive reports whether err means the whole computation should stop
// (caller abort or global budget exhaustion) rather than just this unit of
// work — the classification parallel sweeps use to decide between degrading
// one grid point and aborting the sweep.
func Abortive(err error) bool {
	return errors.Is(err, ErrCanceled)
}
