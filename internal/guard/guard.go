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
// per-goroutine. A lane (see Lane) is the exception: it belongs to one
// goroutine.
//
// The zero value of *Ctx (nil) is a valid scope with no limits.
type Ctx struct {
	ctx        context.Context
	deadline   time.Time
	budget     int64
	steps      atomic.Int64
	checkpoint func(steps int64)
	obs        *obs.Scope

	// parent is set on a lane only: the scope it leases steps from. Of
	// the steps the parent counts, end-pos are the lane's unspent lease.
	parent   *Ctx
	pos, end int64
	// polled is the cancellation cause the lane's last poll found, nil
	// while its polls have found none; EntryErr serves it.
	polled error
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

// Steps returns the number of steps charged so far. On a lane it is the
// parent's count less the lane's unspent lease: what the parent would read
// had the lane ticked it directly.
func (g *Ctx) Steps() int64 {
	if g == nil {
		return 0
	}
	if g.parent != nil {
		return g.parent.steps.Load() - (g.end - g.pos)
	}
	return g.steps.Load()
}

// Remaining returns the steps left in the budget, or -1 when unlimited.
func (g *Ctx) Remaining() int64 {
	if g == nil || g.budget <= 0 {
		return -1
	}
	r := g.budget - g.Steps()
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
// inner work each, or a batch of n iterations charged up front). Against
// the budget it is exactly n calls of Tick that stop at the first error: a
// batch that crosses the budget charges up to budget+1 and reports "after
// budget+1 steps", a batch on a spent budget charges 1, and n <= 0 charges
// nothing. Only the context and deadline poll is batched: it runs once when
// the batch crosses a multiple of pollEvery, and reports the batch's end.
func (g *Ctx) TickN(n int64) error {
	if g == nil || n <= 0 {
		return nil
	}
	if g.parent != nil {
		return g.laneTick(n)
	}
	err, _ := g.tick(n)
	return err
}

// tick is TickN on a scope that is not a lane. When the batch reaches a
// poll point it also returns the cancellation cause the poll found.
func (g *Ctx) tick(n int64) (err, cause error) {
	s := g.steps.Add(n)
	if g.budget > 0 && s > g.budget {
		return g.overBudget(s, n), nil
	}
	// Amortised: context and clock are polled every pollEvery steps. With
	// TickN the poll can only be late by one call's worth of steps.
	if s%pollEvery < n {
		if g.checkpoint != nil {
			g.checkpoint(s)
		}
		if cause = g.cause(); cause != nil {
			return canceledAfter(s, cause), cause
		}
	}
	return nil, nil
}

// overBudget settles a batch of n steps that took the counter to s, past
// the budget, to what n calls of Tick would have charged: the ticks up to
// and including the first one past the budget. The batch started at s-n,
// so it gives back every step after max(s-n, budget)+1. Every batch adds at
// least one step for good, so the first batch past the budget keeps the
// counter above it from then on, and sharing goroutines are never granted
// more than budget steps between them.
func (g *Ctx) overBudget(s, n int64) error {
	end := max(s-n, g.budget) + 1
	g.steps.Add(end - s)
	return fmt.Errorf("%w after %d steps (budget %d)", ErrBudgetExceeded, end, g.budget)
}

// Lane returns a scope for one goroutine that charges g's budget in
// leases instead of one atomic add per tick. A lease takes the steps from
// g's counter up to just before its next multiple of pollEvery, never past
// the budget; the lane spends it with plain arithmetic and goes through g
// for the tick that reaches the multiple, so that tick runs g's checkpoint
// and its context and deadline poll. Hence one lane behaves exactly like
// ticking g: the same Steps, trip point, error text, polls and checkpoint
// arguments. Leased steps count as charged on g, so lanes and direct ticks
// together are never granted more than the budget; a lane's next tick
// fails once g's budget is spent, by a lane or by a direct charge.
//
// Close gives the unspent lease back, so g's Steps after the lanes close
// is the sum of what they charged. A lane takes its limits and scope from
// g and must not be changed with the With* setters; a lane of a lane leases
// from the same g. Lane of nil is nil.
func (g *Ctx) Lane() *Ctx {
	if g == nil {
		return nil
	}
	if g.parent != nil {
		g = g.parent
	}
	return &Ctx{ctx: g.ctx, deadline: g.deadline, budget: g.budget, obs: g.obs, parent: g}
}

// Close gives a lane's unspent lease back to its parent. The lane stays
// usable: its next tick takes a new lease. Close is a no-op on a scope that
// is not a lane, and on nil.
func (g *Ctx) Close() {
	if g != nil && g.parent != nil {
		g.settle()
	}
}

// laneTick charges n steps on a lane: from its lease while the steps fit
// and the parent's budget is not spent, else through the parent.
func (g *Ctx) laneTick(n int64) error {
	if s := g.pos + n; s <= g.end && !g.parent.spent() {
		g.pos = s
		return nil
	}
	g.settle()
	err, cause := g.parent.tick(n)
	if cause != nil {
		g.polled = cause
	}
	if err != nil {
		return err
	}
	g.lease()
	return nil
}

// spent reports whether some tick has already run past the budget: from
// then on the counter stays above it (see overBudget).
func (g *Ctx) spent() bool {
	return g.budget > 0 && g.steps.Load() > g.budget
}

// lease reserves the parent's steps from its counter c up to just before
// the next multiple of pollEvery above c, capped at the budget. The lease
// is empty when c sits just before a multiple or on the budget.
func (g *Ctx) lease() {
	p := g.parent
	for {
		c := p.steps.Load()
		e := (c/pollEvery+1)*pollEvery - 1
		if p.budget > 0 && e > p.budget {
			e = p.budget
		}
		if e <= c {
			g.pos, g.end = c, c
			return
		}
		if p.steps.CompareAndSwap(c, e) {
			g.pos, g.end = c, e
			return
		}
	}
}

// settle gives the unspent lease back, unless the budget is already spent:
// then the lease is dropped, so the counter stays above the budget.
func (g *Ctx) settle() {
	p := g.parent
	for u := g.end - g.pos; u > 0; {
		c := p.steps.Load()
		if p.budget > 0 && c > p.budget {
			break
		}
		if p.steps.CompareAndSwap(c, c-u) {
			break
		}
	}
	g.end = g.pos
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
	return g.poll(g.Steps())
}

// EntryErr is the entry check of an analysis that runs many times inside
// one job. On a lane it reads neither the clock nor the context: it
// reports the cancellation its last poll found, with Err's text, and nil
// while none has, so a cancellation or a passed deadline is seen no later
// than the lane's next poll point. On any other scope it is Err.
func (g *Ctx) EntryErr() error {
	if g == nil || g.parent == nil {
		return g.Err()
	}
	if g.polled != nil {
		return canceledAfter(g.Steps(), g.polled)
	}
	return nil
}

// errDeadline is the cause a poll reports once the deadline has passed.
var errDeadline = errors.New("wall-clock deadline passed")

func (g *Ctx) poll(steps int64) error {
	if cause := g.cause(); cause != nil {
		return canceledAfter(steps, cause)
	}
	return nil
}

// cause returns why the scope is canceled: its context's error first, then
// errDeadline once the deadline has passed; nil while neither holds.
func (g *Ctx) cause() error {
	if g.ctx != nil {
		if err := g.ctx.Err(); err != nil {
			return err
		}
	}
	if !g.deadline.IsZero() && time.Now().After(g.deadline) {
		return errDeadline
	}
	return nil
}

// canceledAfter is the ErrCanceled error for a cause found at steps.
func canceledAfter(steps int64, cause error) error {
	return fmt.Errorf("%w after %d steps: %v", ErrCanceled, steps, cause)
}

// Run executes fn inside a panic-isolating scope: a panic in fn (or anything
// it calls) is recovered and returned as an ErrPanic-wrapped error carrying
// label(), instead of unwinding the caller. It also performs the entry
// check, so fn is never entered under an already-dead scope. label is called
// only when a panic is recovered, so callers pay for formatting it only then.
//
// The type parameter carries fn's result through without boxing; on error
// the zero value is returned.
func Run[T any](g *Ctx, label func() string, fn func() (T, error)) (out T, err error) {
	if e := g.Err(); e != nil {
		return out, e
	}
	defer func() {
		if r := recover(); r != nil {
			var zero T
			out = zero
			err = fmt.Errorf("%s: %w: %v", label(), ErrPanic, r)
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
