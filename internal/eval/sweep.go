package eval

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"fnpr/internal/core"
	"fnpr/internal/delay"
	"fnpr/internal/guard"
	"fnpr/internal/journal"
	"fnpr/internal/memo"
	"fnpr/internal/obs"
	"fnpr/internal/wire"
)

// SweepSpec names one curve of a Q sweep: a preemption delay function whose
// Algorithm 1 bound is evaluated at every grid point.
type SweepSpec struct {
	Name string
	F    delay.Function
}

// Reason classifies why a degradation-ladder rung failed — the typed form of
// the failure vocabulary that SweepPoint carries and the journal encodes.
// The zero value ReasonNone means "no failure".
type Reason uint8

const (
	// ReasonNone: the rung did not fail (or was never reached).
	ReasonNone Reason = iota
	// ReasonCanceled: the caller aborted (context cancel or deadline).
	ReasonCanceled
	// ReasonBudget: a step budget ran out.
	ReasonBudget
	// ReasonDiverged: the analysis has no finite answer on this input.
	ReasonDiverged
	// ReasonInvalid: the input failed validation.
	ReasonInvalid
	// ReasonPanic: a panic was recovered inside the guarded rung.
	ReasonPanic
	// ReasonError: any other failure.
	ReasonError
	// ReasonOverload: the work was refused up front by admission control
	// (queue full, concurrency limit, draining server) — it never ran.
	ReasonOverload
	// ReasonStorage: the durable layer underneath the analysis failed —
	// a journal or manifest write refused, torn, or not fsync-able.
	ReasonStorage
)

// reasonNames is the stable wire vocabulary; it must never be reordered —
// journal records and golden files spell these strings. New classes are
// appended only.
var reasonNames = [...]string{"", "canceled", "budget", "diverged", "invalid", "panic", "error", "overload", "storage"}

// String returns the machine-readable class name ("" for ReasonNone).
func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return "error"
}

// reasonFromString inverts String; unknown spellings collapse to ReasonError
// (a journal written by a future version still restores as a failure).
func reasonFromString(s string) Reason {
	for i, n := range reasonNames {
		if s == n {
			return Reason(i)
		}
	}
	return ReasonError
}

// ReasonOf maps an analysis error to its failure class; nil maps to
// ReasonNone.
func ReasonOf(err error) Reason {
	switch {
	case err == nil:
		return ReasonNone
	case errors.Is(err, guard.ErrCanceled):
		return ReasonCanceled
	case errors.Is(err, guard.ErrBudgetExceeded):
		return ReasonBudget
	case errors.Is(err, guard.ErrDiverged):
		return ReasonDiverged
	case errors.Is(err, guard.ErrInvalidInput):
		return ReasonInvalid
	case errors.Is(err, guard.ErrPanic):
		return ReasonPanic
	case errors.Is(err, guard.ErrOverload):
		return ReasonOverload
	case errors.Is(err, guard.ErrStorage):
		return ReasonStorage
	default:
		return ReasonError
	}
}

// SweepPoint is one (Q, bound) sample, together with the full story of how it
// was obtained — the degradation ladder every grid point walks down:
//
//  1. the primary Algorithm 1 analysis, run once: the analysis is a pure
//     function of the curve and Q, so a failure would recur on a re-run;
//  2. the Equation 4 state-of-the-art fallback when the primary analysis
//     fails (Degraded is set, Primary records the failure class);
//  3. quarantine when even the fallback fails (Quarantined is set, Value is
//     NaN, Fallback records the second failure class).
//
// Nothing degrades silently: Primary/Fallback are the typed failure classes,
// Code derives the wire string ("degraded:panic", "quarantined:panic+budget",
// ...) and Note keeps the full error text.
type SweepPoint struct {
	Q        float64
	Value    float64
	Degraded bool
	// Quarantined marks a point where both the primary analysis and the
	// Equation 4 fallback failed; Value is NaN.
	Quarantined bool
	// Primary is the failure class of the primary Algorithm 1 rung
	// (ReasonNone for a clean point).
	Primary Reason
	// Fallback is the failure class of the Equation 4 rung; only
	// quarantined points have it set.
	Fallback Reason
	// Note is the human-readable error chain behind Primary/Fallback.
	Note string
	// Attempts counts the primary-analysis attempts spent on this point:
	// 1 for every computed point. Journals written when a point could be
	// retried may hold larger counts; they restore as written.
	Attempts int
	// Done marks the point as completed (cleanly, degraded or
	// quarantined). Points of an aborted sweep that were never reached
	// have Done == false.
	Done bool
	// Cached reports the point was answered from SweepOptions.Memo instead
	// of computed. Runtime-only, never serialized: journal records and API
	// responses are byte-identical whether or not a cache was attached.
	Cached bool `json:"-"`
}

// Code derives the machine-readable failure string from the typed classes:
// empty for a clean point, "degraded:<class>" for a degraded one,
// "quarantined:<class>+<class>" for a quarantined one. This is the exact
// vocabulary journal records and quarantine notes have always used.
func (p SweepPoint) Code() string {
	switch {
	case p.Quarantined:
		return "quarantined:" + p.Primary.String() + "+" + p.Fallback.String()
	case p.Degraded:
		return "degraded:" + p.Primary.String()
	default:
		return ""
	}
}

// sweepPointJSON is the journal encoding of a SweepPoint, as UnmarshalJSON
// reads it and WriteJSON writes it. Value is stored as a JSON number for
// finite values and as the strings "NaN" / "+Inf" / "-Inf" otherwise
// (encoding/json rejects non-finite floats). Finite numbers use
// encoding/json's shortest-roundtrip form, so a replayed value is bit-exact.
// The failure classes travel as the derived code string under the original
// "code" key, keeping journals from previous versions replayable and their
// bytes stable.
type sweepPointJSON struct {
	Q           float64         `json:"q"`
	Value       json.RawMessage `json:"value"`
	Degraded    bool            `json:"degraded,omitempty"`
	Quarantined bool            `json:"quarantined,omitempty"`
	Code        string          `json:"code,omitempty"`
	Reason      string          `json:"reason,omitempty"`
	Attempts    int             `json:"attempts,omitempty"`
	Done        bool            `json:"done,omitempty"`
}

// WriteJSON writes p in its journal encoding (see sweepPointJSON): the
// members in sweepPointJSON's order, the omitempty ones only when set.
func (p SweepPoint) WriteJSON(w *wire.Writer) {
	w.BeginObject()
	w.Key("q")
	w.Float(p.Q)
	w.Key("value")
	w.Float(p.Value)
	if p.Degraded {
		w.Key("degraded")
		w.Bool(true)
	}
	if p.Quarantined {
		w.Key("quarantined")
		w.Bool(true)
	}
	if code := p.Code(); code != "" {
		w.Key("code")
		w.String(code)
	}
	if p.Note != "" {
		w.Key("reason")
		w.String(p.Note)
	}
	if p.Attempts != 0 {
		w.Key("attempts")
		w.Int(p.Attempts)
	}
	if p.Done {
		w.Key("done")
		w.Bool(true)
	}
	w.EndObject()
}

// MarshalJSON implements json.Marshaler: the compact WriteJSON.
func (p SweepPoint) MarshalJSON() ([]byte, error) {
	var w wire.Writer
	p.WriteJSON(&w)
	return w.Bytes(), nil
}

// UnmarshalJSON implements json.Unmarshaler (see sweepPointJSON).
func (p *SweepPoint) UnmarshalJSON(data []byte) error {
	var enc sweepPointJSON
	if err := json.Unmarshal(data, &enc); err != nil {
		return err
	}
	*p = SweepPoint{
		Q: enc.Q, Degraded: enc.Degraded, Quarantined: enc.Quarantined,
		Note: enc.Reason, Attempts: enc.Attempts, Done: enc.Done,
	}
	if enc.Code != "" {
		body := enc.Code
		if rest, ok := strings.CutPrefix(body, "quarantined:"); ok {
			prim, fb, _ := strings.Cut(rest, "+")
			p.Primary = reasonFromString(prim)
			p.Fallback = reasonFromString(fb)
		} else if rest, ok := strings.CutPrefix(body, "degraded:"); ok {
			p.Primary = reasonFromString(rest)
		} else {
			p.Primary = reasonFromString(body)
		}
	}
	var s string
	if err := json.Unmarshal(enc.Value, &s); err == nil {
		switch s {
		case "NaN":
			p.Value = math.NaN()
		case "+Inf":
			p.Value = math.Inf(1)
		case "-Inf":
			p.Value = math.Inf(-1)
		default:
			return fmt.Errorf("eval: unknown sweep point value %q", s)
		}
		return nil
	}
	return json.Unmarshal(enc.Value, &p.Value)
}

// SweepResult is one curve of the sweep.
type SweepResult struct {
	Name   string
	Points []SweepPoint // indexed like the input Q grid
}

// WriteJSON writes r as encoding/json writes the struct: {"Name", "Points"},
// a nil Points as null.
func (r SweepResult) WriteJSON(w *wire.Writer) {
	w.BeginObject()
	w.Key("Name")
	w.String(r.Name)
	w.Key("Points")
	wire.Array(w, r.Points, func(w *wire.Writer, p SweepPoint) { p.WriteJSON(w) })
	w.EndObject()
}

// PartialError wraps the abort cause of a sweep that completed some grid
// points before stopping (cancellation, budget exhaustion). The completed
// points are NOT discarded: QSweep returns them alongside this error, and
// when a journal is attached they are already checkpointed on disk. Callers
// classify the cause with errors.Is (it wraps a guard sentinel) and recover
// the partial table with errors.As.
type PartialError struct {
	// Results holds every curve with the points completed so far
	// (Done marks them); incomplete points carry only their Q.
	Results []SweepResult
	// Completed and Total count grid points across all curves.
	Completed, Total int
	// Err is the abort cause.
	Err error
}

// Error implements error.
func (e *PartialError) Error() string {
	return fmt.Sprintf("sweep aborted after %d/%d grid points: %v", e.Completed, e.Total, e.Err)
}

// Unwrap exposes the abort cause for errors.Is classification.
func (e *PartialError) Unwrap() error { return e.Err }

// SweepOptions configures one Q sweep end to end: the grid, the worker pool,
// the crash-safe batch runtime around it and the observability scope it
// reports into. The zero value (plus a non-empty Qs grid) is a plain
// in-memory sweep: GOMAXPROCS workers, no checkpointing, no events.
type SweepOptions struct {
	// Qs is the Q grid every spec is evaluated on. QSweep requires it
	// non-empty; figure-level wrappers default it to DefaultQGrid().
	Qs []float64

	// Workers is the size of the goroutine pool; <= 0 selects GOMAXPROCS.
	Workers int

	// Journal, when non-nil, receives one checkpoint record per completed
	// grid point, so an aborted sweep can resume. The first record
	// fingerprints the grid (spec names and Q values); resuming against a
	// journal from a different sweep is refused.
	Journal *journal.Journal

	// Resume is the replayed view of a prior run's journal
	// (journal.Latest): grid points found here are restored instead of
	// recomputed. The restored values are bit-exact, so a resumed sweep's
	// output is byte-identical to an uninterrupted run's.
	Resume map[string]json.RawMessage

	// Memo, when non-nil, is the content-addressed result cache every grid
	// point consults before computing (core.Options.Memo): a repeated sweep
	// over the same functions and grid is answered from memory, and an
	// edited task set recomputes only the terms whose fingerprints changed.
	// Hits are bit-identical to fresh computations and marked
	// SweepPoint.Cached. Build with core.NewResultCache.
	Memo *memo.Cache

	// Obs is the observability scope the sweep reports into: progress
	// events (SweepStarted, PointDone, PointDegraded, PointQuarantined,
	// SweepResumed, SweepFinished), the per-point wall time and the
	// ladder-transition counters (DESIGN.md §10).
	// When nil the guard's attached scope is used; a nil scope collects
	// nothing and costs nothing beyond a few nil checks.
	Obs *obs.Scope
}

// scope resolves the sweep's observability scope: the explicit option wins,
// then the guard's attached scope.
func (o SweepOptions) scope(g *guard.Ctx) *obs.Scope {
	if o.Obs != nil {
		return o.Obs
	}
	return g.Obs()
}

// gridKey is the journal key of one grid point; gridMetaKey fingerprints the
// whole sweep.
func gridKey(spec string, qi int, q float64) string {
	return fmt.Sprintf("point:%s@%d:%g", spec, qi, q)
}

const gridMetaKey = "sweep:grid"

// gridMeta is the journal fingerprint of a sweep's shape.
type gridMeta struct {
	Specs []string  `json:"specs"`
	Qs    []float64 `json:"qs"`
}

// QSweep evaluates the Algorithm 1 bound of every spec at every Q of
// opts.Qs on the campaigns' worker pool (runPool), grid point i being spec
// i/len(Qs) at Q i%len(Qs). Each worker charges g through its own lane, so
// cancellation, deadline and step budget stay global to the sweep.
//
// Each grid point walks the degradation ladder documented on SweepPoint:
// primary analysis, Equation 4 fallback, quarantine — every rung under its
// own panic-recovery scope (guard.Run), so a pathological point never kills
// the sweep. Only caller aborts (guard.ErrCanceled) and
// exhaustion of the sweep's own global budget stop everything; then the
// completed points are returned alongside a *PartialError describing the
// abort — partial results are never discarded, and with a journal attached
// they are already checkpointed for a later resume.
//
// This is the package's only sweep entry point; it absorbed the former
// positional QSweep(g, specs, qs, workers) and QSweepOpts variants.
func QSweep(g *guard.Ctx, specs []SweepSpec, opts SweepOptions) ([]SweepResult, error) {
	qs := opts.Qs
	if len(specs) == 0 {
		return nil, guard.Invalidf("eval: sweep needs at least one function")
	}
	if len(qs) == 0 {
		return nil, guard.Invalidf("eval: sweep needs a non-empty Q grid")
	}
	for i, q := range qs {
		if math.IsNaN(q) || math.IsInf(q, 0) {
			return nil, guard.Invalidf("eval: grid point %d is non-finite (%g)", i, q)
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		if s.F == nil {
			return nil, guard.Invalidf("eval: sweep spec %d (%q) has a nil function", i, s.Name)
		}
		names[i] = s.Name
	}
	if err := checkGridMeta(opts, names, qs); err != nil {
		return nil, err
	}
	if err := g.Err(); err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Build each spec's query index once, up front, and share it across the
	// whole Q grid and every worker (Indexed is immutable, hence safe for
	// concurrent queries). Working on a copy keeps the caller's specs
	// untouched. Below the AutoIndex piece threshold the scan kernel stays.
	indexed := make([]SweepSpec, len(specs))
	copy(indexed, specs)
	for i := range indexed {
		indexed[i].F = delay.AutoIndex(indexed[i].F)
	}
	specs = indexed

	sc := opts.scope(g)
	total := len(specs) * len(qs)
	sc.Emit(obs.Event{Type: obs.SweepStarted, Total: total})
	if opts.Resume != nil {
		restorable := 0
		for key := range opts.Resume {
			if strings.HasPrefix(key, "point:") {
				restorable++
			}
		}
		sc.Emit(obs.Event{Type: obs.SweepResumed, Restored: restorable, Total: total})
	}
	mSweepWorkers.On(sc).Set(float64(workers))

	// Every point carries its Q from the start, so the points an aborted
	// sweep never reaches still say where they sit in the grid.
	results := make([]SweepResult, len(specs))
	for i, s := range specs {
		results[i] = SweepResult{Name: s.Name, Points: make([]SweepPoint, len(qs))}
		for j, q := range qs {
			results[i].Points[j].Q = q
		}
	}
	fatal := sweepFatal(g)
	// finish settles a point: ladder counters, the point's progress events
	// and the checkpoint write. Every rung of the ladder funnels through
	// here exactly once per point. A journal write failure is sweep-fatal:
	// continuing would break the crash-safety contract the caller asked for.
	finish := func(si, qi int, pt *SweepPoint, restored bool) error {
		pt.Done = true
		switch {
		case restored:
			mPointsRestored.On(sc).Inc()
		case pt.Quarantined:
			mPointsQuarantine.On(sc).Inc()
			sc.Emit(obs.Event{Type: obs.PointQuarantined, Spec: results[si].Name, Q: pt.Q, Code: pt.Code(), Err: pt.Note})
		case pt.Degraded:
			mPointsDegraded.On(sc).Inc()
			sc.Emit(obs.Event{Type: obs.PointDegraded, Spec: results[si].Name, Q: pt.Q, Code: pt.Code(), Err: pt.Note})
		default:
			mPointsClean.On(sc).Inc()
		}
		sc.Emit(obs.Event{Type: obs.PointDone, Spec: results[si].Name, Q: pt.Q, Code: pt.Code()})
		if restored || opts.Journal == nil {
			return nil
		}
		return opts.Journal.Append(gridKey(specs[si].Name, qi, qs[qi]), *pt)
	}
	// point walks grid point i, (spec i/len(qs), Q i%len(qs)), down the
	// ladder on the worker's lane. It returns only what stops the sweep.
	point := func(lane *guard.Ctx, i int) error {
		si, qi := i/len(qs), i%len(qs)
		spec, q := specs[si], qs[qi]
		pt := &results[si].Points[qi]
		if restorePoint(opts.Resume, spec.Name, qi, q, pt) {
			return finish(si, qi, pt, true)
		}
		var start time.Time
		if sc != nil {
			start = time.Now()
		}
		// Built only when a rung recovers a panic.
		label := func() string { return fmt.Sprintf("%s at Q=%g", spec.Name, q) }
		pt.Attempts = 1
		v, err := guard.Run(lane, label, func() (core.Result, error) {
			return core.Analyze(lane, spec.F, q, core.Options{Obs: sc, Memo: opts.Memo})
		})
		switch {
		case err == nil:
			pt.Value = v.TotalDelay
			pt.Cached = v.Cached
		case fatal(err):
			return err
		default:
			// Rung 2: degrade to the Equation 4 bound, itself under a
			// recovery scope (a poisoned function can panic in
			// Domain/MaxOn too).
			fb, ferr := guard.Run(lane, func() string { return label() + " (Eq.4 fallback)" }, func() (core.Result, error) {
				return core.Analyze(lane, spec.F, q, core.Options{Method: core.Equation4, Obs: sc, Memo: opts.Memo})
			})
			switch {
			case ferr == nil:
				pt.Value = fb.TotalDelay
				pt.Cached = fb.Cached
				pt.Degraded = true
				pt.Primary = ReasonOf(err)
				pt.Note = err.Error()
			case fatal(ferr):
				return ferr
			default:
				// Rung 3: quarantine.
				pt.Value = math.NaN()
				pt.Degraded = true
				pt.Quarantined = true
				pt.Primary = ReasonOf(err)
				pt.Fallback = ReasonOf(ferr)
				pt.Note = fmt.Sprintf("%v; fallback: %v", err, ferr)
			}
		}
		err = finish(si, qi, pt, false)
		if sc != nil {
			mPointNs.On(sc).Observe(time.Since(start).Nanoseconds())
		}
		return err
	}
	abortErr := runPool(g, workers, total, func() func(*guard.Ctx, int) error { return point })

	completed := 0
	for _, r := range results {
		for _, pt := range r.Points {
			if pt.Done {
				completed++
			}
		}
	}
	if abortErr != nil {
		sc.Emit(obs.Event{Type: obs.SweepFinished, Completed: completed, Total: total, Err: abortErr.Error()})
		return results, &PartialError{
			Results:   results,
			Completed: completed,
			Total:     total,
			Err:       abortErr,
		}
	}
	sc.Emit(obs.Event{Type: obs.SweepFinished, Completed: completed, Total: total})
	return results, nil
}

// sweepFatal returns the classification of errors that stop a sweep
// under g: a caller abort, or a budget error once the sweep's own budget is
// spent (every remaining point would fail the same way). Any other budget
// error is the point's own and degrades that point. Spent means g's counter
// has passed the budget, where the first tick past it leaves the counter
// for good (DESIGN §7); Remaining() == 0 is not the same, because lanes
// lease steps up to the budget and hold them unspent. The budget's place
// on g's Steps scale is read once, here, before any lane leases.
func sweepFatal(g *guard.Ctx) func(error) bool {
	left := g.Remaining()
	limit := g.Steps() + left
	return func(err error) bool {
		if guard.Abortive(err) {
			return true
		}
		return left >= 0 && errors.Is(err, guard.ErrBudgetExceeded) && g.Steps() > limit
	}
}

// checkGridMeta verifies a resumed journal belongs to this sweep's grid and
// fingerprints fresh journals.
func checkGridMeta(opts SweepOptions, names []string, qs []float64) error {
	meta := gridMeta{Specs: names, Qs: qs}
	if opts.Resume != nil {
		var prev gridMeta
		ok, err := journal.Get(opts.Resume, gridMetaKey, &prev)
		if err != nil {
			return fmt.Errorf("eval: resume journal: %w", err)
		}
		if ok {
			if !equalStrings(prev.Specs, names) || !equalFloats(prev.Qs, qs) {
				return guard.Invalidf("eval: resume journal fingerprints a different sweep (specs %v, %d grid points)", prev.Specs, len(prev.Qs))
			}
			return nil // journal already fingerprinted; nothing to append
		}
	}
	if opts.Journal != nil {
		return opts.Journal.Append(gridMetaKey, meta)
	}
	return nil
}

// restorePoint loads a completed point from the resume view; it reports false
// (recompute) for missing, undecodable or incomplete records.
func restorePoint(resume map[string]json.RawMessage, spec string, qi int, q float64, pt *SweepPoint) bool {
	if resume == nil {
		return false
	}
	var prev SweepPoint
	ok, err := journal.Get(resume, gridKey(spec, qi, q), &prev)
	if err != nil || !ok || !prev.Done {
		return false
	}
	*pt = prev
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Degraded collects the flagged points of a sweep as human-readable strings
// (quarantined points lead with their machine-readable code), for surfacing
// in table notes and on stderr. The text is derived from the typed failure
// classes, so it always agrees with the journal encoding.
func Degraded(results []SweepResult) []string {
	var out []string
	for _, r := range results {
		for _, p := range r.Points {
			switch {
			case p.Quarantined:
				out = append(out, fmt.Sprintf("%s %s at Q=%g: %s", p.Code(), r.Name, p.Q, p.Note))
			case p.Degraded:
				out = append(out, fmt.Sprintf("degraded %s at Q=%g: %s", r.Name, p.Q, p.Note))
			}
		}
	}
	return out
}
