// Package obs is the observability layer of the analysis stack: atomic
// counters, gauges and histograms in a Registry, lightweight span tracing
// with wall-clock timestamps and monotonic durations, and a structured
// progress-event stream that sinks subscribe to. It is dependency-free
// (standard library only) and sits below every analysis package: guard
// carries a *Scope, so core, delay, journal, eval and the commands
// all report into one tree.
//
// Design constraints, in order:
//
//  1. A nil *Scope, *Counter, *Gauge or *Histogram is valid everywhere and
//     means "not collecting": every method is a nil-check away from free, so
//     un-instrumented runs pay nothing and instrumented hot loops stay
//     allocation-free (accumulate locally, flush once at the end).
//  2. Metrics are declared once, as package-level definitions (CounterDef,
//     GaugeDef, HistogramDef) that carry a name, kind, unit and description;
//     together they form the catalogue (Catalogue). Resolving a defined
//     instrument on a scope is an index into the registry's slots, not a
//     lookup by name. Names built at run time (the families) resolve by
//     name.
//  3. Everything is safe for concurrent use — the guarded sweep pool hammers
//     one Registry from every worker.
//  4. The process-global registry (Default) is a convenience, not a
//     requirement: tests inject their own Registry through a Scope
//     (TestRecorder) and assert on it in isolation.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The nil Counter
// discards adds.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n; a no-op on nil.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one; a no-op on nil.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 on nil.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64 — a last-written-value instrument
// for levels and sizes. The nil Gauge discards sets.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v; a no-op on nil.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add increments the gauge by v; a no-op on nil.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value; 0 on nil.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with bits.Len64(v) == i, i.e. bucket 0 holds v == 0
// and bucket i holds 2^(i-1) <= v < 2^i. 64 buckets cover every non-negative
// int64 (nanosecond durations up to ~292 years).
const histBuckets = 64

// Histogram is a fixed power-of-two-bucket histogram of non-negative int64
// observations (durations in nanoseconds, sizes, counts). The nil Histogram
// discards observations.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records v (negative values are clamped to 0); a no-op on nil.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Count returns the number of observations; 0 on nil.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations; 0 on nil.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Registry is a concurrent table of instruments. Instruments are created
// on first use and live for the registry's lifetime. A defined instrument
// (see Def) also sits in a slot indexed by its definition, so resolving it
// is one atomic load: no hashing, no lock, no allocation. Names outside the
// catalogue (the dynamic families, and reads by name in tests) resolve
// through a lock-free name map; a name and its definition always resolve
// to the same instrument. The nil Registry hands out nil instruments.
type Registry struct {
	counters   table[Counter]
	gauges     table[Gauge]
	histograms table[Histogram]
}

// table is one instrument kind's storage: slots indexed by definition, and
// a copy-on-write name → instrument map that holds every instrument,
// defined or not. A lookup by name is one atomic load of the current map,
// and creating an instrument (under mu) publishes a copy with the new
// entry. Instrument names are a bounded set, so the copies stop once every
// name has been seen.
type table[T any] struct {
	mu    sync.Mutex
	m     atomic.Pointer[map[string]*T]
	slots [maxDefs]atomic.Pointer[T]
}

// slot returns d's instrument, creating it (under its name) on first use.
func (t *table[T]) slot(d *Def) *T {
	if v := t.slots[d.idx].Load(); v != nil {
		return v
	}
	v := t.get(d.Name)
	t.slots[d.idx].Store(v)
	return v
}

// load returns the current map; nil before the first creation.
func (t *table[T]) load() map[string]*T {
	if m := t.m.Load(); m != nil {
		return *m
	}
	return nil
}

// get returns the named instrument, creating it on first use.
func (t *table[T]) get(name string) *T {
	if v := t.load()[name]; v != nil {
		return v
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.load()
	if v := old[name]; v != nil {
		return v
	}
	next := make(map[string]*T, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	v := new(T)
	next[name] = v
	t.m.Store(&next)
	return v
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// defaultRegistry is the process-global registry the commands snapshot at
// exit; see Default.
var defaultRegistry = NewRegistry()

// Default returns the process-global registry. Package-level instrumentation
// (delay's kernel counters, journal's durability counters) reports here;
// scoped instrumentation goes wherever the Scope's registry points, which for
// the commands is also here — one tree.
func Default() *Registry { return defaultRegistry }

// enabled gates the per-query package-level counters of hot kernels (see
// Enabled): a single shared read-mostly atomic, so the disabled path costs
// one uncontended load.
var enabled atomic.Bool

// Enable turns on the package-level hot-path counters (delay's per-query
// kernel accounting). The commands call it when -metrics or -debug-addr is
// given; it is never turned off.
func Enable() { enabled.Store(true) }

// Enabled reports whether hot-path package-level instrumentation is
// collecting. Low-frequency instrumentation (per-point, per-append) ignores
// it and always collects.
func Enabled() bool { return enabled.Load() }

// Counter returns the named counter, creating it on first use; nil on a nil
// registry. Defined counters resolve faster through CounterDef.In.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.counters.get(name)
}

// Gauge returns the named gauge, creating it on first use; nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.gauges.get(name)
}

// Histogram returns the named histogram, creating it on first use; nil on a
// nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.histograms.get(name)
}

// HistogramSnapshot is the exported state of one histogram: totals plus the
// non-empty power-of-two buckets keyed by their upper bound (2^i; the "0"
// bucket holds exact zeros).
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Max     int64            `json:"max"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// Mean returns Sum/Count, 0 when empty.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is a point-in-time copy of a registry, the unit the -metrics flag
// serialises. Maps are plain values so encoding/json renders them with sorted
// keys.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state; empty on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	for name, c := range r.counters.load() {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges.load() {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms.load() {
		hs := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
		for i := range h.buckets {
			if n := h.buckets[i].Load(); n != 0 {
				if hs.Buckets == nil {
					hs.Buckets = map[string]int64{}
				}
				// Bucket i > 0 covers [2^(i-1), 2^i); key it by its
				// exclusive upper bound, the zero bucket by "0".
				bound := "0"
				if i > 0 {
					bound = fmt.Sprintf("%d", uint64(1)<<uint(i))
				}
				hs.Buckets[bound] = n
			}
		}
		s.Histograms[name] = hs
	}
	return s
}

// WriteTable renders the snapshot as a human-readable text table: counters,
// gauges and histogram summaries, each section sorted by name.
func (s Snapshot) WriteTable(w io.Writer) error {
	section := func(title string, names []string, row func(name string) string) error {
		if len(names) == 0 {
			return nil
		}
		sort.Strings(names)
		if _, err := fmt.Fprintf(w, "%s:\n", title); err != nil {
			return err
		}
		for _, name := range names {
			if _, err := fmt.Fprintf(w, "  %-44s %s\n", name, row(name)); err != nil {
				return err
			}
		}
		return nil
	}
	var names []string
	for name := range s.Counters {
		names = append(names, name)
	}
	if err := section("counters", names, func(n string) string {
		return fmt.Sprintf("%d", s.Counters[n])
	}); err != nil {
		return err
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	if err := section("gauges", names, func(n string) string {
		return fmt.Sprintf("%g", s.Gauges[n])
	}); err != nil {
		return err
	}
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	return section("histograms", names, func(n string) string {
		h := s.Histograms[n]
		return fmt.Sprintf("count=%d sum=%d mean=%.1f max=%d", h.Count, h.Sum, h.Mean(), h.Max)
	})
}
