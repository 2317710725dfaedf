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
//     allocation-free (resolve the instrument once per analysis, accumulate
//     locally, flush once at the end).
//  2. Everything is safe for concurrent use — the guarded sweep pool hammers
//     one Registry from every worker.
//  3. The process-global registry (Default) is a convenience, not a
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

// Registry is a concurrent name → instrument table. Instruments are created
// on first use and live for the registry's lifetime; looking one up never
// allocates after creation, so per-analysis resolution is cheap enough for
// the sweep hot path. The nil Registry hands out nil instruments.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
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
// registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use; nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use; nil on a
// nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
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
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
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
