package obs

import (
	"sync"
	"time"
)

// EventType enumerates the progress events of the batch runtime. The values
// are the wire/JSON names.
type EventType string

// The progress-event vocabulary: one SweepStarted / SweepFinished pair per
// sweep, one SweepResumed when a resume view restored at least one point, and
// per grid point the degradation-ladder transitions PointDegraded (primary
// analysis failed, Equation 4 fallback used), PointQuarantined (fallback
// failed too) and PointDone (the point completed — cleanly, degraded or
// quarantined).
//
// Empirical campaigns (sharded acceptance-ratio and Monte-Carlo runs) use
// their own triple: one CampaignStarted / CampaignFinished pair per campaign
// and one CampaignPoint per fully aggregated grid point. Spec names the
// campaign, Q carries the point's utilization, Completed/Total count trials.
const (
	SweepStarted     EventType = "SweepStarted"
	SweepResumed     EventType = "SweepResumed"
	PointDone        EventType = "PointDone"
	PointDegraded    EventType = "PointDegraded"
	PointQuarantined EventType = "PointQuarantined"
	SweepFinished    EventType = "SweepFinished"

	CampaignStarted  EventType = "CampaignStarted"
	CampaignResumed  EventType = "CampaignResumed"
	CampaignPoint    EventType = "CampaignPoint"
	CampaignFinished EventType = "CampaignFinished"
)

// Event is one structured progress record. Fields beyond Type are populated
// when meaningful: Spec/Q identify a grid point, Code carries the
// machine-readable failure class,
// Completed/Total summarise sweep-level events, Restored counts resume hits,
// and Err holds the human-readable error text.
type Event struct {
	Type      EventType `json:"type"`
	Spec      string    `json:"spec,omitempty"`
	Q         float64   `json:"q,omitempty"`
	Code      string    `json:"code,omitempty"`
	Completed int       `json:"completed,omitempty"`
	Total     int       `json:"total,omitempty"`
	Restored  int       `json:"restored,omitempty"`
	Err       string    `json:"err,omitempty"`
}

// Sink receives progress events. Observe must be safe for concurrent use:
// the sweep pool emits from every worker.
type Sink interface {
	Observe(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Observe implements Sink.
func (f SinkFunc) Observe(e Event) { f(e) }

// maxSpans bounds the in-memory span log per scope; beyond it spans still
// feed their duration histograms but are not individually retained.
const maxSpans = 4096

// SpanRecord is one finished span: a name, the wall-clock start and the
// monotonic duration.
type SpanRecord struct {
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration"`
}

// Scope is the handle the analysis stack threads through: a registry for
// metrics, subscribed event sinks and a bounded span log. guard.Ctx carries
// one, so everything below a guarded entry point reports into the same tree.
// The nil Scope is valid everywhere and collects nothing.
type Scope struct {
	reg   *Registry
	sinks []Sink

	mu      sync.Mutex
	spans   []SpanRecord
	dropped int64
}

// NewScope returns a scope recording into reg (nil means the process-global
// Default registry) with the given event sinks subscribed.
func NewScope(reg *Registry, sinks ...Sink) *Scope {
	if reg == nil {
		reg = Default()
	}
	return &Scope{reg: reg, sinks: sinks}
}

// Registry returns the scope's registry; nil on a nil scope.
func (s *Scope) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Counter resolves a named counter in the scope's registry; nil (discard) on
// a nil scope. Resolve once per analysis, not per loop iteration.
func (s *Scope) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	return s.reg.Counter(name)
}

// Gauge resolves a named gauge; nil on a nil scope.
func (s *Scope) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	return s.reg.Gauge(name)
}

// Histogram resolves a named histogram; nil on a nil scope.
func (s *Scope) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	return s.reg.Histogram(name)
}

// Emit delivers e to every subscribed sink, in subscription order, on the
// caller's goroutine; a no-op on a nil scope.
func (s *Scope) Emit(e Event) {
	if s == nil {
		return
	}
	for _, sink := range s.sinks {
		sink.Observe(e)
	}
}

// Span starts a span. The returned Span carries the wall-clock start and, via
// time.Time's monotonic reading, a drift-free duration; see Span.End.
func (s *Scope) Span(name string) Span {
	return Span{scope: s, name: name, start: time.Now()}
}

// Span is one in-flight timed region. The zero Span (from a nil scope) is
// valid and End on it is a no-op.
type Span struct {
	scope *Scope
	name  string
	start time.Time
}

// End finishes the span: the monotonic duration is observed into the
// histogram "span.<name>.ns" and the record appended to the scope's bounded
// span log. It returns the duration (0 for the zero Span).
func (sp Span) End() time.Duration {
	if sp.scope == nil {
		return 0
	}
	d := time.Since(sp.start)
	sp.scope.reg.Histogram("span." + sp.name + ".ns").Observe(d.Nanoseconds())
	sp.scope.mu.Lock()
	if len(sp.scope.spans) < maxSpans {
		sp.scope.spans = append(sp.scope.spans, SpanRecord{Name: sp.name, Start: sp.start, Duration: d})
	} else {
		sp.scope.dropped++
	}
	sp.scope.mu.Unlock()
	return d
}

// Spans returns a copy of the finished-span log (at most maxSpans records;
// the rest only feed the histograms).
func (s *Scope) Spans() []SpanRecord {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SpanRecord, len(s.spans))
	copy(out, s.spans)
	return out
}
