package obs

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

// Scope is the handle the analysis stack threads through: a registry for
// metrics and subscribed event sinks. guard.Ctx carries one, so everything
// below a guarded entry point reports into the same tree. The nil Scope is
// valid everywhere and collects nothing.
type Scope struct {
	reg   *Registry
	sinks []Sink
	tally *tally // a worker's private counters; nil on a shared scope
}

// NewScope returns a scope recording into reg (nil means the process-global
// Default registry) with the given event sinks subscribed.
func NewScope(reg *Registry, sinks ...Sink) *Scope {
	if reg == nil {
		reg = Default()
	}
	return &Scope{reg: reg, sinks: sinks}
}

// Counter resolves a named counter in the scope's registry; nil (discard) on
// a nil scope. It serves the dynamic families and reads in tests; a defined
// counter resolves through CounterDef.On, by index. On a tally it resolves
// in the parent's registry, not in the tally's private slots.
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
