package obs

import "sync"

// TestRecorder is the assertion harness tests attach to an analysis: a
// private Registry (isolated from the process-global one) plus a sink that
// retains every emitted event. Pass Scope() wherever a *Scope is accepted,
// run the code under test, then assert on Counter/Events/CountEvents — e.g.
// the chaos suite asserts that exactly one point degraded and that a
// quarantined point emitted exactly one PointQuarantined event.
type TestRecorder struct {
	reg   *Registry
	scope *Scope

	mu     sync.Mutex
	events []Event
}

// NewTestRecorder returns a recorder with a fresh private registry.
func NewTestRecorder() *TestRecorder {
	r := &TestRecorder{reg: NewRegistry()}
	r.scope = NewScope(r.reg, r)
	return r
}

// Observe implements Sink, retaining the event.
func (r *TestRecorder) Observe(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Scope returns the scope to inject into the code under test.
func (r *TestRecorder) Scope() *Scope { return r.scope }

// Registry returns the recorder's private registry.
func (r *TestRecorder) Registry() *Registry { return r.reg }

// Counter returns the named counter's current value (0 when never touched).
func (r *TestRecorder) Counter(name string) int64 {
	return r.reg.Counter(name).Value()
}

// CountEvents returns how many events of the given type were observed.
func (r *TestRecorder) CountEvents(t EventType) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.Type == t {
			n++
		}
	}
	return n
}

// FilterEvents returns the observed events of the given type, in order.
func (r *TestRecorder) FilterEvents(t EventType) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, e := range r.events {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}
