package server

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"fnpr/internal/guard"
)

// statusRecorder captures the response status (and whether a header went
// out) for the per-endpoint metrics and the panic recovery path.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.status = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if !r.wrote {
		r.status = http.StatusOK
		r.wrote = true
	}
	return r.ResponseWriter.Write(b)
}

// instrument wraps a handler with the per-endpoint observability
// (request/in-flight/latency/status-class metrics) and the per-request panic
// barrier: a panic escaping the handler is recovered, counted in
// server.panics_recovered and answered as a 500 with code "panic" — one
// request's programming error never takes the process down or leaks into
// another request.
func (s *Server) instrument(name string, h http.HandlerFunc) http.Handler {
	requests := s.sc.Counter(mRouteRequests.Expand(name))
	inflight := s.sc.Gauge(mRouteInflight.Expand(name))
	latency := s.sc.Histogram(mRouteLatency.Expand(name))
	// Status-class names are built here; each class's counter is created
	// by the first response of that class.
	var status [10]string
	for c := range status {
		status[c] = mRouteStatus.Expand(name, strconv.Itoa(c))
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		inflight.Add(1)
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				mPanics.On(s.sc).Inc()
				if !rec.wrote {
					writeErr(rec, fmt.Errorf("handler %s: %w: %v", name, guard.ErrPanic, p))
				}
			}
			latency.Observe(time.Since(start).Nanoseconds())
			s.sc.Counter(status[rec.status/100]).Inc()
			inflight.Add(-1)
		}()
		h(rec, r)
	})
}
