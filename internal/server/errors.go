package server

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"

	"fnpr/internal/eval"
	"fnpr/internal/guard"
	"fnpr/internal/wire"
)

// writeJSON writes v through encoding/json as the response body with the
// given status. Only job views use it: their result is whatever the campaign
// returned. Every other body is written through respond.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writers recycles response buffers across requests; see newBody and respond.
var writers = sync.Pool{New: func() any { return new(wire.Writer) }}

// maxPooledBody bounds the buffers writers keeps, so one large answer does
// not pin its buffer for the life of the process.
const maxPooledBody = 64 << 10

// newBody returns an empty indented Writer for a response body.
func newBody() *wire.Writer {
	jw := writers.Get().(*wire.Writer)
	jw.Reset(true)
	return jw
}

// respond writes jw's document as the response body with the given status,
// ended by a newline: the bytes encoding/json's Encoder with
// SetIndent("", "  ") writes for the same value. The handlers write their
// members in sorted key order, the order encoding/json gives a map. jw goes
// back to the pool.
func respond(w http.ResponseWriter, status int, jw *wire.Writer) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed write means the client went away; there is no one to tell.
	_, _ = w.Write(append(jw.Bytes(), '\n'))
	if cap(jw.Bytes()) <= maxPooledBody {
		writers.Put(jw)
	}
}

// respondStatus writes the health and readiness body {"status": status}.
func respondStatus(w http.ResponseWriter, code int, status string) {
	jw := newBody()
	jw.BeginObject()
	jw.Key("status")
	jw.String(status)
	jw.EndObject()
	respond(w, code, jw)
}

// respondErr writes the error body {"code": code, "error": msg}.
func respondErr(w http.ResponseWriter, status int, code, msg string) {
	jw := newBody()
	jw.BeginObject()
	jw.Key("code")
	jw.String(code)
	jw.Key("error")
	jw.String(msg)
	jw.EndObject()
	respond(w, status, jw)
}

// writeErr maps err onto the service's typed error contract: the HTTP status
// from guard.HTTPStatus (parallel to the CLI exit-code contract), a JSON
// body {"error": ..., "code": ...} whose code is the same machine-readable
// failure vocabulary the sweep journal uses (eval.ReasonOf), and — on 429 —
// a Retry-After header, because an admission rejection means "nothing was
// started, try again shortly", not "give up".
func writeErr(w http.ResponseWriter, err error) {
	status := guard.HTTPStatus(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	respondErr(w, status, eval.ReasonOf(err).String(), err.Error())
}

// fail is writeErr plus the server-side accounting that belongs to failures
// rather than endpoints (recovered analysis panics).
func (s *Server) fail(w http.ResponseWriter, err error) {
	if errors.Is(err, guard.ErrPanic) {
		mPanics.On(s.sc).Inc()
	}
	writeErr(w, err)
}

// jsonNum makes a float JSON-safe: encoding/json refuses non-finite values,
// so ±Inf and NaN become the strings the sweep wire format already uses.
func jsonNum(v float64) any {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return v
	}
}

// retryAfterSeconds is exposed for tests asserting the 429 contract.
func retryAfterSeconds(h http.Header) (int, bool) {
	v := h.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, false
	}
	return n, true
}
