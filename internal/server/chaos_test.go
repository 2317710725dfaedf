package server

import (
	"context"
	"net/http"
	"sync"
	"testing"

	"fnpr/internal/chaos"
	"fnpr/internal/delay"
	"fnpr/internal/guard"
	"fnpr/internal/obs"
)

// TestChaosFaults drives the chaos injector through the server's WrapDelay
// seam: panics, budget burn and delayed cancellation inside a request's
// analysis must surface as that request's typed error — the right status and
// code, the panic counter moving — while the server stays up and other
// requests (including other grid points in the very same fault window) are
// untouched.
func TestChaosFaults(t *testing.T) {
	var (
		mu      sync.Mutex
		fault   chaos.Fault
		wrapped []*chaos.Func
	)
	setFault := func(f chaos.Fault) {
		mu.Lock()
		fault = f
		mu.Unlock()
	}
	fired := func() (n int64) {
		mu.Lock()
		defer mu.Unlock()
		for _, f := range wrapped {
			n += f.Fired()
		}
		return n
	}

	reg := obs.NewRegistry()
	_, base := newTestServer(t, func(c *Config) {
		c.Registry = reg
		c.WrapDelay = func(f delay.Function, g *guard.Ctx, cancel context.CancelFunc) delay.Function {
			mu.Lock()
			defer mu.Unlock()
			fa := fault
			// Burn and delayed cancel target this request's own scope.
			fa.Guard = g
			fa.Cancel = cancel
			cf := chaos.Wrap(f, fa)
			wrapped = append(wrapped, cf)
			return cf
		}
	})
	healthz := func(when string) {
		t.Helper()
		if st, _, _ := doJSON(t, "GET", base+"/healthz", nil); st != 200 {
			t.Fatalf("healthz after %s: %d — server did not survive the fault", when, st)
		}
	}

	// Targeted panic: only the request analyzing the faulted grid point dies.
	setFault(chaos.Fault{PanicAtQ: 15})
	st, _, v := doJSON(t, "POST", base+"/v1/analyze", analyzeBody(15, 40))
	if st != http.StatusInternalServerError || v["code"] != "panic" {
		t.Fatalf("faulted request: %d %v, want 500/panic", st, v)
	}
	if n := reg.Counter("server.panics_recovered").Value(); n != 1 {
		t.Fatalf("server.panics_recovered = %d, want 1", n)
	}
	// A different grid point under the SAME live fault: no contamination.
	if st, _, v := doJSON(t, "POST", base+"/v1/analyze", analyzeBody(20, 40)); st != 200 {
		t.Fatalf("unfaulted grid point: %d %v, want 200", st, v)
	}
	healthz("panic")

	// Budget burn: every query charges the request's own budget, so the
	// analysis trips its step budget and the request reports 422/budget.
	setFault(chaos.Fault{Burn: 2 * DefaultAnalyzeBudget})
	st, _, v = doJSON(t, "POST", base+"/v1/analyze", analyzeBody(15, 40))
	if st != http.StatusUnprocessableEntity || v["code"] != "budget" {
		t.Fatalf("burned request: %d %v, want 422/budget", st, v)
	}
	healthz("burn")

	// Delayed cancel: the first query cancels the request's context; the
	// long walk (c=10000 keeps it well past the amortized cancellation poll)
	// then observes it as a deadline-style abort, 504/canceled.
	setFault(chaos.Fault{CancelAfter: 1})
	st, _, v = doJSON(t, "POST", base+"/v1/analyze", analyzeBody(15, 10000))
	if st != http.StatusGatewayTimeout || v["code"] != "canceled" {
		t.Fatalf("canceled request: %d %v, want 504/canceled", st, v)
	}
	healthz("cancel")

	// Faults cleared: the server serves normally again.
	setFault(chaos.Fault{})
	if st, _, v := doJSON(t, "POST", base+"/v1/analyze", analyzeBody(15, 40)); st != 200 || v["diverged"] != false {
		t.Fatalf("post-chaos request: %d %v, want clean 200", st, v)
	}
	if n := reg.Counter("server.panics_recovered").Value(); n != 1 {
		t.Fatalf("server.panics_recovered moved to %d after the panic fault was cleared", n)
	}
	if n := fired(); n < 2 {
		t.Fatalf("injector fired %d faults, want >= 2 (panic + cancel)", n)
	}
}
