package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fnpr/internal/chaos"
	"fnpr/internal/delay"
	"fnpr/internal/eval"
	"fnpr/internal/guard"
)

var updateResponses = flag.Bool("update-responses", false, "rewrite testdata/responses.golden from the current output")

// TestResponseBytesPinned pins the bytes the service writes: the synchronous
// endpoints' bodies (a finite, a diverged and a cached /v1/analyze; a plain
// and two delta /v1/analyzeset requests whose degraded and quarantined
// points carry reason text with HTML-special and non-ASCII characters), a
// 4xx error body
// and one SweepPoint journal record. Clients and journals read these bytes,
// so any change to how responses are written must leave them as they are.
func TestResponseBytesPinned(t *testing.T) {
	_, base := newTestServer(t, func(c *Config) {
		c.CacheEntries = 1024
		c.WrapDelay = func(f delay.Function, g *guard.Ctx, cancel context.CancelFunc) delay.Function {
			// The faulted tasks are told apart by their C.
			switch f.Domain() {
			case 31:
				return chaos.Wrap(f, chaos.Fault{PanicAtQ: 20})
			case 47:
				return chaos.Wrap(f, chaos.Fault{PanicAtQ: 30, PanicFallback: true})
			}
			return f
		}
	})
	set := func(delta bool) map[string]any {
		body := map[string]any{
			"spec": map[string]any{
				"policy": "fp",
				"tasks": []any{
					map[string]any{"name": "hi", "c": 5, "t": 100, "q": 4, "prio": 0},
					map[string]any{"name": "<a&b> naïve", "c": 31, "t": 300, "q": 5, "prio": 1,
						"delay": map[string]any{"kind": "frontloaded", "peak": 2, "tail": 0.5}},
					map[string]any{"name": "ζ&<q>\u2028", "c": 47, "t": 400, "q": 6, "prio": 2,
						"delay": map[string]any{"kind": "frontloaded", "peak": 3, "tail": 0.25}},
					map[string]any{"name": "plain", "c": 40, "t": 500, "q": 6, "prio": 3,
						"delay": map[string]any{"kind": "piecewise", "breakpoints": []float64{0, 3.3, 12.125, 40},
							"values": []float64{1.7, 0.1, 2.2}}},
				},
			},
			"qs": []float64{0.5, 12.345678901234567, 20, 30},
		}
		if delta {
			body["delta"] = true
		}
		return body
	}
	campaign := map[string]any{"sets_per_point": 1, "tasks": 2, "u_start": 0.5, "u_end": 0.5, "u_step": 0.1}
	requests := []struct {
		name, method, path string
		body               any
		idemKey            string
	}{
		{name: "healthz", method: "GET", path: "/healthz"},
		{name: "readyz", method: "GET", path: "/readyz"},
		{name: "analyze/finite", method: "POST", path: "/v1/analyze", body: analyzeBody(15, 40)},
		{name: "analyze/diverged", method: "POST", path: "/v1/analyze", body: map[string]any{
			"delay": map[string]any{"kind": "constant", "value": 20}, "c": 40, "q": 15}},
		{name: "analyze/cached", method: "POST", path: "/v1/analyze", body: analyzeBody(15, 40)},
		{name: "analyzeset/plain", method: "POST", path: "/v1/analyzeset", body: set(false)},
		{name: "analyzeset/delta", method: "POST", path: "/v1/analyzeset", body: set(true)},
		{name: "analyzeset/delta-repeat", method: "POST", path: "/v1/analyzeset", body: set(true)},
		{name: "analyze/error-4xx", method: "POST", path: "/v1/analyze", body: map[string]any{
			"delay": map[string]any{"kind": "constant", "value": 1}, "c": 40, "q": 15, "method": "<eq4>&ü\x7f"}},
		{name: "campaign/accepted", method: "POST", path: "/v1/campaign/acceptance", body: campaign, idemKey: "pin"},
		{name: "campaign/deduplicated", method: "POST", path: "/v1/campaign/acceptance", body: campaign, idemKey: "pin"},
		{name: "job/unknown", method: "GET", path: "/v1/jobs/<job>"},
	}
	var got bytes.Buffer
	for _, rq := range requests {
		var rd io.Reader
		if rq.body != nil {
			b, err := json.Marshal(rq.body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(b)
		}
		req, err := http.NewRequest(rq.method, base+rq.path, rd)
		if err != nil {
			t.Fatal(err)
		}
		if rq.idemKey != "" {
			req.Header.Set("Idempotency-Key", rq.idemKey)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "-- %s %d %s --\n%s", rq.name, resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}
	rec, err := json.Marshal(eval.SweepPoint{Q: 1e21, Value: 1e-7, Degraded: true, Quarantined: true,
		Primary: eval.ReasonPanic, Fallback: eval.ReasonBudget,
		Note: "<a&b> naïve\u2028\x01\xff; fallback: \"budget\"", Attempts: 1, Done: true})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&got, "-- journal/sweep-point --\n%s\n", rec)

	path := filepath.Join("testdata", "responses.golden")
	if *updateResponses {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gs, ws := strings.SplitAfter(got.String(), "\n"), strings.SplitAfter(string(want), "\n")
	for i := 0; i < max(len(gs), len(ws)); i++ {
		var g, w string
		if i < len(gs) {
			g = gs[i]
		}
		if i < len(ws) {
			w = ws[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs:\n got  %q\n want %q", path, i+1, g, w)
		}
	}
	t.Fatalf("%s differs", path)
}
