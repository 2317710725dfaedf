package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fnpr/internal/obs"
)

// newTestServer starts a server on an ephemeral port with its own registry
// and returns it with its base URL. Closed on test cleanup.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, string) {
	t.Helper()
	cfg := Config{Addr: "127.0.0.1:0", Registry: obs.NewRegistry()}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, "http://" + s.Addr()
}

// doJSON posts body (marshaled) and decodes the JSON response.
func doJSON(t *testing.T, method, url string, body any) (int, http.Header, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("%s %s: decoding response: %v", method, url, err)
	}
	return resp.StatusCode, resp.Header, out
}

// analyzeBody is a well-formed /v1/analyze request used across the tests.
func analyzeBody(q float64, c float64) map[string]any {
	return map[string]any{
		"delay": map[string]any{"kind": "frontloaded", "peak": 3, "tail": 0.5},
		"c":     c,
		"q":     q,
	}
}

// waitJob polls the job until it leaves the queued/running states.
func waitJob(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		status, _, v := doJSON(t, "GET", base+"/v1/jobs/"+id, nil)
		if status != http.StatusOK {
			t.Fatalf("job %s: status %d", id, status)
		}
		switch v["state"] {
		case "done", "failed":
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return nil
}

func TestHealthAndReady(t *testing.T) {
	_, base := newTestServer(t, nil)
	if st, _, v := doJSON(t, "GET", base+"/healthz", nil); st != 200 || v["status"] != "ok" {
		t.Fatalf("healthz: %d %v", st, v)
	}
	if st, _, v := doJSON(t, "GET", base+"/readyz", nil); st != 200 || v["status"] != "ready" {
		t.Fatalf("readyz: %d %v", st, v)
	}
}

func TestAnalyzeEndpoint(t *testing.T) {
	_, base := newTestServer(t, nil)

	st, _, v := doJSON(t, "POST", base+"/v1/analyze", analyzeBody(15, 40))
	if st != 200 {
		t.Fatalf("analyze: status %d body %v", st, v)
	}
	if td, ok := v["total_delay"].(float64); !ok || td <= 0 {
		t.Fatalf("analyze: total_delay %v, want > 0", v["total_delay"])
	}
	if v["diverged"] != false {
		t.Fatalf("analyze: diverged %v", v["diverged"])
	}

	// Equation 4 on the same input: at least as pessimistic as Algorithm 1.
	b4 := analyzeBody(15, 40)
	b4["method"] = "equation4"
	st4, _, v4 := doJSON(t, "POST", base+"/v1/analyze", b4)
	if st4 != 200 {
		t.Fatalf("analyze eq4: status %d body %v", st4, v4)
	}
	if v4["total_delay"].(float64) < v["total_delay"].(float64) {
		t.Fatalf("equation4 bound %v below algorithm1 %v", v4["total_delay"], v["total_delay"])
	}
}

// TestAnalyzeErrorMapping pins the typed error contract over HTTP: invalid
// input 400, budget 422, deadline 504, each with its machine-readable code.
func TestAnalyzeErrorMapping(t *testing.T) {
	_, base := newTestServer(t, nil)
	cases := []struct {
		name   string
		url    string
		body   any
		status int
		code   string
	}{
		{"bad-json-field", "/v1/analyze", map[string]any{"nope": 1}, 400, "invalid"},
		{"missing-delay", "/v1/analyze", map[string]any{"c": 40, "q": 15}, 400, "invalid"},
		{"bad-method", "/v1/analyze", func() any {
			b := analyzeBody(15, 40)
			b["method"] = "magic"
			return b
		}(), 400, "invalid"},
		// The fixpoint solver is no longer selectable: strict decoding
		// refuses the field like any other unknown one.
		{"solver-field-analyze", "/v1/analyze", func() any {
			b := analyzeBody(15, 40)
			b["solver"] = "monotone"
			return b
		}(), 400, "invalid"},
		{"solver-field-analyzeset", "/v1/analyzeset", map[string]any{
			"spec": map[string]any{"policy": "fp", "tasks": []any{
				map[string]any{"name": "t", "c": 5, "t": 100, "q": 5},
			}},
			"solver": "cutting",
		}, 400, "invalid"},
		{"bad-timeout-param", "/v1/analyze?timeout=yesterday", analyzeBody(15, 40), 400, "invalid"},
		{"budget-exhausted", "/v1/analyze?budget=2", analyzeBody(15, 10000), 422, "budget"},
		{"deadline", "/v1/analyze?timeout=1ns", analyzeBody(15, 10000), 504, "canceled"},
		{"diverged-is-200", "/v1/analyze", analyzeBody(2, 40), 200, ""}, // Q <= peak: +Inf bound, still an answer
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			st, _, v := doJSON(t, "POST", base+c.url, c.body)
			if st != c.status {
				t.Fatalf("status %d, want %d (body %v)", st, c.status, v)
			}
			if c.code != "" && v["code"] != c.code {
				t.Fatalf("code %v, want %q (body %v)", v["code"], c.code, v)
			}
			if c.name == "diverged-is-200" {
				if v["diverged"] != true || v["total_delay"] != "+Inf" {
					t.Fatalf("divergent analysis: %v", v)
				}
			}
		})
	}
}

func TestAnalyzeSetEndpoint(t *testing.T) {
	_, base := newTestServer(t, nil)
	body := map[string]any{
		"spec": map[string]any{
			"policy": "fp",
			"tasks": []any{
				map[string]any{"name": "hi", "c": 5, "t": 100, "q": 5, "prio": 0},
				map[string]any{"name": "lo", "c": 40, "t": 400, "q": 6, "prio": 1,
					"delay": map[string]any{"kind": "frontloaded", "peak": 3, "tail": 0.5}},
			},
		},
		"qs": []float64{15, 20, 30},
	}
	st, _, v := doJSON(t, "POST", base+"/v1/analyzeset", body)
	if st != 200 {
		t.Fatalf("analyzeset: status %d body %v", st, v)
	}
	results, ok := v["results"].([]any)
	if !ok || len(results) != 2 {
		t.Fatalf("analyzeset: results %v, want 2 curves", v["results"])
	}
}

// TestAnalyzeSetAssignQUnderRequestGuard: an assign_q body derives its Q
// values under the request's guard. On this set the fixed-priority
// tolerance sweep of task b walks about 1e12 scheduling points of task a,
// so only the request's budget or its ?timeout= deadline can stop it.
func TestAnalyzeSetAssignQUnderRequestGuard(t *testing.T) {
	_, base := newTestServer(t, nil)
	body := `{"spec":{"policy":"fp","assign_q":true,"tasks":[` +
		`{"name":"a","c":1e-7,"t":1e-6},{"name":"b","c":1,"t":1e6},{"name":"c","c":1,"t":2e6}]}}`
	client := &http.Client{Timeout: 10 * time.Second}
	start := time.Now()
	resp, err := client.Post(base+"/v1/analyzeset?timeout=200ms", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if el := time.Since(start); el > time.Second {
		t.Fatalf("answered after %v, want within about 1 s of the 200ms timeout", el)
	}
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	// The default analysis budget usually trips first; the deadline backs it.
	switch {
	case resp.StatusCode == http.StatusUnprocessableEntity && v["code"] == "budget":
	case resp.StatusCode == http.StatusGatewayTimeout && v["code"] == "canceled":
	default:
		t.Fatalf("status %d body %v, want 422 budget or 504 canceled", resp.StatusCode, v)
	}
}

func TestCampaignJobs(t *testing.T) {
	s, base := newTestServer(t, nil)

	st, _, v := doJSON(t, "POST", base+"/v1/campaign/acceptance", map[string]any{
		"sets_per_point": 5, "tasks": 3, "u_start": 0.5, "u_end": 0.6, "u_step": 0.1,
	})
	if st != http.StatusAccepted {
		t.Fatalf("acceptance submit: status %d body %v", st, v)
	}
	id, _ := v["id"].(string)
	if !strings.HasPrefix(id, "job-") {
		t.Fatalf("acceptance submit: id %v", v["id"])
	}
	job := waitJob(t, base, id)
	if job["state"] != "done" {
		t.Fatalf("acceptance job: %v", job)
	}
	if _, ok := job["result"].(map[string]any); !ok {
		t.Fatalf("acceptance job result: %v", job["result"])
	}

	st, _, v = doJSON(t, "POST", base+"/v1/campaign/montecarlo", map[string]any{
		"trials": 20, "max_tasks": 3, "horizon": 200,
	})
	if st != http.StatusAccepted {
		t.Fatalf("montecarlo submit: status %d body %v", st, v)
	}
	job = waitJob(t, base, v["id"].(string))
	if job["state"] != "done" {
		t.Fatalf("montecarlo job: %v", job)
	}
	rep := job["result"].(map[string]any)
	if rep["violations"] != float64(0) {
		t.Fatalf("montecarlo violations: %v", rep)
	}

	st, _, v = doJSON(t, "POST", base+"/v1/campaign/atlas", map[string]any{
		"seed": 3, "qs": []float64{4, 8}, "funcs_per_cell": 4, "c": 30,
	})
	if st != http.StatusAccepted {
		t.Fatalf("atlas submit: status %d body %v", st, v)
	}
	job = waitJob(t, base, v["id"].(string))
	if job["state"] != "done" || job["kind"] != "atlas" {
		t.Fatalf("atlas job: %v", job)
	}
	if _, ok := job["result"].(map[string]any); !ok {
		t.Fatalf("atlas job result: %v", job["result"])
	}
	// A finished job keeps its result and manifest parameters, not its
	// campaign.
	s.mu.Lock()
	fin := s.jobs[v["id"].(string)]
	s.mu.Unlock()
	fin.mu.Lock()
	camp, params := fin.camp, fin.params
	fin.mu.Unlock()
	if camp != nil || len(params) == 0 {
		t.Fatalf("finished atlas job holds campaign %v, params %q", camp, params)
	}

	// Validation failures are refused at submit time, not queued.
	if st, _, v := doJSON(t, "POST", base+"/v1/campaign/montecarlo", map[string]any{"trials": -1}); st != 400 || v["code"] != "invalid" {
		t.Fatalf("invalid campaign: %d %v", st, v)
	}
	// Atlas validation: Q at or above C is invalid input.
	if st, _, v := doJSON(t, "POST", base+"/v1/campaign/atlas", map[string]any{"qs": []float64{50}, "c": 30}); st != 400 || v["code"] != "invalid" {
		t.Fatalf("invalid atlas campaign: %d %v", st, v)
	}
	// Journal requests against a server without a journal dir are invalid.
	if st, _, _ := doJSON(t, "POST", base+"/v1/campaign/acceptance", map[string]any{"journal": "a.j"}); st != 400 {
		t.Fatalf("journal without dir: status %d", st)
	}
	// Unknown jobs are 404.
	if st, _, _ := doJSON(t, "GET", base+"/v1/jobs/job-999999", nil); st != 404 {
		t.Fatalf("unknown job: status %d", st)
	}
}

// TestJobsListing pins GET /v1/jobs on an ordinary (non-durable) server:
// every submitted job appears in ID order with state, kind and fingerprint,
// no result payloads, and no recovery provenance (nothing was recovered).
func TestJobsListing(t *testing.T) {
	_, base := newTestServer(t, nil)
	var ids []string
	for i := 0; i < 2; i++ {
		st, _, v := doJSON(t, "POST", base+"/v1/campaign/montecarlo", map[string]any{
			"trials": 20, "max_tasks": 3, "horizon": 200,
		})
		if st != http.StatusAccepted {
			t.Fatalf("submit %d: %d %v", i, st, v)
		}
		ids = append(ids, v["id"].(string))
	}
	for _, id := range ids {
		waitJob(t, base, id)
	}
	st, _, list := doJSON(t, "GET", base+"/v1/jobs", nil)
	if st != http.StatusOK || list["count"] != float64(2) {
		t.Fatalf("listing: %d %v", st, list)
	}
	jobs := list["jobs"].([]any)
	for i, raw := range jobs {
		e := raw.(map[string]any)
		if e["id"] != ids[i] {
			t.Fatalf("listing order: entry %d is %v, want %s", i, e["id"], ids[i])
		}
		if e["state"] != "done" || e["kind"] != "montecarlo" {
			t.Fatalf("listing entry: %v", e)
		}
		if fp, _ := e["fingerprint"].(string); len(fp) != 32 {
			t.Fatalf("listing fingerprint: %v", e["fingerprint"])
		}
		if _, ok := e["result"]; ok {
			t.Fatalf("listing carries result payload: %v", e)
		}
		if _, ok := e["recovered"]; ok {
			t.Fatalf("non-recovered job marked recovered: %v", e)
		}
	}
	// Both campaigns had identical parameters: identical fingerprints.
	a := jobs[0].(map[string]any)["fingerprint"]
	b := jobs[1].(map[string]any)["fingerprint"]
	if a != b {
		t.Fatalf("equal campaigns, different fingerprints: %v vs %v", a, b)
	}
}

func TestDebugMuxMounted(t *testing.T) {
	_, base := newTestServer(t, nil)
	resp, err := http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || !strings.Contains(string(raw), "fnpr") {
		t.Fatalf("/debug/vars: %d\n%s", resp.StatusCode, raw)
	}
}

// TestDrainLifecycle walks the state machine: ready → draining (readyz 503,
// admissions 429+Retry-After, polls still served) → stopped, with a running
// campaign canceled at the drain deadline and its journal checkpoints kept —
// then a second server resumes the journal and reproduces the uninterrupted
// result byte-identically.
func TestDrainLifecycle(t *testing.T) {
	dir := t.TempDir()
	// The points left after the first checkpoint must take far longer
	// than the 50 ms drain timeout, or the job finishes before the drain
	// can interrupt it.
	campaign := map[string]any{
		"sets_per_point": 6000, "tasks": 3,
		"u_start": 0.5, "u_end": 0.9, "u_step": 0.1,
		"workers": 1, "journal": "acc.journal",
	}

	// Reference: the same campaign, uninterrupted, no journal.
	_, refBase := newTestServer(t, nil)
	ref := map[string]any{}
	for k, v := range campaign {
		ref[k] = v
	}
	delete(ref, "journal")
	_, _, v := doJSON(t, "POST", refBase+"/v1/campaign/acceptance", ref)
	refJob := waitJob(t, refBase, v["id"].(string))
	refJSON, err := json.Marshal(refJob["result"])
	if err != nil {
		t.Fatal(err)
	}

	s, base := newTestServer(t, func(c *Config) {
		c.JournalDir = dir
		c.DrainTimeout = 50 * time.Millisecond
	})
	st, _, v := doJSON(t, "POST", base+"/v1/campaign/acceptance", campaign)
	if st != http.StatusAccepted {
		t.Fatalf("submit: %d %v", st, v)
	}
	id := v["id"].(string)

	// Wait for the first checkpoint so the drain provably interrupts a
	// campaign that has durable progress.
	jpath := filepath.Join(dir, "acc.journal")
	deadline := time.Now().Add(20 * time.Second)
	for {
		if raw, err := os.ReadFile(jpath); err == nil && strings.Contains(string(raw), "accpoint:") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never checkpointed a point")
		}
		time.Sleep(2 * time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Shutdown() }()

	// During the drain the server still answers: readyz 503, admission 429
	// with Retry-After, job polls 200.
	readyzSeen, analyze429 := false, false
	for i := 0; i < 200 && !(readyzSeen && analyze429); i++ {
		if st, _, _ := doJSON(t, "GET", base+"/readyz", nil); st == http.StatusServiceUnavailable {
			readyzSeen = true
		}
		st, hdr, _ := doJSON(t, "POST", base+"/v1/analyze", analyzeBody(15, 40))
		if st == http.StatusTooManyRequests {
			if _, ok := retryAfterSeconds(hdr); !ok {
				t.Fatal("429 without Retry-After")
			}
			analyze429 = true
		}
	}
	if err := <-drained; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !readyzSeen || !analyze429 {
		t.Fatalf("drain observability: readyz503=%v analyze429=%v", readyzSeen, analyze429)
	}
	// The interrupted job failed with the cancellation code; its journal
	// kept the completed checkpoints.
	ij, ok := s.jobByID(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	jv := ij.view()
	if jv.State != jobFailed || jv.Code != "canceled" {
		t.Fatalf("interrupted job: %+v", jv)
	}

	// Resume on a fresh server: byte-identical result, restored points > 0.
	reg2 := obs.NewRegistry()
	_, base2 := newTestServer(t, func(c *Config) {
		c.JournalDir = dir
		c.Registry = reg2
	})
	resume := map[string]any{}
	for k, v := range campaign {
		resume[k] = v
	}
	resume["resume"] = true
	st, _, v = doJSON(t, "POST", base2+"/v1/campaign/acceptance", resume)
	if st != http.StatusAccepted {
		t.Fatalf("resume submit: %d %v", st, v)
	}
	job := waitJob(t, base2, v["id"].(string))
	if job["state"] != "done" {
		t.Fatalf("resumed job: %v", job)
	}
	gotJSON, err := json.Marshal(job["result"])
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(refJSON) {
		t.Fatalf("resumed result differs from uninterrupted run\nref: %s\ngot: %s", refJSON, gotJSON)
	}
	if n := reg2.Counter("campaign.points.restored").Value(); n < 1 {
		t.Fatalf("campaign.points.restored = %d, want >= 1", n)
	}
}

// TestJournalNameSanitized pins the path-traversal guard on client-supplied
// journal names.
func TestJournalNameSanitized(t *testing.T) {
	_, base := newTestServer(t, func(c *Config) { c.JournalDir = t.TempDir() })
	for _, name := range []string{"../../etc/passwd", "a/b.j", ".hidden", "..", "/abs"} {
		st, _, v := doJSON(t, "POST", base+"/v1/campaign/acceptance", map[string]any{"journal": name})
		if st != 400 {
			t.Fatalf("journal %q: status %d %v, want 400", name, st, v)
		}
	}
	// resume without a journal name is invalid too
	if st, _, _ := doJSON(t, "POST", base+"/v1/campaign/acceptance", map[string]any{"resume": true}); st != 400 {
		t.Fatalf("resume without journal: want 400, got %d", st)
	}
}

// TestHandlerPanicContained pins per-request panic isolation at the
// middleware layer (the outermost barrier; the analysis has its own
// guard.Run underneath).
func TestHandlerPanicContained(t *testing.T) {
	reg := obs.NewRegistry()
	s, base := newTestServer(t, func(c *Config) { c.Registry = reg })
	s.mux.Handle("GET /boom2", s.instrument("boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	st, _, v := doJSON(t, "GET", base+"/boom2", nil)
	if st != 500 || v["code"] != "panic" {
		t.Fatalf("panicking handler: %d %v", st, v)
	}
	if n := reg.Counter("server.panics_recovered").Value(); n != 1 {
		t.Fatalf("panics_recovered = %d, want 1", n)
	}
	// The server survived and serves the next request normally.
	if st, _, _ := doJSON(t, "GET", base+"/healthz", nil); st != 200 {
		t.Fatalf("healthz after panic: %d", st)
	}
	if st, _, body := doJSON(t, "POST", base+"/v1/analyze", analyzeBody(15, 40)); st != 200 {
		t.Fatalf("analyze after panic: %d %v", st, body)
	}
}

// TestRequestMetrics pins the per-endpoint instrumentation names the
// dashboards scrape.
func TestRequestMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	_, base := newTestServer(t, func(c *Config) { c.Registry = reg })
	doJSON(t, "POST", base+"/v1/analyze", analyzeBody(15, 40))
	doJSON(t, "POST", base+"/v1/analyze", map[string]any{"nope": 1})
	if n := reg.Counter("server.analyze.requests").Value(); n != 2 {
		t.Fatalf("analyze.requests = %d, want 2", n)
	}
	if n := reg.Counter("server.analyze.status.2xx").Value(); n != 1 {
		t.Fatalf("analyze.status.2xx = %d, want 1", n)
	}
	if n := reg.Counter("server.analyze.status.4xx").Value(); n != 1 {
		t.Fatalf("analyze.status.4xx = %d, want 1", n)
	}
	if n := reg.Histogram("server.analyze.latency_ns").Count(); n != 2 {
		t.Fatalf("analyze.latency_ns count = %d, want 2", n)
	}
	if g := reg.Gauge("server.analyze.inflight").Value(); g != 0 {
		t.Fatalf("analyze.inflight = %g, want 0 at rest", g)
	}
	if fmt.Sprint(reg.Gauge("server.queue.capacity").Value()) != fmt.Sprint(float64(DefaultQueueCap)) {
		t.Fatalf("queue.capacity = %g", reg.Gauge("server.queue.capacity").Value())
	}
}
