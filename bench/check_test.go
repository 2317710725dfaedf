package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fnpr/internal/core"
)

// analyzeAnswer encodes an /v1/analyze answer the way the service does.
func analyzeAnswer(t *testing.T, total float64, preemptions int) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{"total_delay": total, "preemptions": preemptions, "diverged": false, "steps": 7})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestOneUlpCorruptionIsAFailure(t *testing.T) {
	in, err := hotInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	r := in.hot[4]
	var body bytes.Buffer
	path, err := in.body(r, &body)
	if err != nil {
		t.Fatal(err)
	}
	var w analyzeWire
	if err := decodeStrict(body.Bytes(), &w); err != nil {
		t.Fatal(err)
	}
	fn, err := w.Delay.Build(w.C)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Analyze(nil, fn, w.Q, core.Options{Method: w.method()})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDelay == 0 {
		t.Fatal("pick a request with a non-zero bound")
	}
	keep := func(total float64) kept {
		d, err := answerDigest(path, analyzeAnswer(t, total, res.Preemptions))
		if err != nil {
			t.Fatal(err)
		}
		return kept{req: r, answer: d}
	}
	rep := newReport(io.Discard)
	checkAnswers(rep, in, []kept{keep(res.TotalDelay), keep(math.Nextafter(res.TotalDelay, math.Inf(1)))})
	if rep.failed != 1 || rep.wrongs != 1 {
		t.Errorf("one correct and one one-ulp-off answer: %d failed, %d wrong; want 1 and 1", rep.failed, rep.wrongs)
	}
}

func TestRefusalIsAFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()
	in, err := hotInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	c := newServeConn(srv.URL, in, 3)
	defer c.close()
	p := phase{samples: openLoop(newRealClock(), []conn{c}, 0, 4, 0, time.Millisecond)}
	rep := newReport(io.Discard)
	rep.account(p)
	if rep.attempted != 4 || rep.failed != 4 {
		t.Errorf("429 answers: %d attempted, %d failed; want 4 and 4", rep.attempted, rep.failed)
	}
}
