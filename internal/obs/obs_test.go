package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety pins the core contract: every instrument and the scope are
// fully usable as nil, collecting nothing.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter retained a value")
	}
	var g *Gauge
	g.Set(1)
	g.Add(2)
	if g.Value() != 0 {
		t.Fatal("nil gauge retained a value")
	}
	var h *Histogram
	h.Observe(5)
	if h.Count() != 0 {
		t.Fatal("nil histogram retained observations")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry handed out a live instrument")
	}
	var s *Scope
	if s.Counter("x") != nil || s.Gauge("x") != nil || s.Histogram("x") != nil {
		t.Fatal("nil scope handed out a live instrument")
	}
	s.Emit(Event{Type: PointDone})
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

// TestRegistryInstruments: get-or-create identity, values, snapshot.
func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("core.alg1.iterations")
	if c != r.Counter("core.alg1.iterations") {
		t.Fatal("counter identity not stable across lookups")
	}
	c.Add(41)
	c.Inc()
	r.Gauge("pool.workers").Set(8)
	r.Gauge("pool.workers").Add(-3)
	h := r.Histogram("point.ns")
	h.Observe(0)
	h.Observe(1)
	h.Observe(1500)
	h.Observe(-7) // clamped to 0

	s := r.Snapshot()
	if s.Counters["core.alg1.iterations"] != 42 {
		t.Fatalf("counter = %d, want 42", s.Counters["core.alg1.iterations"])
	}
	if s.Gauges["pool.workers"] != 5 {
		t.Fatalf("gauge = %g, want 5", s.Gauges["pool.workers"])
	}
	hs := s.Histograms["point.ns"]
	if hs.Count != 4 || hs.Sum != 1501 || hs.Max != 1500 {
		t.Fatalf("histogram = %+v, want count 4 sum 1501 max 1500", hs)
	}
	// Buckets: two zeros, one v=1 (bucket "2"), one v=1500 in [1024,2048).
	if hs.Buckets["0"] != 2 || hs.Buckets["2"] != 1 || hs.Buckets["2048"] != 1 {
		t.Fatalf("buckets = %v", hs.Buckets)
	}
	if hs.Mean() != 1501.0/4 {
		t.Fatalf("mean = %g", hs.Mean())
	}
}

// TestSnapshotSerialization: the snapshot marshals to JSON and renders as a
// table without error.
func TestSnapshotSerialization(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b").Add(7)
	r.Gauge("c.d").Set(2.5)
	r.Histogram("e.f").Observe(100)
	s := r.Snapshot()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a.b"] != 7 || back.Gauges["c.d"] != 2.5 || back.Histograms["e.f"].Count != 1 {
		t.Fatalf("round-trip lost data: %+v", back)
	}
	var b strings.Builder
	if err := s.WriteTable(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"a.b", "7", "c.d", "2.5", "e.f", "count=1"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, b.String())
		}
	}
}

// TestScopeEvents: sinks receive events in order.
func TestScopeEvents(t *testing.T) {
	rec := NewTestRecorder()
	s := rec.Scope()
	s.Emit(Event{Type: SweepStarted, Total: 4})
	s.Emit(Event{Type: PointDone, Spec: "g1", Q: 20})
	if got := rec.CountEvents(PointDone); got != 1 {
		t.Fatalf("PointDone events = %d, want 1", got)
	}
	if evs := rec.events; len(evs) != 2 || evs[0].Type != SweepStarted || evs[1].Spec != "g1" {
		t.Fatalf("events = %+v", evs)
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines — the
// sweep-pool sharing pattern — under the race detector.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("shared")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				r.Gauge("last").Set(float64(i))
				r.Histogram("obs").Observe(int64(i))
				// Exercise the create path concurrently too.
				r.Counter("shared").Add(0)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("obs").Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestRegistryConcurrentCreate: 16 goroutines race to create the same 100
// fresh names of each instrument kind, each in its own order. Every name must
// get exactly one instrument, the one every goroutine was handed, and
// Snapshot must list them all.
func TestRegistryConcurrentCreate(t *testing.T) {
	r := NewRegistry()
	const workers, names = 16, 100
	type handles struct {
		c []*Counter
		g []*Gauge
		h []*Histogram
	}
	got := make([]handles, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hs := handles{make([]*Counter, names), make([]*Gauge, names), make([]*Histogram, names)}
			for k := 0; k < names; k++ {
				i := (k + 7*w) % names
				name := fmt.Sprintf("fresh.%03d", i)
				hs.c[i] = r.Counter(name)
				hs.c[i].Inc()
				hs.g[i] = r.Gauge(name)
				hs.h[i] = r.Histogram(name)
				hs.h[i].Observe(1)
			}
			got[w] = hs
		}(w)
	}
	wg.Wait()
	for i := 0; i < names; i++ {
		name := fmt.Sprintf("fresh.%03d", i)
		c, g, h := r.Counter(name), r.Gauge(name), r.Histogram(name)
		for w := range got {
			if got[w].c[i] != c || got[w].g[i] != g || got[w].h[i] != h {
				t.Fatalf("%s: goroutine %d holds a different instrument than the registry", name, w)
			}
		}
		if c.Value() != workers || h.Count() != workers {
			t.Fatalf("%s: counter %d, histogram count %d; want %d each", name, c.Value(), h.Count(), workers)
		}
	}
	snap := r.Snapshot()
	if len(snap.Counters) != names || len(snap.Gauges) != names || len(snap.Histograms) != names {
		t.Fatalf("snapshot lists %d counters, %d gauges, %d histograms; want %d each",
			len(snap.Counters), len(snap.Gauges), len(snap.Histograms), names)
	}
	for name, v := range snap.Counters {
		if v != workers {
			t.Fatalf("snapshot %s = %d, want %d", name, v, workers)
		}
	}
}

// TestDebugServer: /debug/vars serves the registry snapshot under "fnpr" and
// /debug/pprof/ responds.
func TestDebugServer(t *testing.T) {
	Default().Counter("test.debug.counter").Add(9)
	srv, err := StartDebugServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/vars status %d", resp.StatusCode)
	}
	var vars struct {
		Fnpr Snapshot `json:"fnpr"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("unmarshaling /debug/vars: %v\n%s", err, body)
	}
	if vars.Fnpr.Counters["test.debug.counter"] < 9 {
		t.Fatalf("expvar snapshot missing counter: %+v", vars.Fnpr.Counters)
	}
	resp2, err := http.Get("http://" + srv.Addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("/debug/pprof/ status %d", resp2.StatusCode)
	}
}

var (
	testCounter   = NewCounter("test.def.counter", "things", "a counter defined by the tests")
	testGauge     = NewGauge("test.def.gauge", "things", "a gauge defined by the tests")
	testHistogram = NewHistogram("test.def.histogram", "ns", "a histogram defined by the tests")
	testFamily    = NewFamily(KindCounter, "test.<a>.family.<b>x", "things", "a family defined by the tests")
)

// TestDefinitionsResolveBySlot: a definition and its name reach the same
// instrument in either order of first use, resolution by definition does
// not allocate, a nil scope or registry hands out nil, and the catalogue
// lists the definitions with their kinds.
func TestDefinitionsResolveBySlot(t *testing.T) {
	r := NewRegistry()
	c := testCounter.In(r)
	if c == nil || c != r.Counter("test.def.counter") {
		t.Fatal("a counter's definition and its name resolve to different instruments")
	}
	if g := r.Gauge("test.def.gauge"); g != testGauge.In(r) {
		t.Fatal("a gauge first resolved by name was not found by its definition")
	}
	sc := NewScope(r)
	if testHistogram.On(sc) != r.Histogram("test.def.histogram") {
		t.Fatal("histogram definition and name differ")
	}
	if n := testing.AllocsPerRun(100, func() { testCounter.On(sc).Inc() }); n != 0 {
		t.Fatalf("resolving a defined counter allocates %v times", n)
	}
	if testCounter.On(nil) != nil || testGauge.In(nil) != nil || testHistogram.On(nil) != nil {
		t.Fatal("nil scope or registry handed out a live instrument")
	}
	if _, ok := NewRegistry().Snapshot().Counters["test.def.counter"]; ok {
		t.Fatal("a definition created its instrument before any resolution")
	}
	if got := testFamily.Expand("x", "4"); got != "test.x.family.4x" {
		t.Fatalf("family expands to %q", got)
	}
	kinds := map[string]Kind{}
	for _, d := range Catalogue() {
		kinds[d.Name] = d.Kind
	}
	if kinds["test.def.gauge"] != KindGauge || kinds["test.def.histogram"] != KindHistogram || kinds["test.<a>.family.<b>x"] != KindCounter {
		t.Fatalf("catalogue kinds: %v", kinds)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a second definition of one name did not panic")
		}
	}()
	NewCounter("test.def.gauge", "things", "a duplicate")
}
