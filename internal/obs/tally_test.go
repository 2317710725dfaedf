package obs

import (
	"sync"
	"testing"
)

var testTallied = NewCounter("test.tally.counter", "things", "a counter the tally tests count into")

// TestTallyFlushes: a tally's counts reach the parent only at Flush, a
// flush zeroes them, and a counter resolved on the tally that stays at zero
// still shows in the parent's snapshot.
func TestTallyFlushes(t *testing.T) {
	r := NewRegistry()
	tl := NewScope(r).Tally()
	c := testTallied.On(tl)
	if c == testTallied.In(r) {
		t.Fatal("a tally resolved the parent's counter, not a private slot")
	}
	if c != testTallied.On(tl) {
		t.Fatal("a tally resolved one definition to two slots")
	}
	testCounter.On(tl) // resolved, never counted
	c.Add(5)
	c.Inc()
	if v := r.Snapshot().Counters["test.tally.counter"]; v != 0 {
		t.Fatalf("parent saw %d before Flush", v)
	}
	tl.Flush()
	snap := r.Snapshot()
	if v := snap.Counters["test.tally.counter"]; v != 6 {
		t.Fatalf("parent holds %d after Flush, want 6", v)
	}
	if v, ok := snap.Counters["test.def.counter"]; !ok || v != 0 {
		t.Fatalf("a resolved zero counter reads %d (present %v), want 0 and present", v, ok)
	}
	if c.Value() != 0 {
		t.Fatalf("Flush left %d in the tally", c.Value())
	}
	tl.Flush()
	if v := r.Counter("test.tally.counter").Value(); v != 6 {
		t.Fatalf("a second Flush moved the parent to %d", v)
	}
	if n := testing.AllocsPerRun(100, func() { testTallied.On(tl).Inc(); tl.Flush() }); n != 0 {
		t.Fatalf("counting into a resolved tally slot and flushing allocates %v times", n)
	}
}

// TestTallyPassesThrough: gauges, histograms, counters by name (the
// families) and events go straight to the parent's registry and sinks.
func TestTallyPassesThrough(t *testing.T) {
	rec := NewTestRecorder()
	tl := rec.Scope().Tally()
	testGauge.On(tl).Set(3)
	testHistogram.On(tl).Observe(7)
	tl.Counter(testFamily.Expand("a", "1")).Add(2)
	tl.Emit(Event{Type: CampaignPoint})
	snap := rec.Registry().Snapshot()
	if snap.Gauges["test.def.gauge"] != 3 {
		t.Fatalf("gauge through a tally reads %g, want 3", snap.Gauges["test.def.gauge"])
	}
	if snap.Histograms["test.def.histogram"].Count != 1 {
		t.Fatal("histogram observation through a tally did not reach the parent")
	}
	if snap.Counters["test.a.family.1x"] != 2 {
		t.Fatal("family counter through a tally did not reach the parent")
	}
	if rec.CountEvents(CampaignPoint) != 1 {
		t.Fatal("event through a tally did not reach the parent's sink")
	}
}

// TestTallyNil: the tally of a nil scope is nil, collects nothing and costs
// no allocation; Flush on a scope that is not a tally does nothing.
func TestTallyNil(t *testing.T) {
	var s *Scope
	if n := testing.AllocsPerRun(100, func() {
		tl := s.Tally()
		testTallied.On(tl).Inc()
		tl.Flush()
		if tl != nil {
			t.Fatal("a nil scope's tally is not nil")
		}
	}); n != 0 {
		t.Fatalf("a nil scope's tally allocates %v times", n)
	}
	r := NewRegistry()
	shared := NewScope(r)
	testTallied.On(shared).Add(4)
	shared.Flush()
	if v := r.Counter("test.tally.counter").Value(); v != 4 {
		t.Fatalf("Flush on a shared scope moved its counter to %d", v)
	}
}

// TestTallyConcurrentFlush: two tallies flush into one registry while a
// third goroutine takes snapshots; no count is lost or doubled, and a
// snapshot never reads more than has been flushed. Run under -race.
func TestTallyConcurrentFlush(t *testing.T) {
	const workers, items, perItem = 2, 2000, 3
	r := NewRegistry()
	sc := NewScope(r)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := r.Snapshot().Counters["test.tally.counter"]; v > workers*items*perItem || v%perItem != 0 {
				t.Errorf("snapshot read %d mid-run", v)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tl := sc.Tally()
			for i := 0; i < items; i++ {
				testTallied.On(tl).Add(perItem)
				tl.Flush()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if v := r.Counter("test.tally.counter").Value(); v != workers*items*perItem {
		t.Fatalf("registry holds %d, want %d", v, workers*items*perItem)
	}
}
