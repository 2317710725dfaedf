package cache

import (
	"math/rand"
	"testing"
)

// contains reports whether a line is resident, without touching LRU state.
func (s *Sim) contains(l Line) bool {
	for _, w := range s.sets[s.cfg.SetOf(l)] {
		if w == l {
			return true
		}
	}
	return false
}

// resident returns the set of all cached lines.
func (s *Sim) resident() LineSet {
	out := make(LineSet)
	for _, ways := range s.sets {
		for _, w := range ways {
			out.Add(w)
		}
	}
	return out
}

// snapshot returns a deep copy of the simulator, so that several preemption
// scenarios can start from one warm state.
func (s *Sim) snapshot() *Sim {
	c := &Sim{cfg: s.cfg, sets: make([][]Line, len(s.sets)), misses: s.misses}
	for i, ways := range s.sets {
		c.sets[i] = append([]Line(nil), ways...)
	}
	return c
}

func TestSimRejectsBadConfig(t *testing.T) {
	if _, err := NewSim(Config{Sets: 3, Assoc: 1, LineBytes: 16}); err == nil {
		t.Fatal("NewSim accepted invalid config")
	}
}

func TestSimColdMissThenHit(t *testing.T) {
	s, _ := NewSim(validCfg())
	if s.Access(5) {
		t.Fatal("cold access reported hit")
	}
	if !s.Access(5) {
		t.Fatal("warm access reported miss")
	}
	if s.misses != 1 {
		t.Fatalf("misses = %d, want 1", s.misses)
	}
}

func TestSimLRUEviction(t *testing.T) {
	// 8 sets, 2-way: lines 0, 8, 16 all map to set 0.
	s, _ := NewSim(validCfg())
	s.Access(0)
	s.Access(8)
	s.Access(16) // evicts 0 (LRU)
	if s.contains(0) {
		t.Fatal("LRU line not evicted")
	}
	if !s.contains(8) || !s.contains(16) {
		t.Fatal("wrong line evicted")
	}
}

func TestSimLRUOrderUpdatedOnHit(t *testing.T) {
	s, _ := NewSim(validCfg())
	s.Access(0)
	s.Access(8)
	s.Access(0)  // 0 becomes MRU
	s.Access(16) // must evict 8, not 0
	if !s.contains(0) || s.contains(8) {
		t.Fatal("hit did not refresh LRU order")
	}
}

func TestSimDirectMapped(t *testing.T) {
	s, _ := NewSim(Config{Sets: 4, Assoc: 1, LineBytes: 16, ReloadCost: 1})
	s.Access(0)
	s.Access(4) // same set, evicts 0
	if s.contains(0) {
		t.Fatal("direct-mapped conflict not evicted")
	}
}

func TestSimAccessAllAndFlush(t *testing.T) {
	s, _ := NewSim(validCfg())
	n := s.AccessAll([]Line{1, 2, 3, 1, 2, 3})
	if n != 3 {
		t.Fatalf("AccessAll misses = %d, want 3", n)
	}
	if got := s.resident().Len(); got != 3 {
		t.Fatalf("resident = %d lines, want 3", got)
	}
	s.Flush()
	if s.resident().Len() != 0 {
		t.Fatal("Flush left residents")
	}
	if s.misses != 3 {
		t.Fatal("Flush cleared counters")
	}
}

func TestSimSnapshotIndependence(t *testing.T) {
	s, _ := NewSim(validCfg())
	s.Access(1)
	c := s.snapshot()
	c.Access(2)
	if s.contains(2) {
		t.Fatal("snapshot shares state")
	}
	if !c.contains(1) {
		t.Fatal("snapshot lost state")
	}
}

// Property: residency never exceeds capacity, and replaying the same trace
// twice in a fresh cache produces at most as many misses the second time
// within one cache lifetime (inclusion: warm ≤ cold for LRU).
func TestSimCapacityAndWarmup(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		cfg := Config{Sets: 4, Assoc: 2, LineBytes: 16, ReloadCost: 1}
		s, _ := NewSim(cfg)
		trace := make([]Line, 200)
		for i := range trace {
			trace[i] = Line(r.Intn(24))
		}
		cold := s.AccessAll(trace)
		if s.resident().Len() > cfg.Sets*cfg.Assoc {
			t.Fatalf("trial %d: residency exceeds capacity", trial)
		}
		warm := s.AccessAll(trace)
		if warm > cold {
			t.Fatalf("trial %d: warm misses %d > cold misses %d", trial, warm, cold)
		}
	}
}

// Property: for an LRU cache, extra misses after a preemption that touches k
// distinct extra lines are bounded by the victim's resident useful lines.
func TestSimPreemptionDamageBounded(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	cfg := Config{Sets: 4, Assoc: 2, LineBytes: 16, ReloadCost: 1}
	for trial := 0; trial < 50; trial++ {
		victimTrace := make([]Line, 100)
		for i := range victimTrace {
			victimTrace[i] = Line(r.Intn(16))
		}
		cut := r.Intn(len(victimTrace))

		// Baseline: no preemption.
		base, _ := NewSim(cfg)
		base.AccessAll(victimTrace[:cut])
		baseTail := base.AccessAll(victimTrace[cut:])

		// Preempted run: preempter trashes the cache at the cut.
		pre, _ := NewSim(cfg)
		pre.AccessAll(victimTrace[:cut])
		resident := pre.resident().Len()
		preempter := make([]Line, 50)
		for i := range preempter {
			preempter[i] = Line(100 + r.Intn(16))
		}
		pre.AccessAll(preempter)
		preTail := pre.AccessAll(victimTrace[cut:])

		extra := int64(preTail) - int64(baseTail)
		if extra > int64(resident) {
			t.Fatalf("trial %d: extra misses %d exceed resident lines %d", trial, extra, resident)
		}
	}
}
