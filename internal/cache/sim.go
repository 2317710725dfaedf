package cache

// Sim is a concrete set-associative LRU cache simulator. It is used by the
// test suite to cross-validate the static CRPD bounds: replay a task's access
// trace, inject a preempting task's accesses at a chosen point, and count the
// additional misses the task suffers afterwards.
type Sim struct {
	cfg Config
	// sets[s] holds the resident lines of set s in LRU order: index 0 is
	// the most recently used way.
	sets [][]Line

	misses uint64
}

// NewSim creates an empty cache.
func NewSim(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{cfg: cfg, sets: make([][]Line, cfg.Sets)}
	return s, nil
}

// Access touches one line, updating LRU state, and reports whether it hit.
func (s *Sim) Access(l Line) bool {
	idx := s.cfg.SetOf(l)
	ways := s.sets[idx]
	for i, w := range ways {
		if w == l {
			// Hit: move to front.
			copy(ways[1:i+1], ways[:i])
			ways[0] = l
			return true
		}
	}
	// Miss: insert at front, evicting the LRU way when full.
	if len(ways) < s.cfg.Assoc {
		ways = append(ways, 0)
	}
	copy(ways[1:], ways)
	ways[0] = l
	s.sets[idx] = ways
	s.misses++
	return false
}

// AccessAll replays a trace and returns the number of misses it produced.
func (s *Sim) AccessAll(trace []Line) uint64 {
	before := s.misses
	for _, l := range trace {
		s.Access(l)
	}
	return s.misses - before
}

// Flush empties the cache but keeps the counters.
func (s *Sim) Flush() {
	for i := range s.sets {
		s.sets[i] = nil
	}
}
