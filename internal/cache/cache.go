// Package cache models set-associative LRU caches and implements the static
// cache-related preemption delay (CRPD) analyses the paper builds on: the
// useful-cache-block (UCB) analysis in the style of Lee et al. (Section II,
// reference [3] of the paper) and the evicting-cache-block (ECB) analysis
// used to bound the damage a preempting task can cause.
//
// The package provides both:
//
//   - a static analysis over control-flow graphs (ucb.go, ecb.go), producing
//     a sound upper bound CRPD_b on the delay of a preemption inside each
//     basic block b — the quantity from which package delay assembles the
//     preemption delay function fi(t) = max_{b in BB(t)} CRPD_b; and
//
//   - a concrete trace-driven LRU cache simulator (sim.go), used by tests to
//     cross-validate the static bounds against observed reload counts.
package cache

import (
	"fmt"
	"math/bits"
)

// Line identifies a memory block in units of cache lines (a byte address
// shifted right by log2(line size)).
type Line uint64

// Config describes a set-associative cache with LRU replacement.
type Config struct {
	// Sets is the number of cache sets; must be a power of two.
	Sets int
	// Assoc is the number of ways per set (1 = direct-mapped).
	Assoc int
	// LineBytes is the line size in bytes; must be a power of two.
	LineBytes int
	// ReloadCost is the time to refill one line from the next memory
	// level (the block reload time, BRT).
	ReloadCost float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Sets <= 0 || bits.OnesCount(uint(c.Sets)) != 1:
		return fmt.Errorf("cache: Sets must be a positive power of two, got %d", c.Sets)
	case c.Assoc <= 0:
		return fmt.Errorf("cache: Assoc must be positive, got %d", c.Assoc)
	case c.LineBytes <= 0 || bits.OnesCount(uint(c.LineBytes)) != 1:
		return fmt.Errorf("cache: LineBytes must be a positive power of two, got %d", c.LineBytes)
	case c.ReloadCost < 0:
		return fmt.Errorf("cache: ReloadCost must be non-negative, got %g", c.ReloadCost)
	}
	return nil
}

// SetOf maps a line to its cache set index.
func (c Config) SetOf(l Line) int {
	return int(uint64(l) % uint64(c.Sets))
}

// LineSet is a set of cache lines, the common currency of the analyses.
type LineSet map[Line]struct{}

// NewLineSet builds a set from the given lines.
func NewLineSet(lines ...Line) LineSet {
	s := make(LineSet, len(lines))
	for _, l := range lines {
		s[l] = struct{}{}
	}
	return s
}

// Add inserts a line.
func (s LineSet) Add(l Line) { s[l] = struct{}{} }

// Has reports membership.
func (s LineSet) Has(l Line) bool {
	_, ok := s[l]
	return ok
}

// Union adds all lines of t into s and reports whether s changed.
func (s LineSet) Union(t LineSet) bool {
	changed := false
	for l := range t {
		if !s.Has(l) {
			s.Add(l)
			changed = true
		}
	}
	return changed
}

// Intersect returns a new set with the lines present in both s and t.
func (s LineSet) Intersect(t LineSet) LineSet {
	out := make(LineSet)
	for l := range s {
		if t.Has(l) {
			out.Add(l)
		}
	}
	return out
}

// Len returns the number of lines.
func (s LineSet) Len() int { return len(s) }

// PerSet partitions the lines by cache set under the given configuration.
func (s LineSet) PerSet(c Config) map[int]int {
	out := make(map[int]int)
	for l := range s {
		out[c.SetOf(l)]++
	}
	return out
}
