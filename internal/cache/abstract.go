package cache

import (
	"errors"
	"fmt"

	"fnpr/internal/cfg"
)

// This file implements abstract-interpretation cache analysis in the style
// of Ferdinand and Wilhelm: abstract set-associative LRU cache states with
// per-line age bounds, combined over a control-flow graph by a fixpoint-free
// topological pass (the graphs are loop-collapsed DAGs).
//
//   - Must analysis: upper bounds on ages; a line with bounded age < Assoc is
//     GUARANTEED to be cached — the basis for classifying memory accesses as
//     always-hit, from which a cache-aware WCET estimation derives per-block
//     execution intervals.
//
//   - May analysis: lower bounds on ages; a line absent from the may state is
//     GUARANTEED NOT cached — usable to classify always-miss and to tighten
//     the UCB over-approximation (a line that cannot be cached at a point
//     cannot be a useful block there).
//
// Abstract states map each line to an age in [0, Assoc-1]; absence means
// "age >= Assoc" (not cached) in must, and "cannot be cached" in may.

// AbstractState is one abstract cache state: line -> age bound.
type AbstractState struct {
	cfgc Config
	// age[l] is the age bound of line l (0 = most recently used).
	age map[Line]int
}

// NewAbstractState returns the empty abstract state.
func NewAbstractState(c Config) *AbstractState {
	return &AbstractState{cfgc: c, age: make(map[Line]int)}
}

// Clone returns a deep copy.
func (s *AbstractState) Clone() *AbstractState {
	c := NewAbstractState(s.cfgc)
	for l, a := range s.age {
		c.age[l] = a
	}
	return c
}

// Age returns the age bound of a line and whether it is tracked.
func (s *AbstractState) Age(l Line) (int, bool) {
	a, ok := s.age[l]
	return a, ok
}

// accessMust applies the LRU must-update: the accessed line gets age 0;
// lines in the same set with age <= the accessed line's old age (or all
// lines when it was absent) age by one, falling out at Assoc.
func (s *AbstractState) accessMust(l Line) {
	set := s.cfgc.SetOf(l)
	old, wasIn := s.age[l]
	if !wasIn {
		old = s.cfgc.Assoc // treated as beyond the last way
	}
	for m, a := range s.age {
		if m == l || s.cfgc.SetOf(m) != set {
			continue
		}
		if a < old {
			if a+1 >= s.cfgc.Assoc {
				delete(s.age, m)
			} else {
				s.age[m] = a + 1
			}
		}
	}
	s.age[l] = 0
}

// accessMay applies the LRU may-update. May ages are LOWER bounds: a line
// concretely cached with age k appears in the may state with bound <= k, and
// keeping a bound smaller than necessary is conservative (the line merely
// stays "possibly cached" longer). The accessed line gets age 0. Another
// line m with bound a provably ages only when a < old (the accessed line's
// concrete age is >= old > a, so m was strictly younger and is pushed down);
// when a >= old, a concrete state may exist in which m was older than the
// accessed line and did not age, so its lower bound stays.
func (s *AbstractState) accessMay(l Line) {
	set := s.cfgc.SetOf(l)
	old, wasIn := s.age[l]
	if !wasIn {
		old = s.cfgc.Assoc
	}
	for m, a := range s.age {
		if m == l || s.cfgc.SetOf(m) != set {
			continue
		}
		if a < old {
			if a+1 >= s.cfgc.Assoc {
				delete(s.age, m)
			} else {
				s.age[m] = a + 1
			}
		}
	}
	s.age[l] = 0
}

// joinMust intersects two must states: a line survives only if cached on
// both paths, with the maximum (worst) age.
func joinMust(a, b *AbstractState) *AbstractState {
	out := NewAbstractState(a.cfgc)
	for l, aa := range a.age {
		if ba, ok := b.age[l]; ok {
			if ba > aa {
				out.age[l] = ba
			} else {
				out.age[l] = aa
			}
		}
	}
	return out
}

// joinMay unions two may states: a line survives if cached on either path,
// with the minimum (best) age.
func joinMay(a, b *AbstractState) *AbstractState {
	out := NewAbstractState(a.cfgc)
	for l, aa := range a.age {
		out.age[l] = aa
	}
	for l, ba := range b.age {
		if aa, ok := out.age[l]; !ok || ba < aa {
			out.age[l] = ba
		}
	}
	return out
}

// Classification of one access.
type Classification int

const (
	// AlwaysHit: the line is guaranteed cached (must analysis).
	AlwaysHit Classification = iota
	// AlwaysMiss: the line is guaranteed absent (may analysis).
	AlwaysMiss
	// NotClassified: neither analysis decides.
	NotClassified
)

// String implements fmt.Stringer.
func (c Classification) String() string {
	switch c {
	case AlwaysHit:
		return "always-hit"
	case AlwaysMiss:
		return "always-miss"
	case NotClassified:
		return "not-classified"
	default:
		return fmt.Sprintf("Classification(%d)", int(c))
	}
}

// AbstractResult is the outcome of the must/may analysis of one task.
type AbstractResult struct {
	cfgc Config
	// MustIn and MayIn are the abstract states at each block's entry.
	MustIn map[cfg.BlockID]*AbstractState
	MayIn  map[cfg.BlockID]*AbstractState
	// Class classifies every access of every block (parallel to the
	// AccessMap traces).
	Class map[cfg.BlockID][]Classification
}

// AnalyzeAbstract runs the must and may analyses over an acyclic
// (loop-collapsed) graph with cold caches at entry, classifying every
// access. Within a block, accesses are interpreted in program order.
func AnalyzeAbstract(g *cfg.Graph, acc AccessMap, cc Config) (*AbstractResult, error) {
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, errors.New("cache: nil graph")
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("cache: abstract analysis requires an acyclic graph: %w", err)
	}
	res := &AbstractResult{
		cfgc:   cc,
		MustIn: make(map[cfg.BlockID]*AbstractState, g.Len()),
		MayIn:  make(map[cfg.BlockID]*AbstractState, g.Len()),
		Class:  make(map[cfg.BlockID][]Classification, g.Len()),
	}
	mustOut := make(map[cfg.BlockID]*AbstractState, g.Len())
	mayOut := make(map[cfg.BlockID]*AbstractState, g.Len())
	for _, b := range order {
		var must, may *AbstractState
		for i, p := range g.Preds(b) {
			if i == 0 {
				must = mustOut[p].Clone()
				may = mayOut[p].Clone()
				continue
			}
			must = joinMust(must, mustOut[p])
			may = joinMay(may, mayOut[p])
		}
		if must == nil {
			must = NewAbstractState(cc) // entry: cold cache
			may = NewAbstractState(cc)
		}
		res.MustIn[b] = must.Clone()
		res.MayIn[b] = may.Clone()
		var cls []Classification
		for _, l := range acc[b] {
			if _, in := must.Age(l); in {
				cls = append(cls, AlwaysHit)
			} else if _, in := may.Age(l); !in {
				cls = append(cls, AlwaysMiss)
			} else {
				cls = append(cls, NotClassified)
			}
			must.accessMust(l)
			may.accessMay(l)
		}
		res.Class[b] = cls
		mustOut[b] = must
		mayOut[b] = may
	}
	return res, nil
}
