package cache

import (
	"errors"
	"fmt"

	"fnpr/internal/cfg"
)

// AccessMap attaches a memory-access trace (in program order, in units of
// cache lines) to every basic block of a control-flow graph. In a real flow
// these traces come from the compiler/WCET tool; the library's synthetic
// workloads generate them.
type AccessMap map[cfg.BlockID][]Line

// Lines returns the union of all lines accessed by the program.
func (m AccessMap) Lines() LineSet {
	out := make(LineSet)
	for _, trace := range m {
		for _, l := range trace {
			out.Add(l)
		}
	}
	return out
}

// UCBResult holds the useful-cache-block analysis of one task.
type UCBResult struct {
	cfg *cfg.Graph
	cc  Config

	// ReachOut[b] over-approximates the lines that may be cached when
	// execution leaves block b (forward may analysis, no kill — a line
	// once loaded may still be resident later on some path).
	ReachOut map[cfg.BlockID]LineSet

	// LiveIn[b] over-approximates the lines that may be accessed at or
	// after the entry of block b (backward may analysis).
	LiveIn map[cfg.BlockID]LineSet

	// UCB[b] = ReachOut[b] ∩ LiveIn[b]: lines that may be cached at some
	// point inside b AND may be reused afterwards — the useful cache
	// blocks whose eviction a preemption inside b may have to repay.
	UCB map[cfg.BlockID]LineSet
}

// AnalyzeUCB runs the useful-cache-block analysis of Lee et al. on an acyclic
// (loop-collapsed) control-flow graph. For every basic block b it computes
// a sound over-approximation UCB_b of the memory blocks whose eviction during
// a preemption inside b the task may have to repay:
//
//	UCB_b = ReachOut(b) ∩ LiveIn(b)
//
// ReachOut accumulates accessed lines forward over all paths (a may analysis
// with empty kill set: over-approximating residency is sound for an upper
// bound); LiveIn accumulates future uses backward. For any program point p
// inside b, Reach(p) ⊆ ReachOut(b) and Live(p) ⊆ LiveIn(b), so UCB_b bounds
// the useful blocks at every point of the block.
func AnalyzeUCB(g *cfg.Graph, acc AccessMap, cc Config) (*UCBResult, error) {
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, errors.New("cache: nil graph")
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("cache: UCB analysis requires an acyclic graph (collapse loops first): %w", err)
	}

	res := &UCBResult{
		cfg:      g,
		cc:       cc,
		ReachOut: make(map[cfg.BlockID]LineSet, g.Len()),
		LiveIn:   make(map[cfg.BlockID]LineSet, g.Len()),
		UCB:      make(map[cfg.BlockID]LineSet, g.Len()),
	}

	// Forward pass in topological order: ReachOut(b) = gen(b) ∪
	// union over predecessors p of ReachOut(p).
	for _, b := range order {
		s := make(LineSet)
		for _, p := range g.Preds(b) {
			s.Union(res.ReachOut[p])
		}
		for _, l := range acc[b] {
			s.Add(l)
		}
		res.ReachOut[b] = s
	}

	// Backward pass in reverse topological order: LiveIn(b) = gen(b) ∪
	// union over successors s of LiveIn(s).
	for i := len(order) - 1; i >= 0; i-- {
		b := order[i]
		s := make(LineSet)
		for _, sc := range g.Succs(b) {
			s.Union(res.LiveIn[sc])
		}
		for _, l := range acc[b] {
			s.Add(l)
		}
		res.LiveIn[b] = s
	}

	for _, b := range order {
		res.UCB[b] = res.ReachOut[b].Intersect(res.LiveIn[b])
	}
	return res, nil
}

// CRPD returns the per-block CRPD upper bound considering only the preempted
// task: at most min(|UCB_b ∩ set s|, Assoc) lines per cache set can be both
// useful and resident, and each costs one reload:
//
//	CRPD_b = ReloadCost × Σ_s min(|UCB_b,s|, Assoc)
//
// This is the classic UCB-only bound, sound for LRU caches regardless of the
// preempting task.
func (r *UCBResult) CRPD(b cfg.BlockID) float64 {
	return r.crpdOf(r.UCB[b])
}

func (r *UCBResult) crpdOf(ucb LineSet) float64 {
	var lines int
	for _, n := range ucb.PerSet(r.cc) {
		if n > r.cc.Assoc {
			n = r.cc.Assoc
		}
		lines += n
	}
	return float64(lines) * r.cc.ReloadCost
}

// CRPDAgainst refines the per-block bound with the preempting workload's
// evicting cache blocks (ECBs): only cache sets the preempter may touch can
// lose useful blocks. For direct-mapped caches this is the classic sound
// UCB∩ECB refinement (a useful line is lost only if an evicting line maps to
// the same set); for associative LRU caches the refinement "set untouched by
// the preempter ⇒ no loss in that set" remains sound, and within a touched
// set we keep the conservative min(|UCB_s|, Assoc) count (per Burguière et
// al., counting min(|UCB_s|, |ECB_s|) is unsound for LRU when the preempted
// task's own accesses age the set afterwards).
func (r *UCBResult) CRPDAgainst(b cfg.BlockID, ecb LineSet) float64 {
	touched := make(map[int]bool)
	for l := range ecb {
		touched[r.cc.SetOf(l)] = true
	}
	var lines int
	perSet := make(map[int]int)
	for l := range r.UCB[b] {
		perSet[r.cc.SetOf(l)]++
	}
	for s, n := range perSet {
		if !touched[s] {
			continue
		}
		if n > r.cc.Assoc {
			n = r.cc.Assoc
		}
		if r.cc.Assoc == 1 {
			// Direct-mapped: at most one useful line per set, and
			// it is lost only when an ECB maps there — n is
			// already min(n, 1).
			lines += n
			continue
		}
		lines += n
	}
	return float64(lines) * r.cc.ReloadCost
}

// RemapAccesses lifts a per-original-block access map onto a loop-collapsed
// graph: a collapsed loop node's trace is the concatenation (in block-ID
// order) of the traces of the blocks it covers. Concatenation preserves the
// set of lines touched, which is all the may-style UCB/ECB analyses consume.
func RemapAccesses(col *cfg.Collapsed, orig AccessMap) AccessMap {
	out := make(AccessMap, col.Graph.Len())
	for id := 0; id < col.Graph.Len(); id++ {
		var trace []Line
		for _, o := range col.Origins[cfg.BlockID(id)] {
			trace = append(trace, orig[o]...)
		}
		if len(trace) > 0 {
			out[cfg.BlockID(id)] = trace
		}
	}
	return out
}
