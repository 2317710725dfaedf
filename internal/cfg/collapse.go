package cfg

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Collapsed is the result of loop collapsing: an acyclic graph in which every
// natural loop of the original has been replaced by a single synthetic block,
// plus the provenance map needed to relate synthetic blocks back to the
// original blocks they cover (so per-block properties such as CRPD can be
// aggregated conservatively).
type Collapsed struct {
	// Graph is the loop-free graph, safe for AnalyzeOffsets.
	Graph *Graph

	// Origins maps every block of Graph to the original block IDs it
	// stands for. Plain (non-loop) blocks map to themselves; a collapsed
	// loop node maps to all blocks of the loop body.
	Origins map[BlockID][]BlockID
}

// CollapseLoops reduces every natural loop of g (innermost first, as the
// paper prescribes) to a single block whose execution interval accounts for
// the loop's iteration bound:
//
//	EMin(loop) = Bound.Min × (shortest path through one iteration)
//	EMax(loop) = Bound.Max × (longest  path through one iteration)
//
// where one iteration runs from the loop header to a back-edge tail,
// inclusive. Iteration bounds are taken from g.LoopBounds and are mandatory
// for every loop. The input graph is not modified.
func (g *Graph) CollapseLoops() (*Collapsed, error) {
	if err := g.CheckLoopBounds(); err != nil {
		return nil, err
	}
	cur := g.Clone()
	// origins[b] for current graph blocks.
	origins := make(map[BlockID][]BlockID, cur.Len())
	for id := 0; id < cur.Len(); id++ {
		origins[BlockID(id)] = []BlockID{BlockID(id)}
	}

	for {
		loops, ok := cur.NaturalLoops()
		if !ok {
			return nil, errors.New("cfg: irreducible graph")
		}
		if len(loops) == 0 {
			break
		}
		// Collapse one innermost loop, then re-discover: collapsing
		// changes IDs, so working loop-by-loop keeps bookkeeping simple.
		l := loops[0]
		bound, ok := cur.LoopBounds[l.Header]
		if !ok {
			return nil, fmt.Errorf("cfg: loop at %s lost its bound during collapsing", cur.blocks[l.Header].Label())
		}
		iterMin, iterMax, err := cur.iterationInterval(l)
		if err != nil {
			return nil, err
		}
		next, remap, err := cur.collapseOne(l, float64(bound.Min)*iterMin, float64(bound.Max)*iterMax)
		if err != nil {
			return nil, err
		}
		// Rebuild origins under the remapping.
		newOrigins := make(map[BlockID][]BlockID, next.Len())
		for oldID, news := range remap {
			newOrigins[news] = append(newOrigins[news], origins[oldID]...)
		}
		for id, os := range newOrigins {
			sort.Slice(os, func(i, j int) bool { return os[i] < os[j] })
			newOrigins[id] = dedupBlockIDs(os)
		}
		origins = newOrigins
		cur = next
	}
	return &Collapsed{Graph: cur, Origins: origins}, nil
}

func dedupBlockIDs(s []BlockID) []BlockID {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// iterationInterval computes the shortest and longest execution time of one
// loop iteration: a path inside the loop body from the header to any
// back-edge tail, inclusive of both. The body without its back edges must be
// acyclic (guaranteed when inner loops were collapsed first).
func (g *Graph) iterationInterval(l Loop) (emin, emax float64, err error) {
	inBody := make(map[BlockID]bool, len(l.Body))
	for _, b := range l.Body {
		inBody[b] = true
	}
	isTail := make(map[BlockID]bool, len(l.BackEdges))
	for _, t := range l.BackEdges {
		isTail[t] = true
	}
	// Longest/shortest path on the body DAG (back edges to header excluded).
	// dist[min|max][b]: path time from header up to and including b.
	dmin := make(map[BlockID]float64, len(l.Body))
	dmax := make(map[BlockID]float64, len(l.Body))
	// Topological order of body blocks ignoring edges to the header.
	order, err := g.bodyTopo(l, inBody)
	if err != nil {
		return 0, 0, err
	}
	for _, b := range order {
		if b == l.Header {
			dmin[b] = g.blocks[b].EMin
			dmax[b] = g.blocks[b].EMax
			continue
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range g.pred[b] {
			if !inBody[p] || b == l.Header {
				continue
			}
			if v, ok := dmin[p]; ok && v < lo {
				lo = v
			}
			if v, ok := dmax[p]; ok && v > hi {
				hi = v
			}
		}
		if math.IsInf(lo, 1) {
			// No in-body predecessor: block only reachable via the
			// header's back edge, impossible in a natural loop.
			return 0, 0, fmt.Errorf("cfg: loop body block %s unreachable from header", g.blocks[b].Label())
		}
		dmin[b] = lo + g.blocks[b].EMin
		dmax[b] = hi + g.blocks[b].EMax
	}
	emin, emax = math.Inf(1), math.Inf(-1)
	for t := range isTail {
		if v, ok := dmin[t]; ok && v < emin {
			emin = v
		}
		if v, ok := dmax[t]; ok && v > emax {
			emax = v
		}
	}
	if math.IsInf(emin, 1) || math.IsInf(emax, -1) {
		return 0, 0, errors.New("cfg: loop has no reachable back-edge tail")
	}
	return emin, emax, nil
}

// bodyTopo returns a topological order of the loop body, ignoring back edges
// into the header.
func (g *Graph) bodyTopo(l Loop, inBody map[BlockID]bool) ([]BlockID, error) {
	indeg := make(map[BlockID]int, len(l.Body))
	for _, b := range l.Body {
		indeg[b] = 0
	}
	for _, b := range l.Body {
		for _, s := range g.succ[b] {
			if inBody[s] && s != l.Header {
				indeg[s]++
			}
		}
	}
	var ready []BlockID
	for _, b := range l.Body {
		if indeg[b] == 0 {
			ready = append(ready, b)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	var order []BlockID
	for len(ready) > 0 {
		b := ready[0]
		ready = ready[1:]
		order = append(order, b)
		for _, s := range g.succ[b] {
			if !inBody[s] || s == l.Header {
				continue
			}
			indeg[s]--
			if indeg[s] == 0 {
				i := sort.Search(len(ready), func(i int) bool { return ready[i] >= s })
				ready = append(ready, 0)
				copy(ready[i+1:], ready[i:])
				ready[i] = s
			}
		}
	}
	if len(order) != len(l.Body) {
		return nil, errors.New("cfg: loop body is cyclic after excluding back edges (inner loop not collapsed?)")
	}
	return order, nil
}

// collapseOne rewrites the graph with loop l replaced by a single block with
// the given execution interval. It returns the new graph and a remapping
// old block ID -> new block ID (all body blocks map to the synthetic node).
func (g *Graph) collapseOne(l Loop, emin, emax float64) (*Graph, map[BlockID]BlockID, error) {
	inBody := make(map[BlockID]bool, len(l.Body))
	for _, b := range l.Body {
		inBody[b] = true
	}
	next := New()
	remap := make(map[BlockID]BlockID, g.Len())
	var loopNode BlockID = NoBlock
	for id := 0; id < g.Len(); id++ {
		b := BlockID(id)
		if inBody[b] {
			if loopNode == NoBlock {
				loopNode = next.AddBlock(Block{
					Name: fmt.Sprintf("loop(%s)", g.blocks[l.Header].Label()),
					EMin: emin,
					EMax: emax,
				})
			}
			remap[b] = loopNode
			continue
		}
		remap[b] = next.AddBlock(g.blocks[b])
	}
	// Edges: body-internal edges vanish; edges crossing the body boundary
	// attach to the loop node; self-loops on the loop node are dropped.
	for from := 0; from < g.Len(); from++ {
		for _, to := range g.succ[from] {
			nf, nt := remap[BlockID(from)], remap[to]
			if nf == nt && inBody[BlockID(from)] && inBody[to] {
				continue
			}
			if err := next.AddEdge(nf, nt); err != nil {
				return nil, nil, err
			}
		}
	}
	if err := next.SetEntry(remap[g.entry]); err != nil {
		return nil, nil, err
	}
	// Carry over loop bounds of loops that survive (headers outside the
	// collapsed body).
	for h, b := range g.LoopBounds {
		if !inBody[h] {
			next.LoopBounds[remap[h]] = b
		}
	}
	return next, remap, nil
}
