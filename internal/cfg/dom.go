package cfg

import (
	"fmt"
	"sort"
)

// Dominators computes the immediate dominator of every reachable block using
// the classic iterative data-flow algorithm of Cooper, Harvey and Kennedy.
// The entry block dominates itself; the returned slice maps block ID to its
// immediate dominator (idom[entry] == entry, NoBlock for unreachable blocks).
func (g *Graph) Dominators() []BlockID {
	n := len(g.blocks)
	idom := make([]BlockID, n)
	for i := range idom {
		idom[i] = NoBlock
	}
	if g.entry == NoBlock {
		return idom
	}

	// Reverse post-order over the depth-first spanning tree.
	order := g.reversePostOrder()
	pos := make([]int, n) // position of each block in rpo
	for i := range pos {
		pos[i] = -1
	}
	for i, id := range order {
		pos[id] = i
	}

	intersect := func(a, b BlockID) BlockID {
		for a != b {
			for pos[a] > pos[b] {
				a = idom[a]
			}
			for pos[b] > pos[a] {
				b = idom[b]
			}
		}
		return a
	}

	idom[g.entry] = g.entry
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			if b == g.entry {
				continue
			}
			var newIdom BlockID = NoBlock
			for _, p := range g.pred[b] {
				if idom[p] == NoBlock {
					continue // predecessor not yet processed or unreachable
				}
				if newIdom == NoBlock {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != NoBlock && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

func (g *Graph) reversePostOrder() []BlockID {
	n := len(g.blocks)
	seen := make([]bool, n)
	var post []BlockID
	var dfs func(BlockID)
	dfs = func(b BlockID) {
		seen[b] = true
		// Visit successors in ID order for determinism.
		succs := append([]BlockID(nil), g.succ[b]...)
		sort.Slice(succs, func(i, j int) bool { return succs[i] < succs[j] })
		for _, s := range succs {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	if g.entry != NoBlock {
		dfs(g.entry)
	}
	// Reverse.
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Dominates reports whether a dominates b under the given idom tree.
func Dominates(idom []BlockID, a, b BlockID) bool {
	if a == b {
		return true
	}
	for b != NoBlock {
		parent := idom[b]
		if parent == b { // reached entry
			return a == b
		}
		if parent == a {
			return true
		}
		b = parent
	}
	return false
}

// Loop describes one natural loop.
type Loop struct {
	// Header is the loop's single entry block (the target of its back
	// edges).
	Header BlockID
	// Body is the set of blocks in the loop, including the header,
	// sorted by ID.
	Body []BlockID
	// BackEdges lists the tail blocks of the loop's back edges.
	BackEdges []BlockID
	// Depth is the nesting depth: 1 for an outermost loop.
	Depth int
}

// Contains reports whether the loop body includes the block.
func (l Loop) Contains(b BlockID) bool {
	i := sort.Search(len(l.Body), func(i int) bool { return l.Body[i] >= b })
	return i < len(l.Body) && l.Body[i] == b
}

// NaturalLoops finds all natural loops of the graph: for every back edge
// t->h (where h dominates t), the loop is h plus all blocks that can reach t
// without passing through h. Loops sharing a header are merged. The result is
// sorted innermost-first (descending depth, then header ID), which is the
// order required for loop collapsing.
//
// The second return value is false when the graph has a cycle that is not a
// natural loop (an irreducible region); such graphs cannot be analysed by
// the interval method of the paper.
func (g *Graph) NaturalLoops() ([]Loop, bool) {
	idom := g.Dominators()
	byHeader := make(map[BlockID]*Loop)

	for t := range g.succ {
		for _, h := range g.succ[t] {
			if Dominates(idom, h, BlockID(t)) {
				// Back edge t->h: collect the natural loop.
				l, ok := byHeader[h]
				if !ok {
					l = &Loop{Header: h}
					byHeader[h] = l
				}
				l.BackEdges = append(l.BackEdges, BlockID(t))
				collectLoopBody(g, l, h, BlockID(t))
			}
		}
	}

	// Check reducibility: every cycle must be covered by a natural loop.
	if !g.reducibleGiven(byHeader) {
		return nil, false
	}

	loops := make([]Loop, 0, len(byHeader))
	for _, l := range byHeader {
		sort.Slice(l.Body, func(i, j int) bool { return l.Body[i] < l.Body[j] })
		sort.Slice(l.BackEdges, func(i, j int) bool { return l.BackEdges[i] < l.BackEdges[j] })
		loops = append(loops, *l)
	}
	// Compute nesting depth: loop A nests inside loop B when A's header is
	// in B's body and A != B.
	for i := range loops {
		loops[i].Depth = 1
		for j := range loops {
			if i != j && loops[j].Contains(loops[i].Header) && loops[i].Header != loops[j].Header {
				loops[i].Depth++
			}
		}
	}
	sort.Slice(loops, func(i, j int) bool {
		if loops[i].Depth != loops[j].Depth {
			return loops[i].Depth > loops[j].Depth // innermost first
		}
		return loops[i].Header < loops[j].Header
	})
	return loops, true
}

func collectLoopBody(g *Graph, l *Loop, header, tail BlockID) {
	in := make(map[BlockID]bool, len(l.Body))
	for _, b := range l.Body {
		in[b] = true
	}
	add := func(b BlockID) {
		if !in[b] {
			in[b] = true
			l.Body = append(l.Body, b)
		}
	}
	add(header)
	stack := []BlockID{}
	if !in[tail] {
		add(tail)
		stack = append(stack, tail)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.pred[n] {
			if !in[p] {
				add(p)
				stack = append(stack, p)
			}
		}
	}
}

// reducibleGiven checks that removing all identified back edges leaves an
// acyclic graph — the standard reducibility criterion.
func (g *Graph) reducibleGiven(byHeader map[BlockID]*Loop) bool {
	back := make(map[[2]BlockID]bool)
	for h, l := range byHeader {
		for _, t := range l.BackEdges {
			back[[2]BlockID{t, h}] = true
		}
	}
	// Kahn's algorithm ignoring back edges.
	n := len(g.blocks)
	indeg := make([]int, n)
	for t := range g.succ {
		for _, s := range g.succ[t] {
			if !back[[2]BlockID{BlockID(t), s}] {
				indeg[s]++
			}
		}
	}
	var ready []BlockID
	for id := range indeg {
		if indeg[id] == 0 {
			ready = append(ready, BlockID(id))
		}
	}
	count := 0
	for len(ready) > 0 {
		t := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		count++
		for _, s := range g.succ[t] {
			if back[[2]BlockID{t, s}] {
				continue
			}
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return count == n
}

// CheckLoopBounds verifies that every loop header has an iteration bound in
// g.LoopBounds and that the bounds are sane.
func (g *Graph) CheckLoopBounds() error {
	loops, ok := g.NaturalLoops()
	if !ok {
		return fmt.Errorf("cfg: graph is irreducible")
	}
	for _, l := range loops {
		b, ok := g.LoopBounds[l.Header]
		if !ok {
			return fmt.Errorf("cfg: loop headed at %s has no iteration bound", g.blocks[l.Header].Label())
		}
		if b.Max < 1 || b.Min < 0 || b.Min > b.Max {
			return fmt.Errorf("cfg: loop headed at %s has invalid bound [%d,%d]", g.blocks[l.Header].Label(), b.Min, b.Max)
		}
	}
	return nil
}
