// Package cfg implements control-flow graphs and the execution-interval
// analysis of Section IV of the paper ("Coupling preemption delay cost with
// execution points").
//
// A Graph is a set of basic blocks connected by directed edges. Every block b
// carries a minimum and maximum execution time [EMin, EMax] (produced, in a
// real toolchain, by a WCET estimation tool). The central analysis computes,
// for every block, its earliest and latest start offsets smin_b and smax_b
// (Equations 1-3 of the paper) by a breadth-first traversal of the graph,
// and from those the window of wall-clock instants during which the block
// might be executing when the task runs in isolation. The set BB(t) of blocks
// possibly live at instant t is the basis for the preemption delay function
// fi(t) = max_{b in BB(t)} CRPD_b built in package delay.
//
// Graphs with natural loops are handled by collapsing every loop (innermost
// first) into a single synthetic block whose execution interval accounts for
// the loop bound, exactly as the paper prescribes; acyclic call graphs are
// handled by analysing callees first (see Program).
package cfg

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// BlockID identifies a basic block within one Graph.
type BlockID int

// NoBlock is the zero-value sentinel for "no block".
const NoBlock BlockID = -1

// Block is one basic block: a maximal sequence of instructions with a single
// entry and a single exit, delimited by jumps.
type Block struct {
	// ID is the block's identity within its Graph, assigned by AddBlock.
	ID BlockID

	// Name is an optional human-readable label (defaults to the ID).
	Name string

	// EMin and EMax bound the execution time of one traversal of the
	// block in isolation (no preemption). They come from a WCET tool in a
	// real flow; here from the program generators or test fixtures.
	EMin, EMax float64

	// Call names a function invoked by this block, or "" for none. It is
	// only a label, which Graph.DOT prints: no analysis reads it, so the
	// block's own [EMin, EMax] must already include the callee's
	// execution.
	Call string
}

// Label returns the block's display name.
func (b Block) Label() string {
	if b.Name != "" {
		return b.Name
	}
	return fmt.Sprintf("b%d", b.ID)
}

// Graph is a single-entry control-flow graph.
type Graph struct {
	blocks []Block
	succ   [][]BlockID
	pred   [][]BlockID
	entry  BlockID

	// LoopBounds gives, per loop-header block, the maximum (and
	// optionally minimum) number of iterations of the loop it heads.
	// Required for graphs with cycles before offset analysis.
	LoopBounds map[BlockID]Bound
}

// Bound is an iteration bound for a natural loop: the loop body executes
// between Min and Max times. Min may be 0 (loop may be skipped entirely when
// its exit test fails on entry); Max must be >= Min and >= 1.
type Bound struct {
	Min, Max int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{entry: NoBlock, LoopBounds: make(map[BlockID]Bound)}
}

// AddBlock appends a block and returns its ID. The first added block becomes
// the entry unless SetEntry overrides it.
func (g *Graph) AddBlock(b Block) BlockID {
	id := BlockID(len(g.blocks))
	b.ID = id
	g.blocks = append(g.blocks, b)
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	if g.entry == NoBlock {
		g.entry = id
	}
	return id
}

// AddSimple is a convenience wrapper adding a block with the given name and
// execution interval.
func (g *Graph) AddSimple(name string, emin, emax float64) BlockID {
	return g.AddBlock(Block{Name: name, EMin: emin, EMax: emax})
}

// AddEdge adds a directed edge from -> to. Duplicate edges are ignored.
func (g *Graph) AddEdge(from, to BlockID) error {
	if !g.valid(from) || !g.valid(to) {
		return fmt.Errorf("cfg: edge %d->%d references unknown block", from, to)
	}
	for _, s := range g.succ[from] {
		if s == to {
			return nil
		}
	}
	g.succ[from] = append(g.succ[from], to)
	g.pred[to] = append(g.pred[to], from)
	return nil
}

// MustEdge is AddEdge that panics on error, for fixture construction.
func (g *Graph) MustEdge(from, to BlockID) {
	if err := g.AddEdge(from, to); err != nil {
		panic(err)
	}
}

// SetEntry designates the entry block.
func (g *Graph) SetEntry(id BlockID) error {
	if !g.valid(id) {
		return fmt.Errorf("cfg: entry %d references unknown block", id)
	}
	g.entry = id
	return nil
}

// Len returns the number of blocks.
func (g *Graph) Len() int { return len(g.blocks) }

// Block returns the block with the given ID.
func (g *Graph) Block(id BlockID) Block {
	return g.blocks[id]
}

// Succs returns the successor IDs of a block (shared slice; do not mutate).
func (g *Graph) Succs(id BlockID) []BlockID { return g.succ[id] }

// Preds returns the predecessor IDs of a block (shared slice; do not mutate).
func (g *Graph) Preds(id BlockID) []BlockID { return g.pred[id] }

// Exits returns the blocks with no successors, in ID order.
func (g *Graph) Exits() []BlockID {
	var out []BlockID
	for id := range g.blocks {
		if len(g.succ[id]) == 0 {
			out = append(out, BlockID(id))
		}
	}
	return out
}

func (g *Graph) valid(id BlockID) bool {
	return id >= 0 && int(id) < len(g.blocks)
}

// Validate checks structural well-formedness: a designated entry, all blocks
// reachable from it, non-negative execution intervals with EMin <= EMax, and
// at least one exit block.
func (g *Graph) Validate() error {
	if len(g.blocks) == 0 {
		return errors.New("cfg: empty graph")
	}
	if g.entry == NoBlock {
		return errors.New("cfg: no entry block")
	}
	for _, b := range g.blocks {
		if !(b.EMin >= 0) || !(b.EMax >= b.EMin) || math.IsInf(b.EMax, 0) {
			// The negated comparisons also catch NaN, whose ordered
			// comparisons are all false.
			return fmt.Errorf("cfg: block %s has invalid interval [%g,%g]", b.Label(), b.EMin, b.EMax)
		}
	}
	reach := g.reachable()
	for id := range g.blocks {
		if !reach[id] {
			return fmt.Errorf("cfg: block %s unreachable from entry", g.blocks[id].Label())
		}
	}
	if len(g.Exits()) == 0 {
		return errors.New("cfg: no exit block (every block has successors)")
	}
	return nil
}

func (g *Graph) reachable() []bool {
	seen := make([]bool, len(g.blocks))
	if g.entry == NoBlock {
		return seen
	}
	stack := []BlockID{g.entry}
	seen[g.entry] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.succ[n] {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// IsAcyclic reports whether the graph contains no cycle.
func (g *Graph) IsAcyclic() bool {
	_, err := g.TopoOrder()
	return err == nil
}

// TopoOrder returns a topological order of the blocks, or an error when the
// graph has a cycle. Ties are broken by block ID for determinism.
func (g *Graph) TopoOrder() ([]BlockID, error) {
	indeg := make([]int, len(g.blocks))
	for id := range g.blocks {
		for range g.pred[id] {
			indeg[id]++
		}
	}
	var ready []BlockID
	for id := range g.blocks {
		if indeg[id] == 0 {
			ready = append(ready, BlockID(id))
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	order := make([]BlockID, 0, len(g.blocks))
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		for _, s := range g.succ[n] {
			indeg[s]--
			if indeg[s] == 0 {
				// Insert keeping ready sorted for determinism.
				i := sort.Search(len(ready), func(i int) bool { return ready[i] >= s })
				ready = append(ready, 0)
				copy(ready[i+1:], ready[i:])
				ready[i] = s
			}
		}
	}
	if len(order) != len(g.blocks) {
		return nil, errors.New("cfg: graph contains a cycle")
	}
	return order, nil
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		blocks:     append([]Block(nil), g.blocks...),
		succ:       make([][]BlockID, len(g.succ)),
		pred:       make([][]BlockID, len(g.pred)),
		entry:      g.entry,
		LoopBounds: make(map[BlockID]Bound, len(g.LoopBounds)),
	}
	for i := range g.succ {
		c.succ[i] = append([]BlockID(nil), g.succ[i]...)
		c.pred[i] = append([]BlockID(nil), g.pred[i]...)
	}
	for k, v := range g.LoopBounds {
		c.LoopBounds[k] = v
	}
	return c
}
