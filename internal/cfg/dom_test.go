package cfg

import (
	"testing"
)

func TestDominatorsDiamond(t *testing.T) {
	g := diamond([2]float64{1, 1}, [2]float64{1, 1}, [2]float64{1, 1}, [2]float64{1, 1})
	idom := g.Dominators()
	// entry dominates itself; left/right dominated by top; bottom's idom is top.
	if idom[0] != 0 {
		t.Fatalf("idom[entry] = %d, want 0", idom[0])
	}
	if idom[1] != 0 || idom[2] != 0 {
		t.Fatalf("idom[left,right] = %d,%d; want 0,0", idom[1], idom[2])
	}
	if idom[3] != 0 {
		t.Fatalf("idom[bottom] = %d, want 0", idom[3])
	}
}

func TestDominatesRelation(t *testing.T) {
	g := New()
	a := g.AddSimple("a", 1, 1)
	b := g.AddSimple("b", 1, 1)
	c := g.AddSimple("c", 1, 1)
	g.MustEdge(a, b)
	g.MustEdge(b, c)
	idom := g.Dominators()
	if !Dominates(idom, a, c) {
		t.Fatal("a should dominate c in a chain")
	}
	if !Dominates(idom, b, c) {
		t.Fatal("b should dominate c in a chain")
	}
	if Dominates(idom, c, a) {
		t.Fatal("c should not dominate a")
	}
	if !Dominates(idom, b, b) {
		t.Fatal("every block dominates itself")
	}
}

func TestNaturalLoopsSimple(t *testing.T) {
	g := SimpleLoop(Bound{Min: 1, Max: 3})
	loops, ok := g.NaturalLoops()
	if !ok {
		t.Fatal("SimpleLoop reported irreducible")
	}
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
	l := loops[0]
	if g.Block(l.Header).Name != "header" {
		t.Fatalf("loop header = %s", g.Block(l.Header).Name)
	}
	if len(l.Body) != 2 {
		t.Fatalf("loop body = %v, want {header, body}", l.Body)
	}
	if !l.Contains(l.Header) {
		t.Fatal("loop body excludes its own header")
	}
	if l.Depth != 1 {
		t.Fatalf("depth = %d, want 1", l.Depth)
	}
}

// nestedLoops builds entry -> h1 -> h2 -> b2 -> h2 (inner), b2 -> t1 -> h1
// (outer), h1 -> exit.
func nestedLoops() (*Graph, BlockID, BlockID) {
	g := New()
	entry := g.AddSimple("entry", 1, 1)
	h1 := g.AddSimple("h1", 1, 1)
	h2 := g.AddSimple("h2", 1, 1)
	b2 := g.AddSimple("b2", 2, 3)
	t1 := g.AddSimple("t1", 1, 2)
	exit := g.AddSimple("exit", 1, 1)
	g.MustEdge(entry, h1)
	g.MustEdge(h1, h2)
	g.MustEdge(h2, b2)
	g.MustEdge(b2, h2) // inner back edge
	g.MustEdge(b2, t1)
	g.MustEdge(t1, h1) // outer back edge
	g.MustEdge(h1, exit)
	g.LoopBounds[h1] = Bound{Min: 1, Max: 4}
	g.LoopBounds[h2] = Bound{Min: 1, Max: 5}
	return g, h1, h2
}

func TestNaturalLoopsNested(t *testing.T) {
	g, h1, h2 := nestedLoops()
	loops, ok := g.NaturalLoops()
	if !ok {
		t.Fatal("nested loops reported irreducible")
	}
	if len(loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(loops))
	}
	// Innermost first.
	if loops[0].Header != h2 {
		t.Fatalf("innermost loop header = %v, want %v", loops[0].Header, h2)
	}
	if loops[0].Depth != 2 || loops[1].Depth != 1 {
		t.Fatalf("depths = %d,%d; want 2,1", loops[0].Depth, loops[1].Depth)
	}
	if loops[1].Header != h1 {
		t.Fatalf("outer loop header = %v, want %v", loops[1].Header, h1)
	}
	// Outer body contains inner body.
	for _, b := range loops[0].Body {
		if !loops[1].Contains(b) {
			t.Fatalf("outer loop body missing inner block %v", b)
		}
	}
}

func TestIrreducibleGraphDetected(t *testing.T) {
	// Classic irreducible region: entry branches into a cycle at two
	// points, so the cycle has no single dominating header.
	g := New()
	entry := g.AddSimple("entry", 1, 1)
	a := g.AddSimple("a", 1, 1)
	b := g.AddSimple("b", 1, 1)
	exit := g.AddSimple("exit", 1, 1)
	g.MustEdge(entry, a)
	g.MustEdge(entry, b)
	g.MustEdge(a, b)
	g.MustEdge(b, a)
	g.MustEdge(a, exit)
	if _, ok := g.NaturalLoops(); ok {
		t.Fatal("irreducible graph not detected")
	}
}

func TestAcyclicGraphHasNoLoops(t *testing.T) {
	g := Figure1()
	loops, ok := g.NaturalLoops()
	if !ok {
		t.Fatal("Figure 1 graph reported irreducible")
	}
	if len(loops) != 0 {
		t.Fatalf("Figure 1 graph has %d loops, want 0", len(loops))
	}
}

func TestCheckLoopBounds(t *testing.T) {
	g := SimpleLoop(Bound{Min: 1, Max: 3})
	if err := g.CheckLoopBounds(); err != nil {
		t.Fatalf("valid bounds rejected: %v", err)
	}
	delete(g.LoopBounds, 1)
	if err := g.CheckLoopBounds(); err == nil {
		t.Fatal("missing bound accepted")
	}
	g.LoopBounds[1] = Bound{Min: 3, Max: 1}
	if err := g.CheckLoopBounds(); err == nil {
		t.Fatal("inverted bound accepted")
	}
	g.LoopBounds[1] = Bound{Min: 0, Max: 0}
	if err := g.CheckLoopBounds(); err == nil {
		t.Fatal("Max=0 bound accepted")
	}
}

func TestSelfLoop(t *testing.T) {
	g := New()
	entry := g.AddSimple("entry", 1, 1)
	h := g.AddSimple("h", 2, 4)
	exit := g.AddSimple("exit", 1, 1)
	g.MustEdge(entry, h)
	g.MustEdge(h, h)
	g.MustEdge(h, exit)
	g.LoopBounds[h] = Bound{Min: 2, Max: 3}
	loops, ok := g.NaturalLoops()
	if !ok || len(loops) != 1 {
		t.Fatalf("self-loop detection: ok=%v loops=%v", ok, loops)
	}
	if len(loops[0].Body) != 1 || loops[0].Body[0] != h {
		t.Fatalf("self-loop body = %v, want [%v]", loops[0].Body, h)
	}
}
