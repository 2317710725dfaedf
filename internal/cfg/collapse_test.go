package cfg

import (
	"testing"
)

func TestCollapseSimpleLoop(t *testing.T) {
	g := SimpleLoop(Bound{Min: 1, Max: 3})
	col, err := g.CollapseLoops()
	if err != nil {
		t.Fatal(err)
	}
	if !col.Graph.IsAcyclic() {
		t.Fatal("collapsed graph still cyclic")
	}
	if col.Graph.Len() != 3 { // entry, loop node, exit
		t.Fatalf("collapsed graph has %d blocks, want 3", col.Graph.Len())
	}
	// One iteration: header [1,1] + body [3,5] => [4,6]; bound [1,3]
	// => loop node interval [4, 18].
	var loopNode BlockID = NoBlock
	for id := 0; id < col.Graph.Len(); id++ {
		if len(col.Origins[BlockID(id)]) > 1 {
			loopNode = BlockID(id)
		}
	}
	if loopNode == NoBlock {
		t.Fatal("no collapsed loop node found")
	}
	blk := col.Graph.Block(loopNode)
	if blk.EMin != 4 || blk.EMax != 18 {
		t.Fatalf("loop node interval [%g,%g], want [4,18]", blk.EMin, blk.EMax)
	}
	// Provenance covers header and body (original IDs 1 and 2).
	if len(col.Origins[loopNode]) != 2 {
		t.Fatalf("loop node origins = %v, want 2 blocks", col.Origins[loopNode])
	}
}

// collapseAndAnalyze is the task-level estimate: CollapseLoops, then
// AnalyzeOffsets on the loop-free result.
func collapseAndAnalyze(g *Graph) (*Offsets, error) {
	col, err := g.CollapseLoops()
	if err != nil {
		return nil, err
	}
	return col.Graph.AnalyzeOffsets()
}

func TestCollapseAnalyzeFigure1(t *testing.T) {
	o, err := collapseAndAnalyze(Figure1())
	if err != nil {
		t.Fatal(err)
	}
	if o.BCET != 80 || o.WCET != 205 {
		t.Fatalf("estimate = [%g,%g], want [80,205]", o.BCET, o.WCET)
	}
}

func TestCollapseAnalyzeWithLoop(t *testing.T) {
	o, err := collapseAndAnalyze(SimpleLoop(Bound{Min: 1, Max: 3}))
	if err != nil {
		t.Fatal(err)
	}
	// entry [1,2] + loop [4,18] + exit [2,2].
	if o.BCET != 7 || o.WCET != 22 {
		t.Fatalf("estimate = [%g,%g], want [7,22]", o.BCET, o.WCET)
	}
}

func TestCollapseAnalyzeIrreducible(t *testing.T) {
	g := New()
	e := g.AddSimple("e", 1, 1)
	a := g.AddSimple("a", 1, 1)
	b := g.AddSimple("b", 1, 1)
	x := g.AddSimple("x", 1, 1)
	g.MustEdge(e, a)
	g.MustEdge(e, b)
	g.MustEdge(a, b)
	g.MustEdge(b, a)
	g.MustEdge(a, x)
	if _, err := collapseAndAnalyze(g); err == nil {
		t.Fatal("accepted irreducible graph")
	}
}

func TestCollapseZeroMinIterations(t *testing.T) {
	g := SimpleLoop(Bound{Min: 0, Max: 2})
	col, err := g.CollapseLoops()
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < col.Graph.Len(); id++ {
		if len(col.Origins[BlockID(id)]) > 1 {
			blk := col.Graph.Block(BlockID(id))
			if blk.EMin != 0 || blk.EMax != 12 {
				t.Fatalf("loop node interval [%g,%g], want [0,12]", blk.EMin, blk.EMax)
			}
		}
	}
}

func TestCollapseNested(t *testing.T) {
	g, _, _ := nestedLoops()
	col, err := g.CollapseLoops()
	if err != nil {
		t.Fatal(err)
	}
	if !col.Graph.IsAcyclic() {
		t.Fatal("collapsed graph still cyclic")
	}
	// entry, outer-loop node, exit.
	if col.Graph.Len() != 3 {
		t.Fatalf("collapsed graph has %d blocks, want 3", col.Graph.Len())
	}
	off, err := col.Graph.AnalyzeOffsets()
	if err != nil {
		t.Fatal(err)
	}
	// Inner iteration: h2 [1,1] + b2 [2,3] => [3,4]; bound [1,5] => inner
	// node [3,20]. Outer iteration: h1 [1,1] + inner [3,20] + t1 [1,2]
	// => [5,23]; bound [1,4] => outer node [5,92].
	// Whole task: entry [1,1] + outer [5,92] + exit [1,1].
	if off.BCET != 7 {
		t.Errorf("BCET = %g, want 7", off.BCET)
	}
	if off.WCET != 94 {
		t.Errorf("WCET = %g, want 94", off.WCET)
	}
}

func TestCollapseMissingBound(t *testing.T) {
	g := SimpleLoop(Bound{Min: 1, Max: 2})
	delete(g.LoopBounds, 1)
	if _, err := g.CollapseLoops(); err == nil {
		t.Fatal("CollapseLoops accepted missing loop bound")
	}
}

func TestCollapseAcyclicIsIdentityShape(t *testing.T) {
	g := Figure1()
	col, err := g.CollapseLoops()
	if err != nil {
		t.Fatal(err)
	}
	if col.Graph.Len() != g.Len() {
		t.Fatalf("acyclic collapse changed block count: %d != %d", col.Graph.Len(), g.Len())
	}
	for id := 0; id < g.Len(); id++ {
		os := col.Origins[BlockID(id)]
		if len(os) != 1 || os[0] != BlockID(id) {
			t.Fatalf("acyclic collapse perturbed origins: %v", os)
		}
	}
}

func TestCollapseSelfLoop(t *testing.T) {
	g := New()
	entry := g.AddSimple("entry", 1, 1)
	h := g.AddSimple("h", 2, 4)
	exit := g.AddSimple("exit", 1, 1)
	g.MustEdge(entry, h)
	g.MustEdge(h, h)
	g.MustEdge(h, exit)
	g.LoopBounds[h] = Bound{Min: 2, Max: 3}
	col, err := g.CollapseLoops()
	if err != nil {
		t.Fatal(err)
	}
	off, err := col.Graph.AnalyzeOffsets()
	if err != nil {
		t.Fatal(err)
	}
	// entry [1,1] + self-loop 2..3 iterations of [2,4] + exit [1,1].
	if off.BCET != 6 || off.WCET != 14 {
		t.Fatalf("BCET,WCET = %g,%g; want 6,14", off.BCET, off.WCET)
	}
}

func TestProgramAnalyzeLeafFirst(t *testing.T) {
	// leaf: two blocks [1,2] + [3,4] => [4,6].
	leaf := New()
	a := leaf.AddSimple("a", 1, 2)
	b := leaf.AddSimple("b", 3, 4)
	leaf.MustEdge(a, b)

	// main: entry [1,1]; caller block [2,2] calling leaf; exit [1,1].
	main := New()
	e := main.AddSimple("entry", 1, 1)
	c := main.AddBlock(Block{Name: "call", EMin: 2, EMax: 2, Call: "leaf"})
	x := main.AddSimple("exit", 1, 1)
	main.MustEdge(e, c)
	main.MustEdge(c, x)

	p := NewProgram("main")
	if err := p.AddFunc("main", main); err != nil {
		t.Fatal(err)
	}
	if err := p.AddFunc("leaf", leaf); err != nil {
		t.Fatal(err)
	}
	res, err := p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if iv := res.Intervals["leaf"]; iv.BCET != 4 || iv.WCET != 6 {
		t.Fatalf("leaf interval = %+v, want {4 6}", iv)
	}
	// main: 1 + (2+4..2+6) + 1 => [8, 10].
	if iv := res.Intervals["main"]; iv.BCET != 8 || iv.WCET != 10 {
		t.Fatalf("main interval = %+v, want {8 10}", iv)
	}
	if res.Root == nil || res.RootCollapsed == nil {
		t.Fatal("root analysis missing")
	}
}

func TestProgramRejectsRecursion(t *testing.T) {
	f := New()
	f.AddBlock(Block{Name: "self", EMin: 1, EMax: 1, Call: "f"})
	p := NewProgram("f")
	if err := p.AddFunc("f", f); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Analyze(); err == nil {
		t.Fatal("Analyze accepted recursive program")
	}
}

func TestProgramRejectsUnknownCallee(t *testing.T) {
	f := New()
	f.AddBlock(Block{Name: "c", EMin: 1, EMax: 1, Call: "ghost"})
	p := NewProgram("f")
	if err := p.AddFunc("f", f); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Analyze(); err == nil {
		t.Fatal("Analyze accepted undefined callee")
	}
}

func TestProgramRejectsMissingRoot(t *testing.T) {
	p := NewProgram("nope")
	if _, err := p.Analyze(); err == nil {
		t.Fatal("Analyze accepted missing root")
	}
}

func TestProgramDuplicateFunc(t *testing.T) {
	p := NewProgram("f")
	g := New()
	g.AddSimple("a", 1, 1)
	if err := p.AddFunc("f", g); err != nil {
		t.Fatal(err)
	}
	if err := p.AddFunc("f", g); err == nil {
		t.Fatal("AddFunc accepted duplicate name")
	}
	if err := p.AddFunc("", g); err == nil {
		t.Fatal("AddFunc accepted empty name")
	}
}

func TestProgramCallInsideLoop(t *testing.T) {
	// Loop body calls a leaf function; interval must multiply through.
	leaf := New()
	leaf.AddSimple("work", 2, 3)

	main := New()
	entry := main.AddSimple("entry", 0, 0)
	h := main.AddSimple("h", 1, 1)
	body := main.AddBlock(Block{Name: "body", EMin: 1, EMax: 1, Call: "leaf"})
	exit := main.AddSimple("exit", 0, 0)
	main.MustEdge(entry, h)
	main.MustEdge(h, body)
	main.MustEdge(body, h)
	main.MustEdge(h, exit)
	main.LoopBounds[h] = Bound{Min: 2, Max: 2}

	p := NewProgram("main")
	p.AddFunc("main", main)
	p.AddFunc("leaf", leaf)
	res, err := p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	// Iteration: h [1,1] + body+leaf [3,4] => [4,5]; 2 iterations => [8,10].
	if iv := res.Intervals["main"]; iv.BCET != 8 || iv.WCET != 10 {
		t.Fatalf("main interval = %+v, want {8 10}", iv)
	}
}
