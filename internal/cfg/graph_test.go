package cfg

import (
	"math"
	"strings"
	"testing"
)

// diamond builds the canonical 4-block if/else diamond with the given
// intervals.
func diamond(top, left, right, bottom [2]float64) *Graph {
	g := New()
	a := g.AddSimple("top", top[0], top[1])
	b := g.AddSimple("left", left[0], left[1])
	c := g.AddSimple("right", right[0], right[1])
	d := g.AddSimple("bottom", bottom[0], bottom[1])
	g.MustEdge(a, b)
	g.MustEdge(a, c)
	g.MustEdge(b, d)
	g.MustEdge(c, d)
	return g
}

func TestAddBlockAssignsIDsAndEntry(t *testing.T) {
	g := New()
	a := g.AddSimple("a", 1, 2)
	b := g.AddSimple("b", 3, 4)
	if a != 0 || b != 1 {
		t.Fatalf("IDs = %d, %d; want 0, 1", a, b)
	}
	if g.entry != a {
		t.Fatalf("entry = %d, want %d", g.entry, a)
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
}

func TestAddEdgeRejectsUnknownBlocks(t *testing.T) {
	g := New()
	a := g.AddSimple("a", 1, 2)
	if err := g.AddEdge(a, 99); err == nil {
		t.Fatal("AddEdge accepted unknown target")
	}
	if err := g.AddEdge(99, a); err == nil {
		t.Fatal("AddEdge accepted unknown source")
	}
}

func TestAddEdgeDeduplicates(t *testing.T) {
	g := New()
	a := g.AddSimple("a", 1, 2)
	b := g.AddSimple("b", 1, 2)
	g.MustEdge(a, b)
	g.MustEdge(a, b)
	if n := len(g.Succs(a)); n != 1 {
		t.Fatalf("duplicate edge stored: %d successors", n)
	}
	if n := len(g.Preds(b)); n != 1 {
		t.Fatalf("duplicate edge stored: %d predecessors", n)
	}
}

func TestSetEntry(t *testing.T) {
	g := New()
	g.AddSimple("a", 1, 2)
	b := g.AddSimple("b", 1, 2)
	if err := g.SetEntry(b); err != nil {
		t.Fatal(err)
	}
	if g.entry != b {
		t.Fatalf("entry = %d, want %d", g.entry, b)
	}
	if err := g.SetEntry(42); err == nil {
		t.Fatal("SetEntry accepted unknown block")
	}
}

func TestValidateEmptyGraph(t *testing.T) {
	if err := New().Validate(); err == nil {
		t.Fatal("Validate accepted empty graph")
	}
}

func TestValidateUnreachableBlock(t *testing.T) {
	g := New()
	g.AddSimple("a", 1, 2)
	g.AddSimple("orphan", 1, 2)
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("Validate = %v, want unreachable error", err)
	}
}

func TestValidateBadInterval(t *testing.T) {
	g := New()
	g.AddSimple("a", 5, 2) // emin > emax
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted emin > emax")
	}
	g2 := New()
	g2.AddSimple("a", -1, 2)
	if err := g2.Validate(); err == nil {
		t.Fatal("Validate accepted negative emin")
	}
}

func TestValidateNoExit(t *testing.T) {
	g := New()
	a := g.AddSimple("a", 1, 1)
	b := g.AddSimple("b", 1, 1)
	g.MustEdge(a, b)
	g.MustEdge(b, a)
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted graph with no exit")
	}
}

func TestExits(t *testing.T) {
	g := diamond([2]float64{1, 1}, [2]float64{1, 1}, [2]float64{1, 1}, [2]float64{1, 1})
	ex := g.Exits()
	if len(ex) != 1 || g.Block(ex[0]).Name != "bottom" {
		t.Fatalf("Exits = %v", ex)
	}
}

func TestTopoOrder(t *testing.T) {
	g := diamond([2]float64{1, 1}, [2]float64{1, 1}, [2]float64{1, 1}, [2]float64{1, 1})
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[BlockID]int{}
	for i, id := range order {
		pos[id] = i
	}
	for id := 0; id < g.Len(); id++ {
		for _, s := range g.Succs(BlockID(id)) {
			if pos[BlockID(id)] >= pos[s] {
				t.Fatalf("topo order violates edge %d->%d", id, s)
			}
		}
	}
}

func TestTopoOrderCycle(t *testing.T) {
	g := SimpleLoop(Bound{Min: 1, Max: 3})
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("TopoOrder accepted cyclic graph")
	}
	if g.IsAcyclic() {
		t.Fatal("IsAcyclic true for loop graph")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := SimpleLoop(Bound{Min: 0, Max: 2})
	c := g.Clone()
	c.blocks[0].EMin = 42
	c.MustEdge(0, 3)
	c.LoopBounds[1] = Bound{Min: 5, Max: 5}
	if g.Block(0).EMin == 42 {
		t.Fatal("Clone shares block storage")
	}
	if len(g.Succs(0)) == len(c.Succs(0)) {
		t.Fatal("Clone shares edge storage")
	}
	if g.LoopBounds[1].Min == 5 {
		t.Fatal("Clone shares LoopBounds")
	}
}

func TestBlockLabel(t *testing.T) {
	b := Block{ID: 3}
	if b.Label() != "b3" {
		t.Fatalf("Label = %q, want b3", b.Label())
	}
	b.Name = "head"
	if b.Label() != "head" {
		t.Fatalf("Label = %q, want head", b.Label())
	}
}

func TestDOTOutput(t *testing.T) {
	g := diamond([2]float64{1, 2}, [2]float64{1, 1}, [2]float64{1, 1}, [2]float64{1, 1})
	dot := g.DOT("diamond")
	for _, want := range []string{"digraph", "top", "bottom", "n0 -> n1"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestValidateRejectsNonFiniteIntervals(t *testing.T) {
	g := New()
	g.AddBlock(Block{Name: "a", EMin: 0, EMax: math.NaN()})
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted NaN EMax")
	}
	g2 := New()
	g2.AddBlock(Block{Name: "a", EMin: math.NaN(), EMax: 1})
	if err := g2.Validate(); err == nil {
		t.Fatal("Validate accepted NaN EMin")
	}
	g3 := New()
	g3.AddBlock(Block{Name: "a", EMin: 0, EMax: math.Inf(1)})
	if err := g3.Validate(); err == nil {
		t.Fatal("Validate accepted infinite EMax")
	}
}
