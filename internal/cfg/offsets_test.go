package cfg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestFigure1Offsets checks that the offset analysis reproduces every value
// printed in Figure 1 of the paper.
func TestFigure1Offsets(t *testing.T) {
	g := Figure1()
	o, err := g.AnalyzeOffsets()
	if err != nil {
		t.Fatal(err)
	}
	want := Figure1Offsets()
	for id, w := range want {
		if o.SMin[id] != w[0] || o.SMax[id] != w[1] {
			t.Errorf("block %d: offsets [%g,%g], want [%g,%g]",
				id, o.SMin[id], o.SMax[id], w[0], w[1])
		}
	}
	if o.BCET != 80 {
		t.Errorf("BCET = %g, want 80", o.BCET)
	}
	if o.WCET != 205 {
		t.Errorf("WCET = %g, want 205", o.WCET)
	}
}

func TestAnalyzeOffsetsRejectsCycles(t *testing.T) {
	g := SimpleLoop(Bound{Min: 1, Max: 2})
	if _, err := g.AnalyzeOffsets(); err == nil {
		t.Fatal("AnalyzeOffsets accepted cyclic graph")
	}
}

func TestAnalyzeOffsetsRejectsInvalid(t *testing.T) {
	g := New()
	g.AddSimple("a", 5, 1)
	if _, err := g.AnalyzeOffsets(); err == nil {
		t.Fatal("AnalyzeOffsets accepted invalid graph")
	}
}

func TestOffsetsChain(t *testing.T) {
	g := New()
	a := g.AddSimple("a", 2, 4)
	b := g.AddSimple("b", 3, 5)
	c := g.AddSimple("c", 1, 1)
	g.MustEdge(a, b)
	g.MustEdge(b, c)
	o, err := g.AnalyzeOffsets()
	if err != nil {
		t.Fatal(err)
	}
	if o.SMin[b] != 2 || o.SMax[b] != 4 {
		t.Fatalf("b offsets [%g,%g], want [2,4]", o.SMin[b], o.SMax[b])
	}
	if o.SMin[c] != 5 || o.SMax[c] != 9 {
		t.Fatalf("c offsets [%g,%g], want [5,9]", o.SMin[c], o.SMax[c])
	}
	if o.BCET != 6 || o.WCET != 10 {
		t.Fatalf("BCET,WCET = %g,%g; want 6,10", o.BCET, o.WCET)
	}
}

func TestWindowUsesSMax(t *testing.T) {
	// A block that can start anywhere in [2,4] and run up to 5 units is
	// live until 9, not 7 as the paper's (typo'd) formula would give.
	g := New()
	a := g.AddSimple("a", 2, 4)
	b := g.AddSimple("b", 3, 5)
	g.MustEdge(a, b)
	o, err := g.AnalyzeOffsets()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := o.Window(b)
	if lo != 2 || hi != 9 {
		t.Fatalf("window = [%g,%g], want [2,9]", lo, hi)
	}
	if !o.Live(b, 8.5) {
		t.Fatal("block should be live at 8.5")
	}
	if o.Live(b, 9.5) {
		t.Fatal("block should not be live at 9.5")
	}
}

func TestBBNeverEmptyBeforeBCET(t *testing.T) {
	g := Figure1()
	o, err := g.AnalyzeOffsets()
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0, 10, 40, 79.9} {
		if len(o.BB(tt)) == 0 {
			t.Errorf("BB(%g) empty before BCET=%g", tt, o.BCET)
		}
	}
}

func TestBBEntryOnly(t *testing.T) {
	g := Figure1()
	o, _ := g.AnalyzeOffsets()
	bb := o.BB(5)
	// At t=5 only block 0 can be running (blocks 1,2 start at >= 15).
	if len(bb) != 1 || bb[0] != 0 {
		t.Fatalf("BB(5) = %v, want [0]", bb)
	}
}

func TestBoundariesSortedDistinct(t *testing.T) {
	g := Figure1()
	o, _ := g.AnalyzeOffsets()
	bs := o.Boundaries()
	for i := 1; i < len(bs); i++ {
		if bs[i-1] >= bs[i] {
			t.Fatalf("boundaries not strictly increasing: %v", bs)
		}
	}
	if bs[0] != 0 {
		t.Fatalf("first boundary = %g, want 0", bs[0])
	}
}

func TestOffsetsTableRendering(t *testing.T) {
	g := Figure1()
	o, _ := g.AnalyzeOffsets()
	tbl := o.Table()
	for _, want := range []string{"block", "smin", "WCET=205", "BCET=80"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}

// randomDAG builds a random layered DAG with n blocks; every block has at
// least one predecessor in an earlier layer, so the graph is connected.
func randomDAG(r *rand.Rand, n int) *Graph {
	g := New()
	ids := make([]BlockID, n)
	for i := 0; i < n; i++ {
		emin := float64(r.Intn(20) + 1)
		emax := emin + float64(r.Intn(20))
		ids[i] = g.AddSimple("", emin, emax)
	}
	for i := 1; i < n; i++ {
		// Connect to 1..3 random earlier blocks.
		k := r.Intn(3) + 1
		for j := 0; j < k; j++ {
			g.MustEdge(ids[r.Intn(i)], ids[i])
		}
	}
	return g
}

// Property: on any random DAG, smin <= smax for all blocks, entry is [0,0],
// and offsets are monotone along edges: smin_b >= smin_a + emin_a for a->b.
func TestOffsetsInvariantsRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := r.Intn(30) + 2
		g := randomDAG(r, n)
		o, err := g.AnalyzeOffsets()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if o.SMin[g.entry] != 0 || o.SMax[g.entry] != 0 {
			t.Fatalf("trial %d: entry offsets not [0,0]", trial)
		}
		for id := 0; id < g.Len(); id++ {
			if o.SMin[id] > o.SMax[id] {
				t.Fatalf("trial %d: block %d smin %g > smax %g", trial, id, o.SMin[id], o.SMax[id])
			}
			for _, s := range g.Succs(BlockID(id)) {
				blk := g.Block(BlockID(id))
				if o.SMin[s] > o.SMin[id]+blk.EMin+1e-9 {
					t.Fatalf("trial %d: smin not minimal along edge %d->%d", trial, id, s)
				}
				if o.SMax[s] < o.SMax[id]+blk.EMax-1e-9 {
					t.Fatalf("trial %d: smax not maximal along edge %d->%d", trial, id, s)
				}
			}
		}
		if o.BCET > o.WCET {
			t.Fatalf("trial %d: BCET %g > WCET %g", trial, o.BCET, o.WCET)
		}
	}
}

// Property (quick): in a chain of k identical blocks with interval [e,e],
// block i starts exactly at i*e and BCET == WCET == k*e.
func TestOffsetsDeterministicChain(t *testing.T) {
	f := func(k8, e8 uint8) bool {
		k := int(k8%10) + 1
		e := float64(e8%50) + 1
		g := New()
		var prev BlockID = NoBlock
		for i := 0; i < k; i++ {
			id := g.AddSimple("", e, e)
			if prev != NoBlock {
				g.MustEdge(prev, id)
			}
			prev = id
		}
		o, err := g.AnalyzeOffsets()
		if err != nil {
			return false
		}
		for i := 0; i < k; i++ {
			if o.SMin[i] != float64(i)*e || o.SMax[i] != float64(i)*e {
				return false
			}
		}
		return o.BCET == float64(k)*e && o.WCET == o.BCET
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: BB(t) returned blocks are exactly those whose window contains t.
func TestBBConsistentWithWindows(t *testing.T) {
	g := Figure1()
	o, _ := g.AnalyzeOffsets()
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		tt := r.Float64() * (o.WCET + 10)
		bb := o.BB(tt)
		inBB := map[BlockID]bool{}
		for _, b := range bb {
			inBB[b] = true
		}
		for id := 0; id < g.Len(); id++ {
			lo, hi := o.Window(BlockID(id))
			want := tt >= lo && tt <= hi
			if inBB[BlockID(id)] != want {
				t.Fatalf("BB(%g) inconsistent for block %d", tt, id)
			}
		}
	}
}

func TestWindowBoundsFinite(t *testing.T) {
	g := Figure1()
	o, _ := g.AnalyzeOffsets()
	for id := 0; id < g.Len(); id++ {
		lo, hi := o.Window(BlockID(id))
		if math.IsInf(lo, 0) || math.IsInf(hi, 0) || lo > hi {
			t.Fatalf("block %d window [%g,%g] invalid", id, lo, hi)
		}
	}
}

// enumeratePaths lists every entry-to-exit path of an acyclic graph by block
// ID, up to maxPaths: the path-enumeration oracle of AnalyzeOffsets' BCET
// and WCET, usable on small graphs only.
func enumeratePaths(g *Graph, maxPaths int) ([][]BlockID, error) {
	if !g.IsAcyclic() {
		return nil, errors.New("path enumeration requires an acyclic graph")
	}
	var out [][]BlockID
	var cur []BlockID
	var walk func(BlockID) error
	walk = func(b BlockID) error {
		cur = append(cur, b)
		defer func() { cur = cur[:len(cur)-1] }()
		if len(g.Succs(b)) == 0 {
			if len(out) >= maxPaths {
				return fmt.Errorf("more than %d paths", maxPaths)
			}
			out = append(out, append([]BlockID(nil), cur...))
			return nil
		}
		for _, s := range g.Succs(b) {
			if err := walk(s); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(g.entry); err != nil {
		return nil, err
	}
	return out, nil
}

// pathTime is the [min, max] execution time of one path: the sum of its
// blocks' intervals.
func pathTime(g *Graph, p []BlockID) (lo, hi float64) {
	for _, b := range p {
		lo += g.Block(b).EMin
		hi += g.Block(b).EMax
	}
	return lo, hi
}

// exhaustiveBounds is [BCET, WCET] over every path enumeratePaths lists.
func exhaustiveBounds(g *Graph) (bcet, wcet float64, err error) {
	paths, err := enumeratePaths(g, 1<<20)
	if err != nil {
		return 0, 0, err
	}
	bcet, wcet = math.Inf(1), math.Inf(-1)
	for _, p := range paths {
		lo, hi := pathTime(g, p)
		bcet, wcet = math.Min(bcet, lo), math.Max(wcet, hi)
	}
	return bcet, wcet, nil
}

func TestEnumeratePathsDiamond(t *testing.T) {
	g := diamond([2]float64{1, 1}, [2]float64{2, 3}, [2]float64{4, 5}, [2]float64{1, 1})
	paths, err := enumeratePaths(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(paths))
	}
	for _, p := range paths {
		if len(p) != 3 {
			t.Fatalf("path length %d, want 3", len(p))
		}
	}
}

func TestEnumeratePathsRejectsCycles(t *testing.T) {
	if _, err := enumeratePaths(SimpleLoop(Bound{Min: 1, Max: 2}), 1<<20); err == nil {
		t.Fatal("accepted cyclic graph")
	}
}

func TestPathTime(t *testing.T) {
	g := diamond([2]float64{1, 1}, [2]float64{2, 3}, [2]float64{4, 5}, [2]float64{1, 1})
	lo, hi := pathTime(g, []BlockID{0, 1, 3})
	if lo != 4 || hi != 5 {
		t.Fatalf("path time = [%g,%g], want [4,5]", lo, hi)
	}
}

func TestExhaustiveBoundsDiamond(t *testing.T) {
	g := diamond([2]float64{1, 1}, [2]float64{2, 3}, [2]float64{4, 5}, [2]float64{1, 1})
	bcet, wcet, err := exhaustiveBounds(g)
	if err != nil {
		t.Fatal(err)
	}
	if bcet != 4 || wcet != 7 {
		t.Fatalf("bounds = [%g,%g], want [4,7]", bcet, wcet)
	}
}

// Property: on random DAGs, the interval analysis agrees exactly with
// exhaustive path enumeration.
func TestAnalysisMatchesExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(10)
		g := New()
		ids := make([]BlockID, n)
		for i := 0; i < n; i++ {
			emin := float64(r.Intn(10) + 1)
			ids[i] = g.AddSimple("", emin, emin+float64(r.Intn(10)))
		}
		for i := 1; i < n; i++ {
			k := 1 + r.Intn(2)
			for j := 0; j < k; j++ {
				g.MustEdge(ids[r.Intn(i)], ids[i])
			}
		}
		o, err := g.AnalyzeOffsets()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		bcet, wcet, err := exhaustiveBounds(g)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if o.BCET != bcet || o.WCET != wcet {
			t.Fatalf("trial %d: analysis [%g,%g] != exhaustive [%g,%g]",
				trial, o.BCET, o.WCET, bcet, wcet)
		}
	}
}
