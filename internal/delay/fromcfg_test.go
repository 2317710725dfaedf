package delay

import (
	"math/rand"
	"testing"

	"fnpr/internal/cache"
	"fnpr/internal/cfg"
)

func TestFromCFGFigure1(t *testing.T) {
	g := cfg.Figure1()
	off, err := g.AnalyzeOffsets()
	if err != nil {
		t.Fatal(err)
	}
	// Give each block a distinct CRPD equal to its ID.
	crpd := make(map[cfg.BlockID]float64)
	for id := 0; id < g.Len(); id++ {
		crpd[cfg.BlockID(id)] = float64(id)
	}
	f, err := FromCFG(off, crpd)
	if err != nil {
		t.Fatal(err)
	}
	if f.Domain() != off.WCET {
		t.Fatalf("domain = %g, want WCET %g", f.Domain(), off.WCET)
	}
	// At t=5, only block 0 is live: f = 0.
	if v := f.Eval(5); v != 0 {
		t.Fatalf("f(5) = %g, want 0 (only entry live)", v)
	}
	// f(t) must equal max CRPD over BB(t) at any sampled point.
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		tt := r.Float64() * off.WCET
		var want float64
		for _, b := range off.BB(tt) {
			if crpd[b] > want {
				want = crpd[b]
			}
		}
		if got := f.Eval(tt); got != want {
			// Points exactly on window boundaries may differ by
			// piece convention; skip boundary hits.
			onBoundary := false
			for _, bp := range off.Boundaries() {
				if tt == bp {
					onBoundary = true
				}
			}
			if !onBoundary {
				t.Fatalf("f(%g) = %g, want %g (BB=%v)", tt, got, want, off.BB(tt))
			}
		}
	}
}

func TestFromCFGNegativeCRPD(t *testing.T) {
	g := cfg.Figure1()
	off, _ := g.AnalyzeOffsets()
	if _, err := FromCFG(off, map[cfg.BlockID]float64{0: -1}); err == nil {
		t.Fatal("FromCFG accepted negative CRPD")
	}
	if _, err := FromCFG(nil, nil); err == nil {
		t.Fatal("FromCFG accepted nil offsets")
	}
}

func TestFromCFGMissingCRPDDefaultsZero(t *testing.T) {
	g := cfg.Figure1()
	off, _ := g.AnalyzeOffsets()
	f, err := FromCFG(off, map[cfg.BlockID]float64{})
	if err != nil {
		t.Fatal(err)
	}
	if _, fm := f.Max(); fm != 0 {
		t.Fatalf("empty CRPD map should give zero function, max = %g", fm)
	}
}

// TestFromUCBPipeline exercises the whole Section IV pipeline: CFG with
// accesses -> UCB analysis -> offsets -> fi(t).
func TestFromUCBPipeline(t *testing.T) {
	// Three-block chain: load working set, compute, reuse a subset.
	g := cfg.New()
	load := g.AddSimple("load", 10, 10)
	compute := g.AddSimple("compute", 50, 60)
	reuse := g.AddSimple("reuse", 10, 15)
	g.MustEdge(load, compute)
	g.MustEdge(compute, reuse)

	cc := cache.Config{Sets: 8, Assoc: 2, LineBytes: 16, ReloadCost: 2}
	acc := cache.AccessMap{
		load:    {0, 1, 2, 3},
		compute: {},
		reuse:   {2, 3},
	}
	ucb, err := cache.AnalyzeUCB(g, acc, cc)
	if err != nil {
		t.Fatal(err)
	}
	off, err := g.AnalyzeOffsets()
	if err != nil {
		t.Fatal(err)
	}
	f, err := FromUCB(off, ucb)
	if err != nil {
		t.Fatal(err)
	}
	// During compute (say t=30), lines 2,3 are useful: delay = 2 lines x 2.
	if v := f.Eval(30); v != 4 {
		t.Fatalf("f(30) = %g, want 4", v)
	}
	// Domain is the WCET.
	if f.Domain() != 85 {
		t.Fatalf("domain = %g, want 85", f.Domain())
	}
}

func TestFromUCBAgainstReducesDelay(t *testing.T) {
	g := cfg.New()
	a := g.AddSimple("a", 10, 10)
	b := g.AddSimple("b", 10, 10)
	g.MustEdge(a, b)
	cc := cache.Config{Sets: 4, Assoc: 1, LineBytes: 16, ReloadCost: 1}
	acc := cache.AccessMap{a: {0, 1, 2, 3}, b: {0, 1, 2, 3}}
	ucb, _ := cache.AnalyzeUCB(g, acc, cc)
	off, _ := g.AnalyzeOffsets()

	full, _ := FromUCB(off, ucb)
	// Preempter touching only set 0.
	narrow, err := FromUCBAgainst(off, ucb, cache.NewLineSet(4))
	if err != nil {
		t.Fatal(err)
	}
	_, fullMax := full.Max()
	_, narrowMax := narrow.Max()
	if narrowMax >= fullMax {
		t.Fatalf("ECB-refined max %g not below UCB-only max %g", narrowMax, fullMax)
	}
	if narrowMax != 1 {
		t.Fatalf("narrow max = %g, want 1", narrowMax)
	}
}

func TestRemapAccessesConcatenates(t *testing.T) {
	g := cfg.SimpleLoop(cfg.Bound{Min: 1, Max: 3})
	col, err := g.CollapseLoops()
	if err != nil {
		t.Fatal(err)
	}
	orig := cache.AccessMap{
		1: {10, 11}, // header
		2: {12},     // body
	}
	m := cache.RemapAccesses(col, orig)
	for id := 0; id < col.Graph.Len(); id++ {
		if len(col.Origins[cfg.BlockID(id)]) > 1 {
			if got := len(m[cfg.BlockID(id)]); got != 3 {
				t.Fatalf("loop node trace has %d accesses, want 3", got)
			}
		}
	}
}
