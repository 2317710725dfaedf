package cache

import (
	"math/rand"
	"testing"

	"fnpr/internal/cfg"
)

// lineChain builds a 3-block chain a -> b -> c with the given accesses.
func lineChain(a, b, c []Line) (*cfg.Graph, AccessMap) {
	g := cfg.New()
	ba := g.AddSimple("a", 1, 1)
	bb := g.AddSimple("b", 1, 1)
	bc := g.AddSimple("c", 1, 1)
	g.MustEdge(ba, bb)
	g.MustEdge(bb, bc)
	return g, AccessMap{ba: a, bb: b, bc: c}
}

func TestUCBChain(t *testing.T) {
	// a loads {0,1}; b computes on nothing; c reuses {1}.
	g, acc := lineChain([]Line{0, 1}, nil, []Line{1})
	res, err := AnalyzeUCB(g, acc, Config{Sets: 8, Assoc: 2, LineBytes: 16, ReloadCost: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Inside b, line 1 is cached and reused later: UCB_b = {1}.
	if ucb := res.UCB[1]; ucb.Len() != 1 || !ucb.Has(1) {
		t.Fatalf("UCB[b] = %v, want {1}", ucb)
	}
	// Inside c, line 1 is both reachable and used in c itself.
	if ucb := res.UCB[2]; !ucb.Has(1) {
		t.Fatalf("UCB[c] = %v, want to contain 1", ucb)
	}
	// CRPD of b = 1 line × reload 10.
	if crpd := res.CRPD(1); crpd != 10 {
		t.Fatalf("CRPD[b] = %g, want 10", crpd)
	}
}

func TestUCBNoReuseNoUCB(t *testing.T) {
	// Lines loaded in a are never reused: only a's own trailing uses count.
	g, acc := lineChain([]Line{0, 1}, []Line{2}, []Line{3})
	res, err := AnalyzeUCB(g, acc, Config{Sets: 8, Assoc: 2, LineBytes: 16, ReloadCost: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ucb := res.UCB[1]; ucb.Len() != 1 || !ucb.Has(2) {
		// At entry of b, line 2 is live (used in b) but not yet
		// reached; ReachOut(b) includes it, so the conservative
		// per-block bound counts it.
		t.Fatalf("UCB[b] = %v, want {2}", ucb)
	}
}

func TestUCBBranchBothArms(t *testing.T) {
	// Diamond: top loads {0,1}; left reuses 0; right reuses 1; bottom
	// reuses both. UCB at top's exit must include both.
	g := cfg.New()
	top := g.AddSimple("top", 1, 1)
	left := g.AddSimple("left", 1, 1)
	right := g.AddSimple("right", 1, 1)
	bottom := g.AddSimple("bottom", 1, 1)
	g.MustEdge(top, left)
	g.MustEdge(top, right)
	g.MustEdge(left, bottom)
	g.MustEdge(right, bottom)
	acc := AccessMap{top: {0, 1}, left: {0}, right: {1}, bottom: {0, 1}}
	res, err := AnalyzeUCB(g, acc, Config{Sets: 8, Assoc: 2, LineBytes: 16, ReloadCost: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ucb := res.UCB[top]; !ucb.Has(0) || !ucb.Has(1) {
		t.Fatalf("UCB[top] = %v, want {0,1}", ucb)
	}
}

func TestUCBRequiresAcyclic(t *testing.T) {
	g := cfg.SimpleLoop(cfg.Bound{Min: 1, Max: 2})
	if _, err := AnalyzeUCB(g, AccessMap{}, validCfg()); err == nil {
		t.Fatal("AnalyzeUCB accepted cyclic graph")
	}
}

func TestUCBRejectsBadConfig(t *testing.T) {
	g, acc := lineChain(nil, nil, nil)
	if _, err := AnalyzeUCB(g, acc, Config{Sets: 3, Assoc: 1, LineBytes: 16}); err == nil {
		t.Fatal("AnalyzeUCB accepted invalid cache config")
	}
	if _, err := AnalyzeUCB(nil, acc, validCfg()); err == nil {
		t.Fatal("AnalyzeUCB accepted nil graph")
	}
}

func TestCRPDCappedByAssociativity(t *testing.T) {
	// 4 lines mapping to the same set of a 2-way cache: at most 2 can be
	// resident, so CRPD counts at most 2 reloads.
	cc := Config{Sets: 4, Assoc: 2, LineBytes: 16, ReloadCost: 5}
	g, acc := lineChain([]Line{0, 4, 8, 12}, nil, []Line{0, 4, 8, 12})
	res, err := AnalyzeUCB(g, acc, cc)
	if err != nil {
		t.Fatal(err)
	}
	if crpd := res.CRPD(1); crpd != 10 { // 2 lines × 5
		t.Fatalf("CRPD[b] = %g, want 10", crpd)
	}
}

func TestCRPDAgainstUntouchedSets(t *testing.T) {
	cc := Config{Sets: 4, Assoc: 1, LineBytes: 16, ReloadCost: 1}
	// Victim's useful lines in sets 0 and 1.
	g, acc := lineChain([]Line{0, 1}, nil, []Line{0, 1})
	res, err := AnalyzeUCB(g, acc, cc)
	if err != nil {
		t.Fatal(err)
	}
	// Preempter touches only set 0 (line 4 -> set 0).
	ecb := NewLineSet(4)
	if got := res.CRPDAgainst(1, ecb); got != 1 {
		t.Fatalf("CRPDAgainst = %g, want 1", got)
	}
	// Preempter touches nothing: no damage.
	if got := res.CRPDAgainst(1, NewLineSet()); got != 0 {
		t.Fatalf("CRPDAgainst(empty) = %g, want 0", got)
	}
	// CRPDAgainst never exceeds plain CRPD.
	if res.CRPDAgainst(1, NewLineSet(0, 1, 2, 3)) > res.CRPD(1) {
		t.Fatal("CRPDAgainst exceeds CRPD")
	}
}

func TestECBHelpers(t *testing.T) {
	acc := AccessMap{0: {1, 2}, 1: {2, 3}}
	ecb := ECB(acc)
	if ecb.Len() != 3 {
		t.Fatalf("ECB = %v, want 3 lines", ecb)
	}
}

// Validation: the static per-block CRPD bound dominates the extra misses a
// concrete LRU simulation observes for a preemption inside that block, on
// randomized straight-line programs.
func TestStaticCRPDBoundsSimulatedDamage(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	cc := Config{Sets: 4, Assoc: 2, LineBytes: 16, ReloadCost: 1}
	for trial := 0; trial < 60; trial++ {
		// Random straight-line program of 4..8 blocks over 12 lines.
		nBlocks := 4 + r.Intn(5)
		g := cfg.New()
		acc := make(AccessMap)
		var prev cfg.BlockID = cfg.NoBlock
		var ids []cfg.BlockID
		for i := 0; i < nBlocks; i++ {
			id := g.AddSimple("", 1, 1)
			na := r.Intn(6)
			tr := make([]Line, na)
			for j := range tr {
				tr[j] = Line(r.Intn(12))
			}
			acc[id] = tr
			if prev != cfg.NoBlock {
				g.MustEdge(prev, id)
			}
			prev = id
			ids = append(ids, id)
		}
		res, err := AnalyzeUCB(g, acc, cc)
		if err != nil {
			t.Fatal(err)
		}

		// Preempt at each block boundary and compare observed extra
		// misses with the static bound for the block being entered.
		full := func(from int, sim *Sim) uint64 {
			var m uint64
			for _, id := range ids[from:] {
				m += sim.AccessAll(acc[id])
			}
			return m
		}
		for cut := 1; cut < nBlocks; cut++ {
			base, _ := NewSim(cc)
			for _, id := range ids[:cut] {
				base.AccessAll(acc[id])
			}
			pre := base.snapshot()
			baseTail := full(cut, base)

			// Preempter trashes the whole cache.
			trash := make([]Line, 0, 2*cc.Sets*cc.Assoc)
			for i := 0; i < 2*cc.Sets*cc.Assoc; i++ {
				trash = append(trash, Line(1000+i))
			}
			pre.AccessAll(trash)
			preTail := full(cut, pre)

			extra := (int64(preTail) - int64(baseTail)) * int64(cc.ReloadCost)
			bound := res.CRPD(ids[cut])
			if float64(extra) > bound+1e-9 {
				t.Fatalf("trial %d cut %d: observed damage %d exceeds static bound %g",
					trial, cut, extra, bound)
			}
		}
	}
}
