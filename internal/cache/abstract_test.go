package cache

import (
	"math/rand"
	"testing"

	"fnpr/internal/cfg"
)

func abstractCfg() Config {
	return Config{Sets: 4, Assoc: 2, LineBytes: 16, ReloadCost: 1}
}

func TestAbstractStateMustUpdate(t *testing.T) {
	s := NewAbstractState(abstractCfg())
	s.accessMust(0) // set 0
	if a, ok := s.Age(0); !ok || a != 0 {
		t.Fatalf("age(0) = %d,%v; want 0,true", a, ok)
	}
	s.accessMust(4) // set 0: line 0 ages to 1
	if a, _ := s.Age(0); a != 1 {
		t.Fatalf("age(0) = %d, want 1", a)
	}
	s.accessMust(8) // set 0: line 0 falls out (age 2 = assoc)
	if _, ok := s.Age(0); ok {
		t.Fatal("line 0 should have aged out of the must state")
	}
	// Re-access keeps the youngest age and does not age older lines in
	// other sets.
	s.accessMust(1) // set 1, unaffected by set 0 traffic
	if a, _ := s.Age(1); a != 0 {
		t.Fatalf("age(1) = %d, want 0", a)
	}
	if a, _ := s.Age(4); a != 1 {
		t.Fatalf("cross-set aging leaked: age(4) = %d, want 1", a)
	}
}

func TestAbstractMustRefreshOnHit(t *testing.T) {
	s := NewAbstractState(abstractCfg())
	s.accessMust(0)
	s.accessMust(4) // 0 ages to 1
	s.accessMust(0) // refresh: 0 back to age 0, 4 stays (age >= old age of 0)
	if a, _ := s.Age(0); a != 0 {
		t.Fatalf("age(0) = %d, want 0 after refresh", a)
	}
	if a, _ := s.Age(4); a != 1 {
		t.Fatalf("age(4) = %d, want 1 (older than refreshed line's old age)", a)
	}
}

func TestJoinMustIntersectsWithWorstAge(t *testing.T) {
	a := NewAbstractState(abstractCfg())
	b := NewAbstractState(abstractCfg())
	a.accessMust(0)
	a.accessMust(4) // a: 0@1, 4@0
	b.accessMust(0) // b: 0@0
	j := joinMust(a, b)
	if age, ok := j.Age(0); !ok || age != 1 {
		t.Fatalf("join age(0) = %d,%v; want 1,true (max of 1 and 0)", age, ok)
	}
	if _, ok := j.Age(4); ok {
		t.Fatal("line 4 only cached on one path; must-join must drop it")
	}
}

func TestJoinMayUnionsWithBestAge(t *testing.T) {
	a := NewAbstractState(abstractCfg())
	b := NewAbstractState(abstractCfg())
	a.accessMay(0)
	a.accessMay(4) // a: 0@1, 4@0
	b.accessMay(0) // b: 0@0
	j := joinMay(a, b)
	if age, ok := j.Age(0); !ok || age != 0 {
		t.Fatalf("join age(0) = %d,%v; want 0,true (min of 1 and 0)", age, ok)
	}
	if age, ok := j.Age(4); !ok || age != 0 {
		t.Fatalf("join age(4) = %d,%v; want 0,true (union)", age, ok)
	}
}

func TestAnalyzeAbstractClassification(t *testing.T) {
	// chain: a accesses {0}, b accesses {0, 8} (0 hits: still age 0 at b
	// entry; 8 is a cold first access in a DAG -> may state has no 8 at
	// entry -> always-miss), c accesses {0} (hit: 0 aged by 8? 8 maps to
	// set 0 of a 4-set cache, so 0 ages to 1 < assoc -> still must-cached).
	g := cfg.New()
	ba := g.AddSimple("a", 1, 1)
	bb := g.AddSimple("b", 1, 1)
	bc := g.AddSimple("c", 1, 1)
	g.MustEdge(ba, bb)
	g.MustEdge(bb, bc)
	acc := AccessMap{ba: {0}, bb: {0, 8}, bc: {0}}
	res, err := AnalyzeAbstract(g, acc, abstractCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Class[ba][0] != AlwaysMiss {
		t.Fatalf("a[0] = %v, want always-miss (cold)", res.Class[ba][0])
	}
	if res.Class[bb][0] != AlwaysHit {
		t.Fatalf("b[0] = %v, want always-hit", res.Class[bb][0])
	}
	if res.Class[bb][1] != AlwaysMiss {
		t.Fatalf("b[8] = %v, want always-miss (cold)", res.Class[bb][1])
	}
	if res.Class[bc][0] != AlwaysHit {
		t.Fatalf("c[0] = %v, want always-hit", res.Class[bc][0])
	}
}

func TestAnalyzeAbstractBranchKillsMust(t *testing.T) {
	// Diamond: only the left arm loads line 0; at the join the must
	// state drops it (NotClassified at bottom), but the may state keeps
	// it (not always-miss either).
	g := cfg.New()
	top := g.AddSimple("top", 1, 1)
	l := g.AddSimple("l", 1, 1)
	rr := g.AddSimple("r", 1, 1)
	bot := g.AddSimple("bot", 1, 1)
	g.MustEdge(top, l)
	g.MustEdge(top, rr)
	g.MustEdge(l, bot)
	g.MustEdge(rr, bot)
	acc := AccessMap{l: {0}, bot: {0}}
	res, err := AnalyzeAbstract(g, acc, abstractCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Class[bot][0] != NotClassified {
		t.Fatalf("bot[0] = %v, want not-classified", res.Class[bot][0])
	}
}

func TestAnalyzeAbstractValidation(t *testing.T) {
	if _, err := AnalyzeAbstract(nil, nil, abstractCfg()); err == nil {
		t.Fatal("accepted nil graph")
	}
	g := cfg.SimpleLoop(cfg.Bound{Min: 1, Max: 2})
	if _, err := AnalyzeAbstract(g, nil, abstractCfg()); err == nil {
		t.Fatal("accepted cyclic graph")
	}
	g2 := cfg.New()
	g2.AddSimple("a", 1, 1)
	if _, err := AnalyzeAbstract(g2, nil, Config{Sets: 3, Assoc: 1, LineBytes: 16}); err == nil {
		t.Fatal("accepted bad cache config")
	}
}

func TestGuaranteedAndPossiblyCached(t *testing.T) {
	g := cfg.New()
	a := g.AddSimple("a", 1, 1)
	b := g.AddSimple("b", 1, 1)
	g.MustEdge(a, b)
	acc := AccessMap{a: {0, 1}}
	res, err := AnalyzeAbstract(g, acc, abstractCfg())
	if err != nil {
		t.Fatal(err)
	}
	must, may := res.MustIn[b], res.MayIn[b]
	for _, l := range []Line{0, 1} {
		if _, ok := must.Age(l); !ok {
			t.Fatalf("line %d not guaranteed at b: %v", l, must.age)
		}
		if _, ok := may.Age(l); !ok {
			t.Fatalf("line %d not possibly cached at b: %v", l, may.age)
		}
	}
	if len(may.age) != 2 {
		t.Fatalf("possibly cached at b = %v, want {0,1}", may.age)
	}
	if len(res.MustIn[a].age) != 0 {
		t.Fatal("entry must state should be empty (cold cache)")
	}
}

// Soundness: on random straight-line programs, every always-hit access
// concretely hits and every always-miss concretely misses, replaying the
// trace on the concrete LRU simulator.
func TestAbstractSoundAgainstConcrete(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	cc := abstractCfg()
	for trial := 0; trial < 80; trial++ {
		nBlocks := 2 + r.Intn(6)
		g := cfg.New()
		acc := make(AccessMap)
		var prev cfg.BlockID = cfg.NoBlock
		var ids []cfg.BlockID
		for i := 0; i < nBlocks; i++ {
			id := g.AddSimple("", 1, 1)
			na := r.Intn(5)
			tr := make([]Line, na)
			for j := range tr {
				tr[j] = Line(r.Intn(10))
			}
			acc[id] = tr
			if prev != cfg.NoBlock {
				g.MustEdge(prev, id)
			}
			prev = id
			ids = append(ids, id)
		}
		res, err := AnalyzeAbstract(g, acc, cc)
		if err != nil {
			t.Fatal(err)
		}
		sim, _ := NewSim(cc)
		for _, id := range ids {
			for k, l := range acc[id] {
				hit := sim.Access(l)
				switch res.Class[id][k] {
				case AlwaysHit:
					if !hit {
						t.Fatalf("trial %d: always-hit access missed (block %d, acc %d, line %d)", trial, id, k, l)
					}
				case AlwaysMiss:
					if hit {
						t.Fatalf("trial %d: always-miss access hit (block %d, acc %d, line %d)", trial, id, k, l)
					}
				}
			}
		}
	}
}

// Soundness on branchy programs: the must state at a block entry is cached
// on EVERY concrete path; verify by replaying all paths of small DAGs.
func TestMustSoundOnAllPaths(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	cc := abstractCfg()
	for trial := 0; trial < 40; trial++ {
		// Diamond with random accesses.
		g := cfg.New()
		top := g.AddSimple("top", 1, 1)
		l := g.AddSimple("l", 1, 1)
		rb := g.AddSimple("r", 1, 1)
		bot := g.AddSimple("bot", 1, 1)
		g.MustEdge(top, l)
		g.MustEdge(top, rb)
		g.MustEdge(l, bot)
		g.MustEdge(rb, bot)
		acc := make(AccessMap)
		for _, id := range []cfg.BlockID{top, l, rb} {
			na := r.Intn(5)
			tr := make([]Line, na)
			for j := range tr {
				tr[j] = Line(r.Intn(8))
			}
			acc[id] = tr
		}
		res, err := AnalyzeAbstract(g, acc, cc)
		if err != nil {
			t.Fatal(err)
		}
		must := res.MustIn[bot].age
		for _, path := range [][]cfg.BlockID{{top, l}, {top, rb}} {
			sim, _ := NewSim(cc)
			for _, id := range path {
				sim.AccessAll(acc[id])
			}
			for line := range must {
				if !sim.contains(line) {
					t.Fatalf("trial %d: must line %d absent on path %v", trial, line, path)
				}
			}
		}
	}
}

func TestClassificationString(t *testing.T) {
	if AlwaysHit.String() != "always-hit" || AlwaysMiss.String() != "always-miss" ||
		NotClassified.String() != "not-classified" || Classification(9).String() == "" {
		t.Fatal("classification strings wrong")
	}
}
