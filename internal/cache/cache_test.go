package cache

import (
	"testing"
	"testing/quick"
)

func validCfg() Config {
	return Config{Sets: 8, Assoc: 2, LineBytes: 16, ReloadCost: 10}
}

func TestConfigValidate(t *testing.T) {
	if err := validCfg().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Sets: 0, Assoc: 1, LineBytes: 16},
		{Sets: 3, Assoc: 1, LineBytes: 16},
		{Sets: 8, Assoc: 0, LineBytes: 16},
		{Sets: 8, Assoc: 1, LineBytes: 0},
		{Sets: 8, Assoc: 1, LineBytes: 24},
		{Sets: 8, Assoc: 1, LineBytes: 16, ReloadCost: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestSetOf(t *testing.T) {
	c := validCfg() // 8 sets
	if s := c.SetOf(Line(9)); s != 1 {
		t.Fatalf("SetOf(9) = %d, want 1", s)
	}
}

func TestLineSetOps(t *testing.T) {
	s := NewLineSet(1, 2, 3)
	if s.Len() != 3 || !s.Has(2) || s.Has(4) {
		t.Fatalf("basic set ops broken: %v", s)
	}
	u := NewLineSet(3, 4)
	if !s.Union(u) {
		t.Fatal("Union reported no change")
	}
	if s.Len() != 4 {
		t.Fatalf("union size = %d, want 4", s.Len())
	}
	if s.Union(NewLineSet(1)) {
		t.Fatal("Union reported change for subset")
	}
	i := s.Intersect(NewLineSet(2, 4, 99))
	if i.Len() != 2 || !i.Has(2) || !i.Has(4) {
		t.Fatalf("Intersect = %v", i)
	}
}

func TestPerSet(t *testing.T) {
	c := validCfg()              // 8 sets
	s := NewLineSet(0, 8, 16, 1) // lines 0,8,16 -> set 0; line 1 -> set 1
	per := s.PerSet(c)
	if per[0] != 3 || per[1] != 1 {
		t.Fatalf("PerSet = %v", per)
	}
}

// Property: Union is idempotent and monotone in size.
func TestLineSetUnionProperties(t *testing.T) {
	f := func(a, b []uint8) bool {
		sa, sb := make(LineSet), make(LineSet)
		for _, x := range a {
			sa.Add(Line(x))
		}
		for _, x := range b {
			sb.Add(Line(x))
		}
		na := sa.Len()
		sa.Union(sb)
		if sa.Len() < na || sa.Len() < sb.Len() {
			return false
		}
		n := sa.Len()
		sa.Union(sb) // idempotent
		return sa.Len() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: |Intersect(a,b)| <= min(|a|,|b|) and members belong to both.
func TestLineSetIntersectProperties(t *testing.T) {
	f := func(a, b []uint8) bool {
		sa, sb := make(LineSet), make(LineSet)
		for _, x := range a {
			sa.Add(Line(x))
		}
		for _, x := range b {
			sb.Add(Line(x))
		}
		i := sa.Intersect(sb)
		if i.Len() > sa.Len() || i.Len() > sb.Len() {
			return false
		}
		for l := range i {
			if !sa.Has(l) || !sb.Has(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
