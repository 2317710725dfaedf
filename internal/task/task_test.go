package task

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestDeadlineImplicit(t *testing.T) {
	tk := Task{Name: "a", C: 1, T: 10}
	if got := tk.Deadline(); got != 10 {
		t.Fatalf("implicit deadline = %v, want 10", got)
	}
	tk.D = 7
	if got := tk.Deadline(); got != 7 {
		t.Fatalf("explicit deadline = %v, want 7", got)
	}
}

func TestBestFallsBackToC(t *testing.T) {
	tk := Task{Name: "a", C: 5, T: 10}
	if got := tk.Best(); got != 5 {
		t.Fatalf("Best() = %v, want 5", got)
	}
	tk.BCET = 2
	if got := tk.Best(); got != 2 {
		t.Fatalf("Best() = %v, want 2", got)
	}
}

func TestUtilizationAndDensity(t *testing.T) {
	tk := Task{Name: "a", C: 2, T: 8, D: 4}
	if got := tk.Utilization(); got != 0.25 {
		t.Fatalf("utilization = %v, want 0.25", got)
	}
	if got := tk.Density(); got != 0.5 {
		t.Fatalf("density = %v, want 0.5", got)
	}
}

func TestUtilizationZeroPeriod(t *testing.T) {
	tk := Task{Name: "a", C: 2}
	if got := tk.Utilization(); !math.IsInf(got, 1) {
		t.Fatalf("utilization with T=0 = %v, want +Inf", got)
	}
	if got := tk.Density(); !math.IsInf(got, 1) {
		t.Fatalf("density with T=0 = %v, want +Inf", got)
	}
}

func TestValidateRejectsBadTasks(t *testing.T) {
	cases := []struct {
		name string
		tk   Task
	}{
		{"empty name", Task{C: 1, T: 2}},
		{"zero C", Task{Name: "x", C: 0, T: 2}},
		{"negative C", Task{Name: "x", C: -1, T: 2}},
		{"NaN C", Task{Name: "x", C: math.NaN(), T: 2}},
		{"inf C", Task{Name: "x", C: math.Inf(1), T: 2}},
		{"zero T", Task{Name: "x", C: 1, T: 0}},
		{"negative D", Task{Name: "x", C: 1, T: 2, D: -1}},
		{"negative Q", Task{Name: "x", C: 1, T: 2, Q: -0.5}},
		{"negative jitter", Task{Name: "x", C: 1, T: 2, Jitter: -1}},
		{"BCET above C", Task{Name: "x", C: 1, T: 2, BCET: 3}},
		{"C beyond deadline", Task{Name: "x", C: 3, T: 4, D: 2}},
	}
	for _, c := range cases {
		if err := c.tk.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid task %+v", c.name, c.tk)
		}
	}
}

func TestValidateAcceptsGoodTask(t *testing.T) {
	tk := Task{Name: "x", C: 1, BCET: 0.5, T: 4, D: 3, Q: 0.2, Jitter: 0.1}
	if err := tk.Validate(); err != nil {
		t.Fatalf("Validate rejected valid task: %v", err)
	}
}

func TestSetValidateDuplicateNames(t *testing.T) {
	s := Set{{Name: "a", C: 1, T: 4}, {Name: "a", C: 1, T: 5}}
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted duplicate names")
	}
}

func TestSetUtilization(t *testing.T) {
	s := Set{{Name: "a", C: 1, T: 4}, {Name: "b", C: 1, T: 2}}
	if got := s.Utilization(); got != 0.75 {
		t.Fatalf("set utilization = %v, want 0.75", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := Set{{Name: "a", C: 1, T: 4}}
	c := s.Clone()
	c[0].C = 99
	if s[0].C != 1 {
		t.Fatal("Clone shares backing array with original")
	}
}

func TestByName(t *testing.T) {
	s := Set{{Name: "a", C: 1, T: 4}, {Name: "b", C: 2, T: 8}}
	tk, ok := s.ByName("b")
	if !ok || tk.C != 2 {
		t.Fatalf("ByName(b) = %+v, %v", tk, ok)
	}
	if _, ok := s.ByName("zzz"); ok {
		t.Fatal("ByName found a nonexistent task")
	}
	if i := s.IndexByName("b"); i != 1 {
		t.Fatalf("IndexByName(b) = %d, want 1", i)
	}
	if i := s.IndexByName("zzz"); i != -1 {
		t.Fatalf("IndexByName(zzz) = %d, want -1", i)
	}
}

func TestAssignRateMonotonic(t *testing.T) {
	s := Set{
		{Name: "slow", C: 1, T: 100},
		{Name: "fast", C: 1, T: 5},
		{Name: "mid", C: 1, T: 20},
	}
	s.AssignRateMonotonic()
	want := []string{"fast", "mid", "slow"}
	for i, n := range want {
		if s[i].Name != n {
			t.Fatalf("RM order[%d] = %s, want %s", i, s[i].Name, n)
		}
		if s[i].Prio != i {
			t.Fatalf("RM prio[%d] = %d, want %d", i, s[i].Prio, i)
		}
	}
}

func TestAssignDeadlineMonotonic(t *testing.T) {
	s := Set{
		{Name: "a", C: 1, T: 100, D: 50},
		{Name: "b", C: 1, T: 100, D: 10},
		{Name: "c", C: 1, T: 100}, // implicit D=100
	}
	s.AssignDeadlineMonotonic()
	want := []string{"b", "a", "c"}
	for i, n := range want {
		if s[i].Name != n {
			t.Fatalf("DM order[%d] = %s, want %s", i, s[i].Name, n)
		}
	}
}

func TestSortByPriorityStableAndTieBreak(t *testing.T) {
	s := Set{
		{Name: "z", C: 1, T: 10, Prio: 1},
		{Name: "a", C: 1, T: 10, Prio: 1},
		{Name: "m", C: 1, T: 10, Prio: 0},
	}
	s.SortByPriority()
	want := []string{"m", "a", "z"}
	for i, n := range want {
		if s[i].Name != n {
			t.Fatalf("order[%d] = %s, want %s", i, s[i].Name, n)
		}
	}
}

func TestHigherLowerPriority(t *testing.T) {
	s := Set{
		{Name: "h", C: 1, T: 4, Prio: 0},
		{Name: "m", C: 1, T: 8, Prio: 1},
		{Name: "l", C: 1, T: 16, Prio: 2},
	}
	hp := s.HigherPriority(1)
	if len(hp) != 1 || hp[0].Name != "h" {
		t.Fatalf("HigherPriority(1) = %v", hp)
	}
	lp := s.LowerPriority(1)
	if len(lp) != 1 || lp[0].Name != "l" {
		t.Fatalf("LowerPriority(1) = %v", lp)
	}
	if got := s.HigherPriority(-1); got != nil {
		t.Fatalf("HigherPriority(-1) = %v, want nil", got)
	}
	if got := s.LowerPriority(5); got != nil {
		t.Fatalf("LowerPriority(5) = %v, want nil", got)
	}
}

func TestHyperperiod(t *testing.T) {
	s := Set{{Name: "a", C: 1, T: 4}, {Name: "b", C: 1, T: 6}, {Name: "c", C: 1, T: 10}}
	h, ok := s.Hyperperiod()
	if !ok || h != 60 {
		t.Fatalf("Hyperperiod = %v, %v; want 60, true", h, ok)
	}
}

func TestHyperperiodNonIntegral(t *testing.T) {
	s := Set{{Name: "a", C: 1, T: 4.5}}
	if _, ok := s.Hyperperiod(); ok {
		t.Fatal("Hyperperiod accepted non-integral period")
	}
}

func TestHyperperiodOverflow(t *testing.T) {
	s := Set{
		{Name: "a", C: 1, T: 1e9},
		{Name: "b", C: 1, T: 1e9 - 1},
		{Name: "c", C: 1, T: 1e9 - 3},
	}
	if _, ok := s.Hyperperiod(); ok {
		t.Fatal("Hyperperiod accepted overflowing LCM")
	}
}

func TestStringContainsNames(t *testing.T) {
	s := Set{{Name: "alpha", C: 1, T: 4}, {Name: "beta", C: 2, T: 8}}
	str := s.String()
	if !strings.Contains(str, "alpha") || !strings.Contains(str, "beta") {
		t.Fatalf("String() = %q does not mention all tasks", str)
	}
}

// Property: RM assignment always yields non-decreasing periods and priorities 0..n-1.
func TestRateMonotonicProperty(t *testing.T) {
	f := func(periods []uint16) bool {
		s := make(Set, 0, len(periods))
		for i, p := range periods {
			s = append(s, Task{Name: string(rune('a' + i%26)), C: 1, T: float64(p%1000) + 1})
		}
		s.AssignRateMonotonic()
		for i := 1; i < len(s); i++ {
			if s[i-1].T > s[i].T {
				return false
			}
			if s[i].Prio != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: utilization of a set equals the sum of member utilizations.
func TestSetUtilizationAdditive(t *testing.T) {
	f := func(cs, ts []uint8) bool {
		n := len(cs)
		if len(ts) < n {
			n = len(ts)
		}
		s := make(Set, 0, n)
		var want float64
		for i := 0; i < n; i++ {
			c := float64(cs[i]%50) + 1
			p := float64(ts[i]%100) + 51
			s = append(s, Task{Name: "t", C: c, T: p})
			want += c / p
		}
		return math.Abs(s.Utilization()-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleUtilization(t *testing.T) {
	s := Set{{Name: "a", C: 1, BCET: 0.5, T: 4}, {Name: "b", C: 2, T: 8}}
	scaled, err := s.ScaleUtilization(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(scaled.Utilization()-0.9) > 1e-12 {
		t.Fatalf("scaled utilization = %g, want 0.9", scaled.Utilization())
	}
	// BCET scales with C, original untouched.
	if scaled[0].BCET != 0.5*scaled[0].C/s[0].C*1 && scaled[0].BCET == s[0].BCET {
		t.Fatalf("BCET not scaled: %g", scaled[0].BCET)
	}
	if s.Utilization() == scaled.Utilization() {
		t.Fatal("original set mutated")
	}
	if _, err := s.ScaleUtilization(0); err == nil {
		t.Fatal("accepted target 0")
	}
	if _, err := (Set{}).ScaleUtilization(0.5); err == nil {
		t.Fatal("accepted empty set")
	}
}

// TestAssignRateMonotonicMatchesSliceStable: the rate-monotonic order is the
// one sort.SliceStable gave with the former less function, on sets with
// tied periods, repeated names (where only stability decides) and NaN
// periods.
func TestAssignRateMonotonicMatchesSliceStable(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		s := make(Set, r.Intn(40))
		for i := range s {
			s[i] = Task{Name: string(rune('a' + r.Intn(4))), C: float64(i), T: float64(1 + r.Intn(6))}
			if r.Intn(20) == 0 {
				s[i].T = math.NaN()
			}
		}
		want := s.Clone()
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].T != want[j].T {
				return want[i].T < want[j].T
			}
			return want[i].Name < want[j].Name
		})
		s.AssignRateMonotonic()
		for i := range s {
			if s[i].C != want[i].C || s[i].Prio != i {
				t.Fatalf("trial %d: position %d holds task %v (prio %d), oracle task %v", trial, i, s[i].C, s[i].Prio, want[i].C)
			}
		}
	}
}
