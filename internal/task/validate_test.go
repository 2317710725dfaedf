package task

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"fnpr/internal/guard"
)

// TestValidateRejectsNonFinite checks, field by field, that NaN and infinite
// parameters never pass validation and that every rejection wraps
// guard.ErrInvalidInput so callers can classify it.
func TestValidateRejectsNonFinite(t *testing.T) {
	valid := Task{Name: "t", C: 5, T: 100, D: 50, Q: 3, Jitter: 1, BCET: 2}
	if err := valid.Validate(); err != nil {
		t.Fatalf("baseline task rejected: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		mutate func(*Task)
	}{
		{"C-nan", func(tk *Task) { tk.C = nan }},
		{"C-inf", func(tk *Task) { tk.C = inf }},
		{"C-neg-inf", func(tk *Task) { tk.C = -inf }},
		{"C-zero", func(tk *Task) { tk.C = 0 }},
		{"T-nan", func(tk *Task) { tk.T = nan }},
		{"T-inf", func(tk *Task) { tk.T = inf }},
		{"T-neg-inf", func(tk *Task) { tk.T = -inf }},
		{"D-nan", func(tk *Task) { tk.D = nan }},
		{"D-inf", func(tk *Task) { tk.D = inf }},
		{"D-neg-inf", func(tk *Task) { tk.D = -inf }},
		{"Q-nan", func(tk *Task) { tk.Q = nan }},
		{"Q-inf", func(tk *Task) { tk.Q = inf }},
		{"Q-neg-inf", func(tk *Task) { tk.Q = -inf }},
		{"Jitter-nan", func(tk *Task) { tk.Jitter = nan }},
		{"Jitter-inf", func(tk *Task) { tk.Jitter = inf }},
		{"Jitter-neg-inf", func(tk *Task) { tk.Jitter = -inf }},
		{"BCET-nan", func(tk *Task) { tk.BCET = nan }},
		{"BCET-inf", func(tk *Task) { tk.BCET = inf }},
		{"BCET-neg-inf", func(tk *Task) { tk.BCET = -inf }},
		{"BCET-above-C", func(tk *Task) { tk.BCET = tk.C + 1 }},
		{"empty-name", func(tk *Task) { tk.Name = "" }},
		{"C-above-deadline", func(tk *Task) { tk.D = tk.C / 2 }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			tk := valid
			c.mutate(&tk)
			err := tk.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", tk)
			}
			if !errors.Is(err, guard.ErrInvalidInput) {
				t.Fatalf("error %v does not wrap guard.ErrInvalidInput", err)
			}
		})
	}
}

func TestSetValidateDuplicateName(t *testing.T) {
	s := Set{
		{Name: "same", C: 1, T: 10},
		{Name: "same", C: 2, T: 20},
	}
	err := s.Validate()
	if err == nil {
		t.Fatal("duplicate names accepted")
	}
	if !errors.Is(err, guard.ErrInvalidInput) {
		t.Fatalf("error %v does not wrap guard.ErrInvalidInput", err)
	}
	if want := `task set: duplicate task name "same": invalid input`; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}

// TestSetValidateDuplicateNameLargeSet: above pairwiseNames the duplicate
// check goes through the map and reports the same error, wherever the
// repeated name sits.
func TestSetValidateDuplicateNameLargeSet(t *testing.T) {
	for _, n := range []int{pairwiseNames, pairwiseNames + 1, 200} {
		for _, at := range []int{1, n / 2, n - 1} {
			s := make(Set, n)
			for i := range s {
				s[i] = Task{Name: fmt.Sprintf("t%d", i), C: 1, T: 9}
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("n=%d: distinct names rejected: %v", n, err)
			}
			s[at].Name = "t0"
			err := s.Validate()
			if want := `task set: duplicate task name "t0": invalid input`; err == nil || err.Error() != want {
				t.Fatalf("n=%d, duplicate at %d: error %v, want %q", n, at, err, want)
			}
		}
	}
}

// TestSetValidateLargeSetTime: Validate runs on request bodies before any
// step budget exists, so a set the size of a 1 MiB body of minimal tasks
// (about 75k) must check in linear time. A pairwise name check takes tens
// of seconds on it; the map takes milliseconds.
func TestSetValidateLargeSetTime(t *testing.T) {
	s := make(Set, 100_000)
	for i := range s {
		s[i] = Task{Name: fmt.Sprintf("t%d", i), C: 1, T: 9}
	}
	start := time.Now()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Validate of %d tasks took %v", len(s), d)
	}
}

// TestSetValidateSmallSetAllocs: sets up to pairwiseNames validate without
// allocating.
func TestSetValidateSmallSetAllocs(t *testing.T) {
	s := make(Set, pairwiseNames)
	for i := range s {
		s[i] = Task{Name: fmt.Sprintf("t%d", i), C: 1, T: 9}
	}
	if a := testing.AllocsPerRun(100, func() { _ = s.Validate() }); a != 0 {
		t.Fatalf("Validate of %d tasks: %v allocs, want 0", len(s), a)
	}
}
