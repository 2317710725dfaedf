package core

import (
	"strings"
	"testing"

	"fnpr/internal/delay"
)

func TestResultString(t *testing.T) {
	f := delay.Constant(2, 100)
	r, err := UpperBoundTrace(f, 10)
	if err != nil {
		t.Fatal(err)
	}
	s := r.String()
	for _, want := range []string{"total delay", "preemptions", "pmax", "iter"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
	// Divergent result is flagged.
	rd, _ := UpperBoundTrace(delay.Constant(10, 100), 10)
	if !strings.Contains(rd.String(), "DIVERGED") {
		t.Fatal("divergence not flagged in rendering")
	}
	// Empty trace renders without the table.
	re, _ := UpperBoundTrace(delay.Constant(1, 5), 10)
	if strings.Contains(re.String(), "iter ") {
		t.Fatal("empty trace should omit the table")
	}
}
