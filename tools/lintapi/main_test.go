package main

import (
	"strings"
	"testing"
)

// TestLintFixture runs both rules over testdata/mod, a module with one
// declaration per case and a nested second module, and requires exactly
// the findings its comments mark as flagged.
func TestLintFixture(t *testing.T) {
	pairs, dead, err := lint("testdata/mod")
	if err != nil {
		t.Fatal(err)
	}
	check := func(rule string, got, want []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s rule: got %d findings, want %d:\n%s", rule, len(got), len(want), strings.Join(got, "\n"))
		}
		for i, w := range want {
			if !strings.Contains(got[i], w) {
				t.Errorf("%s rule: finding %d is %q, want it to contain %q", rule, i, got[i], w)
			}
		}
	}
	check("pair", pairs, []string{"internal/npr/npr.go:14:1: exported pair Run / RunCtx"})
	check("dead-export", dead, []string{
		"internal/a/a.go:7:6: a.Dead has no user outside its own package's tests",
		"internal/a/a.go:10:5: a.DeadVar has no user",
		"internal/a/a.go:34:10: a.T.Size has no user",
		"internal/a/a.go:39:7: a.DeadConst has no user",
		"internal/a/a.go:42:6: a.Unused has no user",
	})
}
