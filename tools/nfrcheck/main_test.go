package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoTables parses docs/nfr.md itself: both tables are found, and the
// scenarios that run the explorer and the bounds carry counter budgets.
func TestRepoTables(t *testing.T) {
	scenarios, err := parseTables(filepath.Join("..", "..", "docs", "nfr.md"))
	if err != nil {
		t.Fatal(err)
	}
	budgets := map[string]map[string]int64{}
	for _, s := range scenarios {
		if s.ceiling <= 0 || s.command == "" {
			t.Fatalf("scenario %s: ceiling %v, command %q", s.name, s.ceiling, s.command)
		}
		budgets[s.name] = s.counters
	}
	for name, want := range map[string]int{"figures-fig5": 2, "figures-atlas": 5, "simulate-exact": 6} {
		if got := len(budgets[name]); got != want {
			t.Errorf("scenario %s has %d counter budgets, want %d", name, got, want)
		}
	}
}

// snapshotOf renders counters the way -metrics-out writes them.
func snapshotOf(counters map[string]int64) []byte {
	var rows []string
	for name, v := range counters {
		rows = append(rows, fmt.Sprintf("    %q: %d", name, v))
	}
	return []byte("{\n  \"counters\": {\n" + strings.Join(rows, ",\n") + "\n  },\n  \"gauges\": {\"sweep.workers\": 2}\n}\n")
}

// TestCheckCountersExact shows that the gate has no slack: a counter off by
// one either way fails, and so does a missing one, while counters the
// budgets do not name are ignored.
func TestCheckCountersExact(t *testing.T) {
	budgets := map[string]int64{"exact.states": 15637, "core.alg1.iterations": 4177}
	if bad, err := checkCounters(budgets, snapshotOf(map[string]int64{
		"exact.states": 15637, "core.alg1.iterations": 4177, "exact.runs": 480,
	})); err != nil || len(bad) != 0 {
		t.Fatalf("matching snapshot: %v, %v", bad, err)
	}
	for _, delta := range []int64{-1, 1} {
		bad, err := checkCounters(budgets, snapshotOf(map[string]int64{
			"exact.states": 15637 + delta, "core.alg1.iterations": 4177,
		}))
		want := fmt.Sprintf("counter exact.states = %d, want 15637", 15637+delta)
		if err != nil || len(bad) != 1 || bad[0] != want {
			t.Fatalf("exact.states off by %d: %q, %v; want [%q]", delta, bad, err, want)
		}
	}
	bad, err := checkCounters(budgets, snapshotOf(map[string]int64{"exact.states": 15637}))
	if err != nil || len(bad) != 1 || !strings.Contains(bad[0], "core.alg1.iterations missing") {
		t.Fatalf("missing counter: %q, %v", bad, err)
	}
	if _, err := checkCounters(budgets, []byte("not json")); err == nil {
		t.Fatal("a corrupt snapshot must be an error")
	}
}

// TestParseTablesRejects covers the table errors: a counter budget for a
// scenario the first table lacks, a duplicated counter and a bad value.
func TestParseTablesRejects(t *testing.T) {
	head := "| scenario | command | ceiling (s) |\n|---|---|---|\n| a | true | 5 |\n\n| scenario | counter | value |\n|---|---|---|\n"
	for name, rows := range map[string]string{
		"unknown scenario": "| b | exact.states | 1 |\n",
		"duplicate":        "| a | exact.states | 1 |\n| a | exact.states | 2 |\n",
		"bad value":        "| a | exact.states | 1.5 |\n",
		"negative":         "| a | exact.states | -1 |\n",
	} {
		path := filepath.Join(t.TempDir(), "nfr.md")
		if err := os.WriteFile(path, []byte(head+rows), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := parseTables(path); err == nil {
			t.Errorf("%s: table accepted", name)
		}
	}
	path := filepath.Join(t.TempDir(), "nfr.md")
	if err := os.WriteFile(path, []byte(head+"| a | exact.states | 7 |\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	scenarios, err := parseTables(path)
	if err != nil || len(scenarios) != 1 || scenarios[0].counters["exact.states"] != 7 {
		t.Fatalf("valid tables: %+v, %v", scenarios, err)
	}
}
