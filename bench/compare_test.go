package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRuns writes one result file per value of p50_ms; the other
// end-to-end metrics are constant.
func writeRuns(t *testing.T, dir string, p50 []float64, failed int64) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, v := range p50 {
		m := map[string]metricValue{}
		for _, d := range endToEnd {
			m[d.name] = metricValue{Value: 1, Unit: d.unit}
		}
		m["p50_ms"] = metricValue{Value: v, Unit: "ms"}
		rf := resultFile{Workload: "serve-hot", Seed: int64(i + 1),
			result: result{Correct: true, Attempted: 1000, Failed: failed, Metrics: m}}
		data, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("r%d.json", i)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, c := range []struct {
		name    string
		head    []float64
		failed  int64
		verdict string
		exit    int
	}{
		{"same", []float64{1.01, 1.00, 0.99, 1.00, 1.01}, 0, unchanged, 0},
		{"slower", []float64{1.30, 1.31, 1.29, 1.30, 1.32}, 0, worse, 1},
		{"faster", []float64{0.70, 0.71, 0.69, 0.70, 0.72}, 0, improved, 0},
		{"noisy", []float64{0.60, 1.00, 1.40, 0.80, 1.20}, 0, unresolved, 0},
		{"failing", []float64{1.01, 1.00, 0.99, 1.00, 1.01}, 3, unchanged, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			writeRuns(t, filepath.Join(dir, "base"), base, 0)
			writeRuns(t, filepath.Join(dir, "head"), c.head, c.failed)
			var out strings.Builder
			code := compareMain([]string{"-base", filepath.Join(dir, "base"), "-head", filepath.Join(dir, "head"),
				"-config", "../BENCHMARK.json"}, &out, io.Discard)
			if code != c.exit {
				t.Errorf("exit %d, want %d\n%s", code, c.exit, out.String())
			}
			var row string
			for _, l := range strings.Split(out.String(), "\n") {
				if strings.Contains(l, " p50_ms ") {
					row = l
				}
			}
			if !strings.HasSuffix(row, " "+c.verdict) {
				t.Errorf("p50_ms row %q, want verdict %s", row, c.verdict)
			}
		})
	}
}

func TestCompareNeedsThreeRuns(t *testing.T) {
	dir := t.TempDir()
	writeRuns(t, filepath.Join(dir, "base"), []float64{1, 1}, 0)
	writeRuns(t, filepath.Join(dir, "head"), []float64{1, 1, 1}, 0)
	code := compareMain([]string{"-base", filepath.Join(dir, "base"), "-head", filepath.Join(dir, "head"),
		"-config", "../BENCHMARK.json"}, io.Discard, io.Discard)
	if code != 2 {
		t.Errorf("exit %d with two base runs, want 2", code)
	}
}
