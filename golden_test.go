package fnpr

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from the current output")

// buildCmd compiles ./cmd/<name> into dir and returns the binary path.
func buildCmd(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

// TestGoldenOutputs is the byte-level regression lock on the analysis
// pipeline: the CSV of `figures -fig 5` and the stdout of `simulate
// -scenario bounds` and `-scenario exact` are captured against committed
// golden files. The goldens were written from scan-kernel runs, while the
// commands run every curve of 32 or more pieces on the indexed kernel
// (delay.AutoIndex), so any one-ulp divergence between kernels, or any
// drift in the computed bounds, fails here.
//
// Regenerate with `go test . -run TestGoldenOutputs -update`. Skipped with
// -short.
func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI runs skipped in -short mode")
	}
	tmp := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"figures", "simulate"} {
		bins[name] = buildCmd(t, tmp, name)
	}

	run := func(t *testing.T, bin string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bin, args...)
		var stdout, stderr strings.Builder
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("running %s %v: %v\nstderr: %s", filepath.Base(bin), args, err, stderr.String())
		}
		return stdout.String()
	}

	cases := []struct {
		name   string
		bin    string
		args   []string
		golden string
	}{
		{
			name:   "figures-fig5",
			bin:    "figures",
			args:   []string{"-fig", "5", "-ascii=false"},
			golden: filepath.Join("internal", "eval", "testdata", "figures_fig5.golden"),
		},
		{
			name:   "simulate-bounds",
			bin:    "simulate",
			args:   []string{"-scenario", "bounds"},
			golden: filepath.Join("internal", "eval", "testdata", "simulate_bounds.golden"),
		},
		{
			name:   "simulate-exact",
			bin:    "simulate",
			args:   []string{"-scenario", "exact"},
			golden: filepath.Join("internal", "eval", "testdata", "simulate_exact.golden"),
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			got := run(t, bins[c.bin], c.args...)
			if *update {
				if err := os.WriteFile(c.golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(c.golden)
			if err != nil {
				t.Fatalf("reading golden (regenerate with -update): %v", err)
			}
			if string(want) != got {
				t.Fatalf("output drifted from %s\ngolden:\n%s\ngot:\n%s", c.golden, want, got)
			}
		})
	}
}

// TestGoldenAcceptance locks the acceptance-campaign CSV of `figures -fig
// acceptance` against a committed golden, running the campaign both serially
// (-workers 1) and on a four-worker pool and asserting the two are
// byte-identical — the determinism contract of the sharded engine, checked
// at the CLI boundary rather than the library one. Regenerate with
// `go test . -run TestGoldenAcceptance -update` (the golden is written from
// the serial run, the reference execution order). Skipped with -short.
func TestGoldenAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI runs skipped in -short mode")
	}
	bin := buildCmd(t, t.TempDir(), "figures")
	run := func(workers string) string {
		cmd := exec.Command(bin, "-fig", "acceptance", "-ascii=false", "-workers", workers)
		var stdout, stderr strings.Builder
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("figures -fig acceptance -workers %s: %v\nstderr: %s", workers, err, stderr.String())
		}
		return stdout.String()
	}
	serial := run("1")
	parallel := run("4")
	if serial != parallel {
		t.Fatalf("-workers 4 changed the output bytes\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
	golden := filepath.Join("internal", "eval", "testdata", "figures_acceptance.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(serial), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if string(want) != serial {
		t.Fatalf("output drifted from %s\ngolden:\n%s\ngot:\n%s", golden, want, serial)
	}
}

// TestGoldenAtlas locks the pessimism-atlas CSV of `figures -fig atlas`
// against a committed golden under both serial (-workers 1) and pooled
// (-workers 4) schedule-graph exploration, asserting the two are
// byte-identical — the exact engine's determinism contract (contiguous
// frontier shards concatenated in shard order) checked at the CLI boundary.
// Regenerate with `go test . -run TestGoldenAtlas -update` (the golden is
// written from the serial run). Skipped with -short.
func TestGoldenAtlas(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI runs skipped in -short mode")
	}
	bin := buildCmd(t, t.TempDir(), "figures")
	run := func(workers string) string {
		cmd := exec.Command(bin, "-fig", "atlas", "-ascii=false", "-workers", workers)
		var stdout, stderr strings.Builder
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("figures -fig atlas -workers %s: %v\nstderr: %s", workers, err, stderr.String())
		}
		return stdout.String()
	}
	serial := run("1")
	parallel := run("4")
	if serial != parallel {
		t.Fatalf("-workers 4 changed the output bytes\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
	golden := filepath.Join("internal", "eval", "testdata", "figures_atlas.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(serial), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if string(want) != serial {
		t.Fatalf("output drifted from %s\ngolden:\n%s\ngot:\n%s", golden, want, serial)
	}
}

// TestGoldenMonteCarlo locks the report of `simulate -scenario montecarlo`
// against a committed golden, running the campaign serially (-workers 1) and
// on a four-worker pool and asserting the two are byte-identical. Every trial
// draws its jobset from its own seeded sub-stream, so the golden also pins
// the generator those sub-streams come from. Regenerate with
// `go test . -run TestGoldenMonteCarlo -update` (the golden is written from
// the serial run). Skipped with -short.
func TestGoldenMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI runs skipped in -short mode")
	}
	bin := buildCmd(t, t.TempDir(), "simulate")
	run := func(workers string) string {
		cmd := exec.Command(bin, "-scenario", "montecarlo", "-workers", workers)
		var stdout, stderr strings.Builder
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("simulate -scenario montecarlo -workers %s: %v\nstderr: %s", workers, err, stderr.String())
		}
		return stdout.String()
	}
	serial := run("1")
	parallel := run("4")
	if serial != parallel {
		t.Fatalf("-workers 4 changed the output bytes\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
	golden := filepath.Join("internal", "eval", "testdata", "simulate_montecarlo.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(serial), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if string(want) != serial {
		t.Fatalf("output drifted from %s\ngolden:\n%s\ngot:\n%s", golden, want, serial)
	}
}
