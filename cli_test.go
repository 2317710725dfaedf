package fnpr

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestCommandsAndExamples executes every binary and example end to end,
// asserting success and a recognisable marker in the output — the
// integration guard for the whole user-facing surface. Skipped with -short.
func TestCommandsAndExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI runs skipped in -short mode")
	}
	tmp := t.TempDir()

	// A task-set spec and a CFG file for the file-driven tools.
	spec := filepath.Join(tmp, "ts.json")
	if err := os.WriteFile(spec, []byte(`{
	  "policy": "fp",
	  "tasks": [
	    {"name": "hi", "c": 5, "t": 100, "q": 5, "prio": 0},
	    {"name": "lo", "c": 40, "t": 400, "q": 6, "prio": 1,
	     "delay": {"kind": "frontloaded", "peak": 3, "tail": 0.5}}
	  ]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	graph := filepath.Join(tmp, "g.txt")
	if err := os.WriteFile(graph, []byte(
		"block a 2 3\nblock b 4 6\nedge a b\naccess a 0 1\naccess b 0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		args []string
		want string
	}{
		{"figures-1", []string{"run", "./cmd/figures", "-fig", "1"}, "WCET=205"},
		{"figures-2", []string{"run", "./cmd/figures", "-fig", "2"}, "unsound"},
		{"figures-3", []string{"run", "./cmd/figures", "-fig", "3"}, "delaymax"},
		{"figures-5", []string{"run", "./cmd/figures", "-fig", "5", "-ascii=false"}, "State of the Art"},
		{"cfgdemo", []string{"run", "./cmd/cfgdemo"}, "BCET=80"},
		{"cfgdemo-file", []string{"run", "./cmd/cfgdemo", "-file", graph}, "Algorithm 1"},
		{"fnprdelay", []string{"run", "./cmd/fnprdelay", "-spec", "0:10=4,10:60=0", "-q", "15", "-limit", "2"}, "Equation 4"},
		{"simulate-fig2", []string{"run", "./cmd/simulate", "-scenario", "fig2"}, "Theorem 1"},
		{"simulate-stats", []string{"run", "./cmd/simulate", "-scenario", "stats"}, "p99"},
		{"schedtest", []string{"run", "./cmd/schedtest", "-spec", spec, "-margin"}, "SCHEDULABLE"},
		{"report", []string{"run", "./cmd/report", "-dir", filepath.Join(tmp, "res"), "-quick"}, "wrote"},
		{"ex-quickstart", []string{"run", "./examples/quickstart"}, "Algorithm 1"},
		{"ex-cfg-crpd", []string{"run", "./examples/cfg_crpd"}, "CRPD"},
		{"ex-edf-npr", []string{"run", "./examples/edf_npr"}, "EDF"},
		{"ex-simulation", []string{"run", "./examples/simulation"}, "bound"},
		{"ex-fixed-vs-floating", []string{"run", "./examples/fixed_vs_floating"}, "floating"},
		{"ex-system", []string{"run", "./examples/system_pipeline"}, "schedulable"},
		{"ex-kernels", []string{"run", "./examples/kernels"}, "matmul"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", c.args...)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%v failed: %v\n%s", c.args, err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Fatalf("%v output missing %q:\n%s", c.args, c.want, out)
			}
		})
	}
}

// TestExitCodeContract builds the binaries once and asserts the shared exit
// code convention: 0 success, 1 analysis error, 2 usage error, 3 resource
// limit (wall-clock timeout via -timeout or step budget via -max-iter).
// Binaries are run directly (not through `go run`) so the exit status is the
// tool's own. Skipped with -short.
func TestExitCodeContract(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI runs skipped in -short mode")
	}
	tmp := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"figures", "fnprdelay", "schedtest", "simulate"} {
		bin := filepath.Join(tmp, name)
		out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
		bins[name] = bin
	}

	cases := []struct {
		name string
		bin  string
		args []string
		code int
		// stderr must contain this (empty = no stderr requirement)
		errWant string
	}{
		{"success", "fnprdelay", []string{"-spec", "0:10=4,10:60=0", "-q", "15"}, 0, ""},
		{"analysis-error", "fnprdelay", []string{"-spec", "0:10=4,10:60=0", "-q", "-5"}, 1, "fnprdelay:"},
		{"analysis-error-io", "schedtest", []string{"-spec", filepath.Join(tmp, "no-such.json")}, 1, "schedtest:"},
		{"usage-missing-input", "fnprdelay", []string{}, 2, "exactly one of -f or -spec"},
		{"usage-bad-flag", "fnprdelay", []string{"-no-such-flag"}, 2, ""},
		{"usage-unknown-figure", "figures", []string{"-fig", "99"}, 2, "unknown figure"},
		{"usage-unknown-scenario", "simulate", []string{"-scenario", "nope"}, 2, "unknown scenario"},
		{"usage-missing-spec", "schedtest", []string{}, 2, "missing -spec"},
		{"timeout", "figures", []string{"-fig", "5", "-ascii=false", "-timeout", "1ns"}, 3, "canceled"},
		{"budget", "fnprdelay", []string{"-f", "gaussian2", "-q", "15", "-max-iter", "2"}, 3, "budget"},
		{"budget-sweep-partial", "figures", []string{"-fig", "5", "-ascii=false", "-max-iter", "2000"}, 3, "sweep aborted after"},
		{"usage-resume-without-journal", "figures", []string{"-fig", "5", "-resume"}, 2, "-resume requires -journal"},
		{"usage-journal-wrong-fig", "figures", []string{"-fig", "4", "-journal", filepath.Join(tmp, "j.log")}, 2, "-journal supports -fig 5"},
		{"usage-journal-wrong-scenario", "simulate", []string{"-scenario", "basic", "-journal", filepath.Join(tmp, "j.log")}, 2, "-journal supports -scenario bounds"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command(bins[c.bin], c.args...)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			code := 0
			if ee, ok := err.(*exec.ExitError); ok {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatalf("running %s %v: %v", c.bin, c.args, err)
			}
			if code != c.code {
				t.Fatalf("%s %v: exit code %d, want %d\nstderr: %s",
					c.bin, c.args, code, c.code, stderr.String())
			}
			if c.errWant != "" && !strings.Contains(stderr.String(), c.errWant) {
				t.Fatalf("%s %v: stderr missing %q:\n%s", c.bin, c.args, c.errWant, stderr.String())
			}
		})
	}
}

// TestMetricsFlushOnSigterm pins the exit-path observability contract: a
// long journaled acceptance campaign killed by SIGTERM mid-analysis must
// still exit with the resource code AND flush a parseable -metrics-out
// snapshot. Skipped with -short.
func TestMetricsFlushOnSigterm(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI runs skipped in -short mode")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "figures")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/figures").CombinedOutput(); err != nil {
		t.Fatalf("building figures: %v\n%s", err, out)
	}

	journal := filepath.Join(tmp, "acc.journal")
	metrics := filepath.Join(tmp, "metrics.json")
	cmd := exec.Command(bin, "-fig", "acceptance", "-sets", "5000", "-ascii=false",
		"-workers", "1", "-journal", journal, "-metrics-out", metrics)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	// Wait for the first checkpointed point — the run is then deep in the
	// next point's trials — and hit it with SIGTERM.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(journal); err == nil && strings.Contains(string(b), "point:") {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("figures exited before SIGTERM could be sent: %v\nstderr: %s", err, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint appeared; stderr: %s", stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-done:
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("wait: %v", err)
		}
		if code != 3 {
			t.Fatalf("exit code %d after SIGTERM, want 3 (resource)\nstderr: %s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("figures ignored SIGTERM\nstderr: %s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "canceled") {
		t.Fatalf("stderr missing cancellation notice:\n%s", stderr.String())
	}

	// The metrics snapshot must exist and parse, and carry real counters.
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("metrics file after SIGTERM: %v", err)
	}
	var snap map[string]any
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics file does not parse: %v\n%s", err, raw)
	}
	if len(snap) == 0 {
		t.Fatalf("metrics file is empty JSON: %s", raw)
	}
}

// TestJournalResumeByteIdentical is the end-to-end crash-safety contract: a
// sweep killed mid-flight by a step budget, then resumed from its checkpoint
// journal, produces output byte-identical to an uninterrupted run. Covered
// for both journaled commands — figures -fig 5 (CSV output) and simulate
// -scenario bounds (per-trial stdout rows). Skipped with -short.
func TestJournalResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI runs skipped in -short mode")
	}
	tmp := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"figures", "simulate"} {
		bin := filepath.Join(tmp, name)
		out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
		bins[name] = bin
	}

	// run executes the binary, returning stdout and the exit code.
	run := func(t *testing.T, bin string, args ...string) (string, int) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		var stdout, stderr strings.Builder
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		err := cmd.Run()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("running %s %v: %v", bin, args, err)
		}
		t.Logf("%s %v: exit %d, stderr: %s", filepath.Base(bin), args, code, stderr.String())
		return stdout.String(), code
	}

	t.Run("figures-fig5", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		journal := filepath.Join(dir, "fig5.journal")
		fullCSV := filepath.Join(dir, "full.csv")
		partCSV := filepath.Join(dir, "part.csv")
		resumedCSV := filepath.Join(dir, "resumed.csv")

		// Uninterrupted reference run.
		if _, code := run(t, bins["figures"], "-fig", "5", "-ascii=false", "-out", fullCSV); code != 0 {
			t.Fatalf("reference run: exit %d, want 0", code)
		}
		// Journaled run killed mid-sweep by the step budget (the 75-point
		// sweep needs ~17k steps, so 5000 aborts partway with exit 3).
		if _, code := run(t, bins["figures"], "-fig", "5", "-ascii=false",
			"-journal", journal, "-max-iter", "5000", "-out", partCSV); code != 3 {
			t.Fatalf("aborted run: exit %d, want 3", code)
		}
		jb, err := os.ReadFile(journal)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(jb), "point:") {
			t.Fatalf("aborted run checkpointed no grid points:\n%s", jb)
		}
		// Resume must finish the sweep and reproduce the reference bytes.
		if _, code := run(t, bins["figures"], "-fig", "5", "-ascii=false",
			"-journal", journal, "-resume", "-out", resumedCSV); code != 0 {
			t.Fatalf("resumed run: exit %d, want 0", code)
		}
		full, err := os.ReadFile(fullCSV)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := os.ReadFile(resumedCSV)
		if err != nil {
			t.Fatal(err)
		}
		if string(full) != string(resumed) {
			t.Fatalf("resumed CSV differs from uninterrupted run\nfull:\n%s\nresumed:\n%s", full, resumed)
		}
	})

	t.Run("simulate-bounds", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		journal := filepath.Join(dir, "bounds.journal")

		full, code := run(t, bins["simulate"], "-scenario", "bounds")
		if code != 0 {
			t.Fatalf("reference run: exit %d, want 0", code)
		}
		// The five trials need ~1.5k steps; 500 aborts after a couple.
		if _, code := run(t, bins["simulate"], "-scenario", "bounds",
			"-journal", journal, "-max-iter", "500"); code != 3 {
			t.Fatalf("aborted run: exit %d, want 3", code)
		}
		jb, err := os.ReadFile(journal)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(jb), "trial:") {
			t.Fatalf("aborted run checkpointed no trials:\n%s", jb)
		}
		resumed, code := run(t, bins["simulate"], "-scenario", "bounds",
			"-journal", journal, "-resume")
		if code != 0 {
			t.Fatalf("resumed run: exit %d, want 0", code)
		}
		if full != resumed {
			t.Fatalf("resumed output differs from uninterrupted run\nfull:\n%s\nresumed:\n%s", full, resumed)
		}
	})
}

// TestResultCacheByteIdentical is the end-to-end contract for the -cache
// flags: a cached Figure 5 sweep emits bytes identical to an uncached run,
// the -cache-file snapshot written at exit warm-starts the next process, and
// that warm run answers the whole sweep from the cache (memo.hits in the
// metrics snapshot). Skipped with -short.
func TestResultCacheByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI runs skipped in -short mode")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "figures")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/figures").CombinedOutput(); err != nil {
		t.Fatalf("building figures: %v\n%s", err, out)
	}

	run := func(t *testing.T, args ...string) string {
		t.Helper()
		cmd := exec.Command(bin, args...)
		var stdout, stderr strings.Builder
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%v: %v\nstderr: %s", args, err, stderr.String())
		}
		return stdout.String()
	}
	counters := func(t *testing.T, path string) map[string]int64 {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			Counters map[string]int64 `json:"counters"`
		}
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatalf("metrics snapshot does not parse: %v\n%s", err, raw)
		}
		return snap.Counters
	}

	dir := t.TempDir()
	snapFile := filepath.Join(dir, "fig5.cache")
	refCSV := filepath.Join(dir, "ref.csv")
	coldCSV := filepath.Join(dir, "cold.csv")
	warmCSV := filepath.Join(dir, "warm.csv")
	coldMetrics := filepath.Join(dir, "cold.json")
	warmMetrics := filepath.Join(dir, "warm.json")

	// Reference run without any caching.
	run(t, "-fig", "5", "-ascii=false", "-out", refCSV)
	// Cold cached run: populates and persists the snapshot at exit.
	run(t, "-fig", "5", "-ascii=false", "-out", coldCSV,
		"-cache", "-cache-file", snapFile, "-metrics-out", coldMetrics)
	// Warm run in a fresh process: loads the snapshot, answers from it.
	run(t, "-fig", "5", "-ascii=false", "-out", warmCSV,
		"-cache", "-cache-file", snapFile, "-metrics-out", warmMetrics)

	ref, err := os.ReadFile(refCSV)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{coldCSV, warmCSV} {
		got, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(ref) {
			t.Errorf("%s differs from the uncached reference\nref:\n%s\ngot:\n%s",
				filepath.Base(f), ref, got)
		}
	}

	cold := counters(t, coldMetrics)
	if cold["memo.misses"] == 0 {
		t.Errorf("cold run recorded no cache misses: %v", cold)
	}
	warm := counters(t, warmMetrics)
	if warm["memo.persist.loaded"] == 0 {
		t.Errorf("warm run loaded nothing from the snapshot: %v", warm)
	}
	if warm["memo.hits"] == 0 {
		t.Errorf("warm run recorded no cache hits: %v", warm)
	}
	if warm["memo.hits"] < cold["memo.misses"] {
		t.Errorf("warm hits %d < cold misses %d; sweep not fully warm-started",
			warm["memo.hits"], cold["memo.misses"])
	}
}
