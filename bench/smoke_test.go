package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"fnpr/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/counters.golden")

// testSizes shrink every workload to well under a second.
var testSizes = sizes{atlasFuncs: 15, acceptanceSets: 8, traceSample: 30, traceJobs: 2}

func loadRepoConfig(t *testing.T) *benchConfig {
	t.Helper()
	cfg, err := loadConfig("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	cfg := loadRepoConfig(t)
	if strings.Join(cfg.Command, " ") != "bash bench/run.sh" || len(cfg.Paths) != 1 || cfg.Paths[0] != "bench" {
		t.Errorf("command %q paths %q", cfg.Command, cfg.Paths)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in code", len(cfg.Workloads), len(workloads))
	}
	for _, w := range cfg.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not in the code", w.Name)
		}
	}
	same := func(kind string, json []metricDef, code []metricDef) {
		if len(json) != len(code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(json), len(code))
			return
		}
		for i := range code {
			if json[i] != code[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %v, code %v", kind, i, json[i], code[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range cfg.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range cfg.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layer, perLayer)
	maxBound := 0.0
	for _, m := range cfg.EndToEnd {
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	for _, m := range cfg.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %g is not the largest (%g)", m.Bound, maxBound)
		}
	}
}

// metricLine matches a printed metric: name, value, unit.
var metricLine = regexp.MustCompile(`^(\S+)\s+(-?[0-9.]+)\s+(\S+)$`)

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each prints every declared metric with its unit, answers correctly
// and fails nothing.
func TestSmoke(t *testing.T) {
	cfg := loadRepoConfig(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				var out strings.Builder
				res, err := run(runOpts{workload: w.name, seed: 1, seconds: 0.6, trace: trace, sizes: testSizes}, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				printed := map[string]string{}
				sc := bufio.NewScanner(strings.NewReader(out.String()))
				for sc.Scan() {
					if m := metricLine.FindStringSubmatch(sc.Text()); m != nil {
						printed[m[1]] = m[3]
					}
				}
				want := map[string]string{}
				for _, m := range cfg.EndToEnd {
					want[m.Name] = m.Unit
				}
				if trace {
					want = map[string]string{}
					for _, m := range cfg.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					if printed[name] != unit {
						t.Errorf("metric %s printed with unit %q, want %q", name, printed[name], unit)
					}
					if v, ok := res.Metrics[name]; !ok || v.Unit != unit {
						t.Errorf("metric %s missing from the result", name)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics in the result, want %d", len(res.Metrics), len(want))
				}
				if trace {
					if c := res.Metrics["trace.coverage"].Value; c <= 0 || c > 1 {
						t.Errorf("trace.coverage %g outside (0, 1]", c)
					}
				}
			})
		}
	}
}

// goldenMetrics are the machine-independent work counters: they repeat bit
// for bit for a given seed and size, so any change is a change in work done.
// delay.index.rechecks_per_op is left out: the sweep pool shares walk hints
// between Q points in whatever order its workers reach them, so the recheck
// count (never the results) varies with scheduling.
var goldenMetrics = []string{
	"core.alg1.iterations_per_op", "core.eq4.iterations_per_op",
	"delay.queries_per_op",
	"memo.hit_frac", "memo.evictions_per_op",
	"exact.states_per_func", "exact.merges_per_func", "exact.prunes_per_func",
	"sched.rta.solver.iterations_per_set", "sched.rta.solver.cuts_per_set", "sched.rta.solver.fallbacks_per_set",
}

// goldenRequests is the serve workloads' fixed schedule: requests 0..N-1
// sent back to back on one connection after set-up.
const goldenRequests = 150

// workCounters measures one workload's counters over a fixed schedule.
func workCounters(t *testing.T, w workload) map[string]float64 {
	t.Helper()
	rep := newReport(io.Discard)
	if w.serve != nil {
		env, _, err := setupServe(*w.serve, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer env.close()
		c := newServeConn(env.base, env.in, 1)
		defer c.close()
		d := counterDelta{before: obs.Default().Snapshot()}
		done, failed := closedLoop(newRealClock(), []conn{c}, 0, goldenRequests, time.Hour)
		d.after = obs.Default().Snapshot()
		if done != goldenRequests || failed != 0 {
			t.Fatalf("%s: %d done, %d failed", w.name, done, failed)
		}
		setCounters(rep, d, procSnap{}, procSnap{}, done, 0, 0)
		return rep.metrics
	}
	env, _, err := setupCampaign()
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	cw := *w.campaign
	d := counterDelta{before: obs.Default().Snapshot()}
	if _, err := env.runJob(cw.path, cw.body(jobSeed(1, 0), testSizes)); err != nil {
		t.Fatal(err)
	}
	d.after = obs.Default().Snapshot()
	ops := cw.ops(testSizes)
	if cw.path == campaignAtlas.path {
		setCounters(rep, d, procSnap{}, procSnap{}, ops, ops, 0)
	} else {
		setCounters(rep, d, procSnap{}, procSnap{}, ops, 0, ops)
	}
	return rep.metrics
}

func TestCounterGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# workload metric value: work counters at the test sizes; go test -run TestCounterGolden -update rewrites\n")
	for _, w := range workloads {
		m := workCounters(t, w)
		for _, name := range goldenMetrics {
			fmt.Fprintf(&b, "%s %s %s\n", w.name, name, strconv.FormatFloat(m[name], 'g', -1, 64))
		}
	}
	const path = "testdata/counters.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("work counters differ from %s (run with -update if the change is intended):\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
