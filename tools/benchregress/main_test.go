package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runText renders t as `go test -bench -benchmem` output with a -2
// GOMAXPROCS suffix, so every judging test also goes through the parser.
func runText(t table) string {
	var b strings.Builder
	b.WriteString("goos: linux\npkg: fnpr\n")
	for _, name := range sortedKeys(t) {
		fmt.Fprintf(&b, "%s-2 \t 100 \t", name)
		for _, m := range sortedKeys(t[name]) {
			fmt.Fprintf(&b, " %s %s\t", fmtVal(t[name][m]), m)
		}
		b.WriteString("\n")
	}
	b.WriteString("PASS\nok  \tfnpr\t1.0s\n")
	return b.String()
}

// judgeText parses run as raw benchmark text and judges it.
func judgeText(t *testing.T, golden table, run string) []verdict {
	t.Helper()
	cur, err := parseRun(strings.NewReader(run))
	if err != nil {
		t.Fatal(err)
	}
	return judge(golden, cur)
}

// failed returns the failing verdicts as "name metric" keys.
func failed(vs []verdict) map[string]bool {
	out := map[string]bool{}
	for _, v := range vs {
		if !v.ok {
			out[strings.TrimSpace(v.name+" "+v.metric)] = true
		}
	}
	return out
}

func clone(t table) table {
	out := make(table, len(t))
	for name, ms := range t {
		out[name] = make(map[string]float64, len(ms))
		for m, v := range ms {
			out[name][m] = v
		}
	}
	return out
}

// small is a four-row golden for the per-rule tests.
func small() table {
	return table{
		"BenchmarkA":          {"ns/op": 100, "allocs/op": 100},
		"BenchmarkB":          {"ns/op": 200, "allocs/op": 0},
		"BenchmarkC/n=1":      {"ns/op": 300, "allocs/op": 10, "states/op": 2217, "merges/op": 1},
		"BenchmarkD/mode=inc": {"ns/op": 400, "allocs/op": 720, "recomputed_frac": 0.125},
	}
}

// checkedIn reads the repository's golden, the ~30 gated rows.
func checkedIn(t *testing.T) table {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "testdata", "bench.golden"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := parseGolden(f)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestParseRun(t *testing.T) {
	in := `goos: linux
cpu: Intel(R) Xeon(R) Processor
BenchmarkIndexedKernel/Build-2     	     132	   3225870 ns/op	 2630553 B/op	      34 allocs/op
BenchmarkExactDelay/mode=pruned-16 	    1227	    292971 ns/op	      2598 merges/op	      2217 states/op	      2549 successors/op	       4 B/op	       0 allocs/op
BenchmarkAcceptanceCampaign/workers=1	      42	   8342702 ns/op	     21576 trials/s	 1555300 B/op	   14275 allocs/op
BenchmarkAnalyzeSetEdit/mode=incremental-2 	     261	   2089745 ns/op	         0.1250 recomputed_frac	  384568 B/op	     720 allocs/op
BenchmarkAnalyzeSetEdit/mode=incremental-2 	     261	   1000000 ns/op	         0.1250 recomputed_frac	  384568 B/op	     721 allocs/op
BenchmarkAnalyzeSetEdit/mode=incremental-2 	     261	   3000000 ns/op	         0.1250 recomputed_frac	  384568 B/op	     720 allocs/op
PASS
`
	got, err := parseRun(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := table{
		"BenchmarkIndexedKernel/Build":          {"ns/op": 3225870, "allocs/op": 34},
		"BenchmarkExactDelay/mode=pruned":       {"ns/op": 292971, "merges/op": 2598, "states/op": 2217, "successors/op": 2549, "allocs/op": 0},
		"BenchmarkAcceptanceCampaign/workers=1": {"ns/op": 8342702, "allocs/op": 14275},
		// Three -count samples reduce to their median, metric by metric.
		"BenchmarkAnalyzeSetEdit/mode=incremental": {"ns/op": 2089745, "recomputed_frac": 0.125, "allocs/op": 720},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("parsed\n%v\nwant\n%v", got, want)
	}

	for _, bad := range []string{
		"",                             // no benchmark lines at all
		"BenchmarkX-2\n",               // name without results
		"BenchmarkX-2 10 5 ns/op 3\n",  // odd field count
		"BenchmarkX-2 ten 5 ns/op\n",   // bad iteration count
		"BenchmarkX-2 10 fast ns/op\n", // bad value
		"BenchmarkX-2 10 5 ns/op 7 states/op\nBenchmarkX-2 10 5 ns/op 8 states/op\n", // exact metric disagrees across samples
	} {
		if _, err := parseRun(strings.NewReader(bad)); err == nil {
			t.Errorf("parseRun accepted %q", bad)
		}
	}
}

func TestParseGoldenRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"BenchmarkX ns/op\n",
		"BenchmarkX ns/op fast\n",
		"BenchmarkX ns/op 1\nBenchmarkX ns/op 2\n",
	} {
		if _, err := parseGolden(strings.NewReader(bad)); err == nil {
			t.Errorf("parseGolden accepted %q", bad)
		}
	}
}

func TestGoldenRoundTrip(t *testing.T) {
	var b strings.Builder
	if err := writeGolden(&b, small()); err != nil {
		t.Fatal(err)
	}
	got, err := parseGolden(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(small()) {
		t.Fatalf("round trip\n%v\nwant\n%v", got, small())
	}
}

func TestExactCounterOffByOneFails(t *testing.T) {
	if f := failed(judgeText(t, small(), runText(small()))); len(f) != 0 {
		t.Fatalf("identical run failed: %v", f)
	}
	for _, c := range []struct {
		name, metric string
		v            float64
	}{
		{"BenchmarkC/n=1", "states/op", 2218},
		{"BenchmarkC/n=1", "states/op", 2216},
		{"BenchmarkC/n=1", "merges/op", 1.001},
		{"BenchmarkD/mode=inc", "recomputed_frac", 0.1251},
	} {
		run := small()
		run[c.name][c.metric] = c.v
		f := failed(judgeText(t, small(), runText(run)))
		if !f[c.name+" "+c.metric] || len(f) != 1 {
			t.Errorf("%s %s = %v: failures %v, want exactly that metric", c.name, c.metric, c.v, f)
		}
	}
}

func TestAllocSlack(t *testing.T) {
	for _, c := range []struct {
		name     string
		v        float64
		wantFail bool
	}{
		{"BenchmarkA", 109, false}, // +9%
		{"BenchmarkA", 110, false}, // +10%, the limit
		{"BenchmarkA", 111, true},  // +11%
		{"BenchmarkA", 50, false},  // fewer is fine
		{"BenchmarkB", 1, true},    // 0 -> 1
		{"BenchmarkD/mode=inc", 721, false},
	} {
		run := small()
		run[c.name]["allocs/op"] = c.v
		f := failed(judgeText(t, small(), runText(run)))
		if f[c.name+" allocs/op"] != c.wantFail || len(f) > 1 {
			t.Errorf("%s allocs/op %v: failures %v, want fail=%v", c.name, c.v, f, c.wantFail)
		}
	}
}

func TestMissingAndExtraRowsFail(t *testing.T) {
	run := small()
	delete(run, "BenchmarkB")
	run["BenchmarkNew"] = map[string]float64{"ns/op": 1, "allocs/op": 0}
	delete(run["BenchmarkC/n=1"], "merges/op")
	run["BenchmarkA"]["states/op"] = 5
	f := failed(judgeText(t, small(), runText(run)))
	for _, want := range []string{
		"BenchmarkB",               // golden row missing from the run
		"BenchmarkNew",             // run row missing from the golden
		"BenchmarkC/n=1 merges/op", // golden metric missing from the run
		"BenchmarkA states/op",     // gated run metric missing from the golden
	} {
		if !f[want] {
			t.Errorf("%q not flagged; failures %v", want, f)
		}
	}
	if len(f) != 4 {
		t.Errorf("failures %v, want exactly four", f)
	}
}

func TestCompareNormalisesMachineSpeed(t *testing.T) {
	// The whole run is uniformly 2x slower: no row moved relative to its
	// peers, so every normalised ratio is 1.0 and nothing fails.
	golden := checkedIn(t)
	run := clone(golden)
	for _, ms := range run {
		ms["ns/op"] *= 2
	}
	vs := judgeText(t, golden, runText(run))
	if f := failed(vs); len(f) != 0 {
		t.Fatalf("uniform slowdown failed: %v", f)
	}
	re := regexp.MustCompile(`^([0-9.]+)x`)
	for _, v := range vs {
		if v.metric != "ns/op" {
			continue
		}
		m := re.FindStringSubmatch(v.detail)
		if m == nil || m[1] != "1.00" {
			t.Errorf("%s: %q, want 1.00x", v.name, v.detail)
		}
	}
}

func TestCompareFlagsRelativeRegression(t *testing.T) {
	golden := checkedIn(t)
	run := clone(golden)
	const row = "BenchmarkRTASolver/solver=cutting/n=1024"
	run[row]["ns/op"] *= 1.4
	f := failed(judgeText(t, golden, runText(run)))
	if !f[row+" ns/op"] || len(f) != 1 {
		t.Fatalf("one row at 1.4x: failures %v, want only %s", f, row)
	}
}

// TestWholeLayerRegressionFlagged moves the whole result-cache layer, the
// five MemoSweep and AnalyzeSetEdit rows, to 1.4x. Judged among every gated
// row the median stays at 1.0 and all five fail. Judged on their own, as a
// per-layer baseline file would judge them, their own median is 1.4 and
// the regression cancels out.
func TestWholeLayerRegressionFlagged(t *testing.T) {
	golden := checkedIn(t)
	if len(golden) < 25 {
		t.Fatalf("checked-in golden has %d rows, want the ~30 gated rows", len(golden))
	}
	layer := regexp.MustCompile(`^Benchmark(MemoSweep|AnalyzeSetEdit)/`)
	run := clone(golden)
	layerGolden, layerRun := table{}, table{}
	for name, ms := range run {
		if layer.MatchString(name) {
			ms["ns/op"] *= 1.4
			layerGolden[name], layerRun[name] = golden[name], ms
		}
	}
	if len(layerRun) != 5 {
		t.Fatalf("layer has %d rows, want 5", len(layerRun))
	}

	f := failed(judgeText(t, golden, runText(run)))
	if len(f) != 5 {
		t.Errorf("combined judgement: failures %v, want the five layer rows", f)
	}
	for name := range layerRun {
		if !f[name+" ns/op"] {
			t.Errorf("%s at 1.4x not flagged", name)
		}
	}

	if f := failed(judgeText(t, layerGolden, runText(layerRun))); len(f) != 0 {
		t.Errorf("per-layer judgement flagged %v; the layer should cancel out on its own", f)
	}
}

func TestRunVerdicts(t *testing.T) {
	dir := t.TempDir()
	goldenPath := filepath.Join(dir, "bench.golden")
	inPath := filepath.Join(dir, "bench.out")
	write := func(tb table) {
		t.Helper()
		if err := os.WriteFile(inPath, []byte(runText(tb)), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	write(small())
	if err := run(goldenPath, inPath, true); err != nil {
		t.Fatalf("-update: %v", err)
	}
	if err := run(goldenPath, inPath, false); err != nil {
		t.Fatalf("run judged against its own golden: %v", err)
	}

	within := small()
	for _, ms := range within {
		ms["ns/op"] *= 1.1
	}
	within["BenchmarkA"]["ns/op"] *= 1.2
	write(within)
	if err := run(goldenPath, inPath, false); err != nil {
		t.Fatalf("within-limit run failed: %v", err)
	}

	regressed := small()
	regressed["BenchmarkD/mode=inc"]["ns/op"] *= 2
	write(regressed)
	if err := run(goldenPath, inPath, false); err == nil {
		t.Fatal("regressed run passed")
	}

	if err := run(goldenPath, filepath.Join(dir, "absent.out"), false); err == nil {
		t.Fatal("missing input passed")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
