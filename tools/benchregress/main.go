// Command benchregress is the microbenchmark gate: it judges raw
// `go test -bench -benchmem` output against the checked-in golden
// testdata/bench.golden, one `Benchmark… metric value` per line.
//
// Three rules, one per kind of metric:
//
//   - Work and result metrics (rta-iters/op, states/op, successors/op,
//     merges/op, recomputed_frac, alg1(G2,Q=100)) are deterministic per
//     operation, so they must equal the golden exactly.
//   - allocs/op may grow by at most 10%; a golden 0 stays 0.
//   - ns/op is not comparable across machines, so each row's
//     current/golden ratio is divided by the median such ratio across all
//     rows, which cancels the machine-speed difference. A row fails when its
//     normalised ratio exceeds 1.30.
//
// A golden row or metric missing from the run fails, and so does a run row
// or gated metric missing from the golden: nothing is skipped. Rows that
// appear several times (make bench runs five passes) are reduced to the
// median of their samples, metric by metric; an exact metric whose
// samples disagree is an error. Other metrics (B/op, trials/s) are not
// gated and are ignored.
//
// Usage:
//
//	make bench                              # writes bench.out
//	go run ./tools/benchregress             # judge bench.out
//	go run ./tools/benchregress -update     # rewrite the golden from bench.out
//
// Exit codes: 0 pass, 1 failed gate or I/O failure, 2 bad usage.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

const (
	// allocSlack is the allowed fractional growth of allocs/op.
	allocSlack = 0.10
	// nsLimit is the ceiling on a row's median-normalised ns/op ratio.
	nsLimit = 1.30
)

// exact lists the metrics that must match the golden bit for bit.
var exact = map[string]bool{
	"rta-iters/op":    true,
	"states/op":       true,
	"successors/op":   true,
	"merges/op":       true,
	"recomputed_frac": true,
	"alg1(G2,Q=100)":  true,
}

func gated(metric string) bool {
	return metric == "ns/op" || metric == "allocs/op" || exact[metric]
}

// table maps a benchmark name to its gated metrics.
type table map[string]map[string]float64

var procsSuffix = regexp.MustCompile(`-\d+$`)

// parseRun reads `go test -bench` text. A line that starts with "Benchmark"
// must be a result line: name, iteration count, then value/unit pairs.
func parseRun(r io.Reader) (table, error) {
	samples := map[string]map[string][]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for line := 1; sc.Scan(); line++ {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if len(f) < 4 || len(f)%2 != 0 {
			return nil, fmt.Errorf("line %d: malformed benchmark line %q", line, sc.Text())
		}
		if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
			return nil, fmt.Errorf("line %d: bad iteration count %q", line, f[1])
		}
		name := procsSuffix.ReplaceAllString(f[0], "")
		if samples[name] == nil {
			samples[name] = map[string][]float64{}
		}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad value %q", line, f[i])
			}
			if gated(f[i+1]) {
				samples[name][f[i+1]] = append(samples[name][f[i+1]], v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no benchmark lines")
	}
	t := make(table, len(samples))
	for name, ms := range samples {
		t[name] = make(map[string]float64, len(ms))
		for m, vs := range ms {
			t[name][m] = median(vs)
			if exact[m] && slices.Min(vs) != slices.Max(vs) {
				return nil, fmt.Errorf("%s %s varies across samples: %v", name, m, vs)
			}
		}
	}
	return t, nil
}

// parseGolden reads the golden: comment and blank lines aside, every line is
// `name metric value`, each (name, metric) at most once.
func parseGolden(r io.Reader) (table, error) {
	t := table{}
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if len(f) != 3 {
			return nil, fmt.Errorf("golden line %d: want `name metric value`, got %q", line, text)
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return nil, fmt.Errorf("golden line %d: bad value %q", line, f[2])
		}
		if t[f[0]] == nil {
			t[f[0]] = map[string]float64{}
		}
		if _, dup := t[f[0]][f[1]]; dup {
			return nil, fmt.Errorf("golden line %d: %s %s repeated", line, f[0], f[1])
		}
		t[f[0]][f[1]] = v
	}
	return t, sc.Err()
}

func writeGolden(w io.Writer, t table) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# benchmark metric value: the microbenchmark gate's golden; make bench && go run ./tools/benchregress -update rewrites")
	for _, name := range sortedKeys(t) {
		for _, m := range sortedKeys(t[name]) {
			fmt.Fprintf(bw, "%s %s %s\n", name, m, fmtVal(t[name][m]))
		}
	}
	return bw.Flush()
}

// A verdict is one judged (row, metric) pair; metric is empty when the
// whole row is missing on one side.
type verdict struct {
	name, metric string
	ok           bool
	detail       string
}

// judge applies the three rules to every row and metric on either side.
func judge(golden, run table) []verdict {
	var ratios []float64
	for name, gm := range golden {
		if g, c := gm["ns/op"], run[name]["ns/op"]; g > 0 && c > 0 {
			ratios = append(ratios, c/g)
		}
	}
	calib := 1.0
	if len(ratios) > 0 {
		calib = median(ratios)
	}
	var out []verdict
	for _, name := range sortedKeys(golden) {
		cur, ok := run[name]
		if !ok {
			out = append(out, verdict{name, "", false, "in the golden, missing from the run"})
			continue
		}
		for _, m := range sortedKeys(golden[name]) {
			g := golden[name][m]
			c, ok := cur[m]
			v := verdict{name: name, metric: m, ok: ok}
			switch {
			case !ok:
				v.detail = "in the golden, missing from the run"
			case exact[m]:
				v.ok = c == g
				v.detail = fmt.Sprintf("%s (golden %s, exact)", fmtVal(c), fmtVal(g))
			case m == "allocs/op":
				v.ok = c <= g*(1+allocSlack)
				v.detail = fmt.Sprintf("%s (golden %s, limit +%.0f%%)", fmtVal(c), fmtVal(g), allocSlack*100)
			default: // ns/op
				r := c / g / calib
				v.ok = r <= nsLimit
				v.detail = fmt.Sprintf("%.2fx normalised (limit %.2fx)", r, nsLimit)
			}
			out = append(out, v)
		}
		for _, m := range sortedKeys(cur) {
			if _, ok := golden[name][m]; !ok {
				out = append(out, verdict{name, m, false, "in the run, missing from the golden"})
			}
		}
	}
	for _, name := range sortedKeys(run) {
		if _, ok := golden[name]; !ok {
			out = append(out, verdict{name, "", false, "in the run, missing from the golden"})
		}
	}
	return out
}

func run(goldenPath, inPath string, update bool) error {
	in, err := os.Open(inPath)
	if err != nil {
		return err
	}
	defer in.Close()
	cur, err := parseRun(in)
	if err != nil {
		return fmt.Errorf("%s: %w", inPath, err)
	}
	if update {
		f, err := os.Create(goldenPath)
		if err != nil {
			return err
		}
		if err := writeGolden(f, cur); err != nil {
			f.Close()
			return err
		}
		fmt.Printf("wrote %s: %d rows\n", goldenPath, len(cur))
		return f.Close()
	}
	gf, err := os.Open(goldenPath)
	if err != nil {
		return err
	}
	defer gf.Close()
	golden, err := parseGolden(gf)
	if err != nil {
		return fmt.Errorf("%s: %w", goldenPath, err)
	}
	var bad int
	verdicts := judge(golden, cur)
	for _, v := range verdicts {
		word := "ok"
		if !v.ok {
			word = "FAIL"
			bad++
		}
		fmt.Printf("%-4s %-50s %-16s %s\n", word, v.name, v.metric, v.detail)
	}
	if bad > 0 {
		return fmt.Errorf("benchregress: %d of %d checks failed against %s", bad, len(verdicts), goldenPath)
	}
	fmt.Printf("PASS %d checks over %d rows against %s\n", len(verdicts), len(golden), goldenPath)
	return nil
}

func main() {
	var (
		goldenPath = flag.String("golden", "testdata/bench.golden", "checked-in microbenchmark golden")
		inPath     = flag.String("in", "bench.out", "raw go test -bench -benchmem output")
		update     = flag.Bool("update", false, "rewrite the golden from the run instead of judging it")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "benchregress: unexpected arguments")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*goldenPath, *inPath, *update); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func fmtVal(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
