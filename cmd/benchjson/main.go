// Command benchjson converts `go test -bench` text output into the
// machine-readable BENCH_PR*.json benchmark reports: per-benchmark metrics
// (ns/op, B/op, allocs/op and every b.ReportMetric custom unit, so headline
// bound values ride along) plus before/after tables pairing each baseline
// variant with its optimised twin — kernel=scan vs kernel=indexed,
// mode=unpooled vs mode=pooled, workers=1 vs workers=8, cache=cold vs
// cache=warm, mode=full vs mode=incremental, mode=naive vs mode=pruned — as
// an ns/op speedup and, where -benchmem ran, an allocs/op reduction factor.
//
// Usage:
//
//	go test . -run '^$' -bench . -benchmem > bench.out
//	go run ./cmd/benchjson -in bench.out -out BENCH_PR3.json
//
// Exit codes: 0 success, 1 I/O or parse failure (including input with no
// benchmark lines at all, so a silently broken bench run fails CI), 2 bad
// usage.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the benchmark name with the trailing -GOMAXPROCS suffix
	// stripped, e.g. "BenchmarkFigure5Sweep/kernel=scan/n=256".
	Name string `json:"name"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit -> value for every value/unit pair on the line:
	// the standard ns/op, B/op, allocs/op plus custom ReportMetric units.
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the BENCH_PR3.json document.
type Report struct {
	// Schema identifies this format for downstream tooling.
	Schema string `json:"schema"`
	// Go is the toolchain that produced the numbers.
	Go string `json:"go"`
	// Benchmarks lists every parsed benchmark in input order.
	Benchmarks []Benchmark `json:"benchmarks"`
	// Speedups maps a pair key (the baseline benchmark's name with the
	// baseline variant generalised to "*", e.g. "kernel=*" or "mode=*") to
	// baseline-ns/op divided by optimised-ns/op: >1 means the optimised
	// variant wins.
	Speedups map[string]float64 `json:"speedups"`
	// AllocReductions maps the same pair keys to baseline-allocs/op divided
	// by optimised-allocs/op, for pairs where both sides ran with -benchmem.
	// An optimised side at zero allocs/op is scored as baseline/1 (JSON has
	// no +Inf), so a fully-eliminated allocation path reports the baseline
	// count as its reduction factor.
	AllocReductions map[string]float64 `json:"alloc_reductions,omitempty"`
}

// pairs lists the baseline→optimised sub-benchmark pairings the report
// tabulates. Each campaign benchmark names its variants with one of these
// key=value markers.
var pairs = []struct{ base, opt string }{
	{"kernel=scan", "kernel=indexed"},
	{"mode=unpooled", "mode=pooled"},
	{"workers=1", "workers=8"},
	{"cache=cold", "cache=warm"},
	{"mode=full", "mode=incremental"},
	{"mode=naive", "mode=pruned"},
}

var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func parse(r io.Reader) ([]Benchmark, error) {
	var out []Benchmark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue // status lines like "BenchmarkX ... SKIP"
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{
			Name:       gomaxprocsSuffix.ReplaceAllString(fields[0], ""),
			Iterations: iters,
			Metrics:    make(map[string]float64, (len(fields)-2)/2),
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: %q: bad value %q", b.Name, fields[i])
			}
			b.Metrics[fields[i+1]] = v
		}
		out = append(out, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// speedups walks the pair list and rates every baseline benchmark against
// its optimised twin: ns/op ratios into the first map, allocs/op ratios into
// the second. Pairs missing either side or either metric are skipped.
func speedups(bs []Benchmark) (map[string]float64, map[string]float64) {
	byName := make(map[string]Benchmark, len(bs))
	for _, b := range bs {
		byName[b.Name] = b
	}
	ns := make(map[string]float64)
	allocs := make(map[string]float64)
	for _, b := range bs {
		for _, p := range pairs {
			if !strings.Contains(b.Name, p.base) {
				continue
			}
			twin, ok := byName[strings.Replace(b.Name, p.base, p.opt, 1)]
			if !ok {
				continue
			}
			star := p.base[:strings.Index(p.base, "=")+1] + "*"
			key := strings.Replace(b.Name, p.base, star, 1)
			if baseNs, ok1 := b.Metrics["ns/op"]; ok1 {
				if optNs, ok2 := twin.Metrics["ns/op"]; ok2 && optNs > 0 {
					ns[key] = baseNs / optNs
				}
			}
			if baseA, ok1 := b.Metrics["allocs/op"]; ok1 && baseA > 0 {
				if optA, ok2 := twin.Metrics["allocs/op"]; ok2 {
					if optA < 1 {
						optA = 1 // fully eliminated: score baseline/1
					}
					allocs[key] = baseA / optA
				}
			}
		}
	}
	if len(allocs) == 0 {
		allocs = nil
	}
	return ns, allocs
}

func run(inPath, outPath string) error {
	in := io.Reader(os.Stdin)
	if inPath != "-" {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	bs, err := parse(in)
	if err != nil {
		return err
	}
	if len(bs) == 0 {
		return fmt.Errorf("benchjson: no benchmark result lines in input")
	}
	ns, allocs := speedups(bs)
	rep := Report{
		Schema:          "fnpr-bench/1",
		Go:              runtime.Version(),
		Benchmarks:      bs,
		Speedups:        ns,
		AllocReductions: allocs,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(outPath, data, 0o644)
}

func main() {
	inPath := flag.String("in", "-", "benchmark text input ('-' for stdin)")
	outPath := flag.String("out", "-", "JSON output path ('-' for stdout)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "benchjson: unexpected arguments")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*inPath, *outPath); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
