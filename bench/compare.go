package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// minRuns is how many result files each side needs per workload.
const minRuns = 3

// verdicts of one (metric, workload) pairing.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// comparison is one (metric, workload) pairing of two sets of runs.
type comparison struct {
	baseQ1, baseMed, baseQ3 float64
	headQ1, headMed, headQ3 float64
	// change is the head median's relative change, positive when worse.
	change  float64
	verdict string
}

// compare judges head against base for a metric with the given direction
// and bound. A pairing whose run-to-run spread (quartile distance over the
// median, on either side) is wider than the bound is unresolved, unless
// every head run beats every base run.
func compare(base, head []float64, better string, bound float64) comparison {
	var c comparison
	c.baseQ1, c.baseMed, c.baseQ3 = quartiles(base)
	c.headQ1, c.headMed, c.headQ3 = quartiles(head)
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	c.change = sign * ratio(c.headMed-c.baseMed, c.baseMed)
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			if sign*(h-b) >= 0 {
				allBetter = false
			}
		}
	}
	spread := ratio(c.baseQ3-c.baseQ1, c.baseMed)
	if s := ratio(c.headQ3-c.headQ1, c.headMed); s > spread {
		spread = s
	}
	switch {
	case spread > bound && allBetter:
		c.verdict = improved
	case spread > bound:
		c.verdict = unresolved
	case c.change > bound:
		c.verdict = worse
	case -c.change > bound:
		c.verdict = improved
	default:
		c.verdict = unchanged
	}
	return c
}

// loadResults reads every untraced result file (bench -out) in dir, by
// workload.
func loadResults(dir string) (map[string][]resultFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]resultFile{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if rf.Workload == "" || rf.Metrics == nil {
			return nil, fmt.Errorf("%s: not a bench result file", p)
		}
		if !rf.Trace {
			out[rf.Workload] = append(out[rf.Workload], rf)
		}
	}
	return out, nil
}

// compareMain implements "bench compare -base <dir> -head <dir>". It prints
// each side's median and quartiles per (metric, workload) with a verdict,
// and exits 1 when any pairing is worse, when the head fails a larger share
// of its operations than the base, or when a head run was incorrect.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseDir := fs.String("base", "", "directory of the parent commit's result files")
	headDir := fs.String("head", "", "directory of the change's result files")
	cfgPath := fs.String("config", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baseDir == "" || *headDir == "" || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: bench compare -base <dir> -head <dir> [-config BENCHMARK.json]")
		return 2
	}
	cfg, err := loadConfig(*cfgPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	base, err := loadResults(*baseDir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	head, err := loadResults(*headDir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var names []string
	for w := range head {
		names = append(names, w)
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(stderr, "bench compare: no result files in", *headDir)
		return 2
	}
	regress := false
	fmt.Fprintf(stdout, "%-20s %-14s %28s %28s %9s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "change", "verdict")
	for _, w := range names {
		b, h := base[w], head[w]
		if len(b) < minRuns || len(h) < minRuns {
			fmt.Fprintf(stderr, "bench compare: %s has %d base and %d head runs, need %d each\n", w, len(b), len(h), minRuns)
			return 2
		}
		for _, m := range cfg.EndToEnd {
			bv, hv := metricValues(b, m.Name), metricValues(h, m.Name)
			if len(bv) != len(b) || len(hv) != len(h) {
				fmt.Fprintf(stderr, "bench compare: %s: some runs lack %s\n", w, m.Name)
				return 2
			}
			c := compare(bv, hv, m.Better, m.Bound)
			fmt.Fprintf(stdout, "%-20s %-14s %12.6g [%6.4g, %6.4g] %12.6g [%6.4g, %6.4g] %+8.2f%%  %s\n",
				w, m.Name, c.baseMed, c.baseQ1, c.baseQ3, c.headMed, c.headQ1, c.headQ3, 100*c.change, c.verdict)
			if c.verdict == worse {
				regress = true
			}
		}
		bf, hf := failFrac(b), failFrac(h)
		fmt.Fprintf(stdout, "%-20s %-14s %12.6g %28.6g\n", w, "fail_frac", bf, hf)
		if hf > bf {
			fmt.Fprintf(stdout, "%-20s fail_frac rose: regression\n", w)
			regress = true
		}
		for _, r := range h {
			if !r.Correct {
				fmt.Fprintf(stdout, "%-20s head run with seed %d was incorrect: regression\n", w, r.Seed)
				regress = true
			}
		}
	}
	if regress {
		return 1
	}
	return 0
}

func metricValues(rs []resultFile, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// failFrac is the failed share of all attempted operations across runs.
func failFrac(rs []resultFile) float64 {
	var a, f int64
	for _, r := range rs {
		a += r.Attempted
		f += r.Failed
	}
	return ratio(float64(f), float64(a))
}
