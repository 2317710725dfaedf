// Command nfrcheck enforces the budgets of docs/nfr.md. The first table
// names a scenario, the shell command that runs it end to end, and a
// wall-clock ceiling in seconds. The second names, per scenario, work
// counters and the exact values its -metrics-out snapshot must report.
// The commands run one at a time (so scenarios never contend with each
// other for the machine); a scenario with counter rows runs with
// `-metrics-out <file>` appended and its snapshot is checked. The tool
// exits non-zero if any command fails, overruns its ceiling or reports a
// counter other than the table's.
//
// Unlike tools/benchregress — which judges microbenchmarks against the
// recorded golden testdata/bench.golden and normalises ns/op for machine
// speed — these ceilings are absolute: they are
// the "a user is watching this terminal" bar, set an order of magnitude
// above the expected runtime so they only trip on pathological slowdowns.
// The counters do not depend on the host at all, so they are gated exactly.
//
// Usage:
//
//	nfrcheck [-table docs/nfr.md] [-run regexp] [-v]
//	nfrcheck [-table docs/nfr.md] -run regexp -snapshot metrics.json
//
// With -snapshot nothing runs: the snapshot is checked against the counter
// rows of the one scenario -run selects.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

type scenario struct {
	name     string
	command  string
	ceiling  time.Duration
	counters map[string]int64 // counter budgets from the second table
}

func main() {
	table := flag.String("table", "docs/nfr.md", "markdown file holding the budget tables")
	run := flag.String("run", "", "only run scenarios matching this regexp")
	snapshot := flag.String("snapshot", "", "check this -metrics-out snapshot against the selected scenario's counters instead of running commands")
	verbose := flag.Bool("v", false, "stream scenario output instead of discarding it")
	flag.Parse()

	scenarios, err := parseTables(*table)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nfrcheck: %v\n", err)
		os.Exit(2)
	}
	if *run != "" {
		re, err := regexp.Compile(*run)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nfrcheck: bad -run pattern: %v\n", err)
			os.Exit(2)
		}
		kept := scenarios[:0]
		for _, s := range scenarios {
			if re.MatchString(s.name) {
				kept = append(kept, s)
			}
		}
		scenarios = kept
	}
	if len(scenarios) == 0 {
		fmt.Fprintln(os.Stderr, "nfrcheck: no scenarios selected")
		os.Exit(2)
	}
	if *snapshot != "" {
		os.Exit(checkSnapshot(scenarios, *snapshot))
	}

	dir, err := os.MkdirTemp("", "nfrcheck")
	if err != nil {
		fmt.Fprintf(os.Stderr, "nfrcheck: %v\n", err)
		os.Exit(2)
	}
	defer os.RemoveAll(dir)

	failed := 0
	for _, s := range scenarios {
		command, metrics := s.command, ""
		if len(s.counters) > 0 {
			metrics = filepath.Join(dir, s.name+".json")
			command += " -metrics-out " + metrics
		}
		cmd := exec.Command("sh", "-c", command)
		var out bytes.Buffer
		if *verbose {
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
		} else {
			cmd.Stdout = &out
			cmd.Stderr = &out
		}
		start := time.Now()
		err := cmd.Run()
		elapsed := time.Since(start)
		switch {
		case err != nil:
			failed++
			fmt.Printf("FAIL  %-22s %8.2fs  command error: %v\n", s.name, elapsed.Seconds(), err)
			if !*verbose {
				os.Stdout.Write(out.Bytes())
			}
			continue
		case elapsed > s.ceiling:
			failed++
			fmt.Printf("FAIL  %-22s %8.2fs  over the %gs ceiling\n", s.name, elapsed.Seconds(), s.ceiling.Seconds())
		default:
			fmt.Printf("ok    %-22s %8.2fs  (ceiling %gs)\n", s.name, elapsed.Seconds(), s.ceiling.Seconds())
		}
		if metrics != "" && !reportCounters(s, metrics) {
			failed++
		}
	}
	if failed > 0 {
		fmt.Printf("FAIL %d of %d scenarios over budget\n", failed, len(scenarios))
		os.Exit(1)
	}
	fmt.Printf("PASS %d scenarios within budget\n", len(scenarios))
}

// checkSnapshot is the -snapshot mode: it returns the exit status of
// checking one file against the counters of the single selected scenario.
func checkSnapshot(scenarios []scenario, path string) int {
	if len(scenarios) != 1 || len(scenarios[0].counters) == 0 {
		fmt.Fprintln(os.Stderr, "nfrcheck: -snapshot needs -run to select exactly one scenario with counter budgets")
		return 2
	}
	if !reportCounters(scenarios[0], path) {
		return 1
	}
	fmt.Printf("PASS %s counters match\n", scenarios[0].name)
	return 0
}

// reportCounters checks the snapshot at path against s's counter budgets,
// printing one line per mismatch, and reports whether all of them held.
func reportCounters(s scenario, path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Printf("FAIL  %-22s metrics snapshot: %v\n", s.name, err)
		return false
	}
	bad, err := checkCounters(s.counters, data)
	if err != nil {
		fmt.Printf("FAIL  %-22s metrics snapshot %s: %v\n", s.name, path, err)
		return false
	}
	for _, msg := range bad {
		fmt.Printf("FAIL  %-22s %s\n", s.name, msg)
	}
	return len(bad) == 0
}

// checkCounters compares the counters of a -metrics-out snapshot with the
// budgets, exactly, and returns one message per counter that differs or is
// missing, in counter order. A counter the snapshot has but the budgets do
// not name is not checked.
func checkCounters(budgets map[string]int64, snapshot []byte) ([]string, error) {
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(snapshot, &snap); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(budgets))
	for name := range budgets {
		names = append(names, name)
	}
	sort.Strings(names)
	var bad []string
	for _, name := range names {
		got, ok := snap.Counters[name]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("counter %s missing, want %d", name, budgets[name]))
		case got != budgets[name]:
			bad = append(bad, fmt.Sprintf("counter %s = %d, want %d", name, got, budgets[name]))
		}
	}
	return bad, nil
}

// parseTables reads the two markdown tables, each recognised by its header
// row: "scenario | command | ceiling (s)" lists the scenarios, and
// "scenario | counter | value" their counter budgets. A table ends at the
// first line that is not a table row; the |---| separators are skipped.
// Every counter row must name a scenario of the first table.
func parseTables(path string) ([]scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []scenario
	type budget struct {
		line          int
		name, counter string
		value         int64
	}
	var budgets []budget
	kind := "" // the header of the table being read
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			kind = ""
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if len(cells) != 3 || strings.HasPrefix(cells[0], "---") || strings.HasPrefix(cells[0], ":-") {
			continue
		}
		if cells[0] == "scenario" {
			kind = cells[1]
			continue
		}
		if kind != "command" && kind != "counter" {
			continue
		}
		if cells[0] == "" || cells[1] == "" {
			return nil, fmt.Errorf("%s:%d: empty scenario or %s", path, ln+1, kind)
		}
		switch kind {
		case "command":
			secs, err := strconv.ParseFloat(cells[2], 64)
			if err != nil || secs <= 0 {
				return nil, fmt.Errorf("%s:%d: bad ceiling %q (want seconds > 0)", path, ln+1, cells[2])
			}
			out = append(out, scenario{name: cells[0], command: cells[1], ceiling: time.Duration(secs * float64(time.Second))})
		case "counter":
			v, err := strconv.ParseInt(cells[2], 10, 64)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("%s:%d: bad counter value %q (want an integer >= 0)", path, ln+1, cells[2])
			}
			budgets = append(budgets, budget{ln + 1, cells[0], cells[1], v})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no budget table found", path)
	}
	for _, b := range budgets {
		i := slices.IndexFunc(out, func(s scenario) bool { return s.name == b.name })
		if i < 0 {
			return nil, fmt.Errorf("%s:%d: counter budget for unknown scenario %q", path, b.line, b.name)
		}
		if out[i].counters == nil {
			out[i].counters = map[string]int64{}
		}
		if _, dup := out[i].counters[b.counter]; dup {
			return nil, fmt.Errorf("%s:%d: counter %s of %s listed twice", path, b.line, b.counter, b.name)
		}
		out[i].counters[b.counter] = b.value
	}
	return out, nil
}
