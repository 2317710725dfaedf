// Command nfrcheck enforces the absolute latency budgets of docs/nfr.md:
// every row of the table names a scenario, the shell command that runs it
// end to end, and a wall-clock ceiling in seconds. The command sequence
// runs one at a time (so scenarios never contend with each other for the
// machine) and the tool exits non-zero if any command fails or overruns
// its ceiling.
//
// Unlike tools/benchregress — which judges microbenchmarks against the
// recorded golden testdata/bench.golden and normalises ns/op for machine
// speed — these ceilings are absolute: they are
// the "a user is watching this terminal" bar, set an order of magnitude
// above the expected runtime so they only trip on pathological slowdowns.
//
// Usage:
//
//	nfrcheck [-table docs/nfr.md] [-run regexp] [-v]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"time"
)

type scenario struct {
	name    string
	command string
	ceiling time.Duration
}

func main() {
	table := flag.String("table", "docs/nfr.md", "markdown file holding the budget table")
	run := flag.String("run", "", "only run scenarios matching this regexp")
	verbose := flag.Bool("v", false, "stream scenario output instead of discarding it")
	flag.Parse()

	scenarios, err := parseTable(*table)
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

	failed := 0
	for _, s := range scenarios {
		cmd := exec.Command("sh", "-c", s.command)
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
		case elapsed > s.ceiling:
			failed++
			fmt.Printf("FAIL  %-22s %8.2fs  over the %gs ceiling\n", s.name, elapsed.Seconds(), s.ceiling.Seconds())
		default:
			fmt.Printf("ok    %-22s %8.2fs  (ceiling %gs)\n", s.name, elapsed.Seconds(), s.ceiling.Seconds())
		}
	}
	if failed > 0 {
		fmt.Printf("FAIL %d of %d scenarios over budget\n", failed, len(scenarios))
		os.Exit(1)
	}
	fmt.Printf("PASS %d scenarios within budget\n", len(scenarios))
}

// parseTable extracts the scenarios from the first markdown table whose
// rows have exactly three cells: name, command, ceiling-in-seconds. The
// header row and the |---| separator are recognised and skipped.
func parseTable(path string) ([]scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []scenario
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 3 {
			continue
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if cells[0] == "scenario" || strings.HasPrefix(cells[0], "---") || strings.HasPrefix(cells[0], ":-") {
			continue
		}
		secs, err := strconv.ParseFloat(cells[2], 64)
		if err != nil || secs <= 0 {
			return nil, fmt.Errorf("%s:%d: bad ceiling %q (want seconds > 0)", path, ln+1, cells[2])
		}
		if cells[0] == "" || cells[1] == "" {
			return nil, fmt.Errorf("%s:%d: empty scenario or command", path, ln+1)
		}
		out = append(out, scenario{name: cells[0], command: cells[1], ceiling: time.Duration(secs * float64(time.Second))})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no budget table found", path)
	}
	return out, nil
}
