// Command bench is the repository's end-to-end benchmark. It starts the
// analysis service (internal/server) in-process on loopback, drives one named
// workload through the public HTTP API from one process on at most two
// connections, checks the answers against direct computations, and prints
// every metric by name with its unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"p50_ms": {"value": 0.41, "unit": "ms"}, ...}}
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bench -workload serve-hot -seed 1 -seconds 25 -trace 0 [-out result.json]
//	bench compare -base <dir> -head <dir>
//
// With -trace 1 the run reports the per-layer metrics instead of the
// end-to-end ones. README.md holds the metric catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
)

// metricDef is one catalogued metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the service sees, reported with
// tracing off on every workload.
var endToEnd = []metricDef{
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"ops_per_s", "op/s"},
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
}

// perLayer are the traced run's metrics, one layer (module) at a time.
// Shares are of an operation's serial time; a layer a workload does not use
// reports 0.
var perLayer = []metricDef{
	{"server.roundtrip_us", "us"},
	{"server.decode_us", "us"},
	{"server.encode_us", "us"},
	{"server.self_us", "us"},
	{"server.refused_frac", "ratio"},
	{"trace.coverage", "ratio"},
	{"spec.build_share", "ratio"},
	{"delay.fingerprint_share", "ratio"},
	{"delay.index_build_share", "ratio"},
	{"delay.queries_per_op", "count"},
	{"delay.index.rechecks_per_op", "count"},
	{"memo.share", "ratio"},
	{"memo.hit_frac", "ratio"},
	{"memo.hit_allocs", "count"},
	{"memo.evictions_per_op", "count"},
	{"core.analyze_us", "us"},
	{"core.share", "ratio"},
	{"core.alg1.iterations_per_op", "count"},
	{"core.eq4.iterations_per_op", "count"},
	{"core.allocs_per_call", "count"},
	{"eval.share", "ratio"},
	{"eval.speedup_w2", "ratio"},
	{"sched.share", "ratio"},
	{"sched.rta.solver.iterations_per_set", "count"},
	{"sched.rta.solver.cuts_per_set", "count"},
	{"sched.rta.solver.fallbacks_per_set", "count"},
	{"npr.share", "ratio"},
	{"exact.share", "ratio"},
	{"exact.states_per_func", "count"},
	{"exact.merges_per_func", "count"},
	{"exact.prunes_per_func", "count"},
	{"exact.allocs_per_call", "count"},
	{"proc.allocs_per_op", "count"},
	{"proc.gc_cpu_frac", "ratio"},
	{"proc.cpu_ms_per_op", "ms"},
	{"gen.oversleep_p50_us", "us"},
	{"gen.oversleep_p99_us", "us"},
}

// sizes are the workloads' size knobs; the tests shrink them.
type sizes struct {
	// atlasFuncs and acceptanceSets size one campaign job.
	atlasFuncs, acceptanceSets int
	// traceSample is the traced run's serve request sample; traceJobs its
	// campaign job count.
	traceSample, traceJobs int
}

// fullSizes is what the benchmark measures: a job takes about 0.45 s on the
// 2-core reference machine.
var fullSizes = sizes{atlasFuncs: 1000, acceptanceSets: 250, traceSample: 200, traceJobs: 2}

// workload is one named input set.
type workload struct {
	name     string
	serve    *serveWorkload
	campaign *campaignWorkload
}

// The reference rates keep each core of the 2-core machine about a tenth
// busy (client included). A shared host can take a tenth or more of the CPU
// away for minutes; at twice these rates the requests then queued behind one
// another and the reference latency measured the host: run-to-run spreads
// of p50 and tail were about twice as wide.
var serveHot = serveWorkload{cacheEntries: 4096, rates: [3]float64{125, 250, 500}, warm: true, inputs: hotInputs}

var serveBulk = serveWorkload{cacheEntries: 256, rates: [3]float64{15, 30, 60}, inputs: bulkInputs}

var workloads = []workload{
	{name: "serve-hot", serve: &serveHot},
	{name: "serve-bulk", serve: &serveBulk},
	{name: "campaign-atlas", campaign: &campaignAtlas},
	{name: "campaign-acceptance", campaign: &campaignAcceptance},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOpts is one invocation.
type runOpts struct {
	workload string
	seed     int64
	// seconds is the measured window.
	seconds float64
	trace   bool
	sizes   sizes
}

// report accumulates one run's outcome.
type report struct {
	info              io.Writer
	metrics           map[string]float64
	attempted, failed int64
	wrongs            int
}

func newReport(info io.Writer) *report {
	return &report{info: info, metrics: map[string]float64{}}
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) infof(format string, args ...any) {
	fmt.Fprintf(r.info, "# "+format+"\n", args...)
}

// wrong records an answer that failed its check: a failed operation and an
// incorrect run.
func (r *report) wrong(err error) {
	r.failed++
	r.wrongs++
	if r.wrongs <= 5 {
		r.infof("WRONG ANSWER: %v", err)
	}
}

// result is the line the run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFile is what -out writes: the result plus what produced it, the
// input of bench compare.
type resultFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

// run executes one workload and assembles its result.
func run(o runOpts, info io.Writer) (result, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return result{}, fmt.Errorf("bench: unknown workload %q", o.workload)
	}
	rep := newReport(info)
	var err error
	switch {
	case o.trace && w.serve != nil:
		err = traceServe(*w.serve, o, rep)
	case o.trace:
		err = traceCampaign(*w.campaign, o, rep)
	case w.serve != nil:
		err = runServe(*w.serve, o, rep)
	default:
		err = runCampaign(*w.campaign, o, rep)
	}
	if err != nil {
		return result{}, err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{Correct: rep.wrongs == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			return result{}, fmt.Errorf("bench: workload %s did not measure %s", o.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("bench: %s measured %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(info, "%-40s %16.6f %s\n", d.name, v, d.unit)
	}
	if res.Attempted < 1 {
		return result{}, fmt.Errorf("bench: workload %s attempted nothing", o.workload)
	}
	return res, nil
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve-hot, serve-bulk, campaign-atlas or campaign-acceptance")
	seed := fs.Int64("seed", 1, "input seed (1 is the default seed, 7 the holdout)")
	seconds := fs.Int("seconds", 25, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	out := fs.String("out", "", "also write the result, with workload and seed, to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be >= 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	o := runOpts{workload: *name, seed: *seed, seconds: float64(*seconds), trace: *trace == 1, sizes: fullSizes}
	res, err := run(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *out != "" {
		data, err := json.MarshalIndent(resultFile{Workload: o.workload, Seed: o.seed, Trace: o.trace, result: res}, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}
