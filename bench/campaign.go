package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"fnpr/internal/eval"
	"fnpr/internal/server"
	"fnpr/internal/textplot"
)

// campaignWorkload pins one campaign kind: jobs run one after another, each
// seeded base+i, and are polled until done.
type campaignWorkload struct {
	path string
	// body is the submission for the job seeded seed.
	body func(seed int64, s sizes) []byte
	// direct runs the same campaign in-process with the given worker count.
	direct func(seed int64, s sizes, workers int) (*textplot.Table, error)
	// ops is the number of functions analysed or sets decided per job.
	ops    func(s sizes) int
	checks func(*textplot.Table) error
}

// pollEvery is the job poll interval; the poll's own lateness is reported
// as the campaign generator's oversleep.
const pollEvery = 5 * time.Millisecond

// atlasQs is the atlas job's Q grid (C = 80).
var atlasQs = []float64{4, 6, 8, 12, 16, 24, 32}

const atlasC = 80.0

// acceptanceTasks is the acceptance job's set size, on the default U grid.
const acceptanceTasks = 10

var campaignAtlas = campaignWorkload{
	path: "/v1/campaign/atlas",
	body: func(seed int64, s sizes) []byte {
		b, _ := json.Marshal(map[string]any{"seed": seed, "c": atlasC, "qs": atlasQs,
			"funcs_per_cell": s.atlasFuncs, "workers": maxConns})
		return b
	},
	direct: func(seed int64, s sizes, workers int) (*textplot.Table, error) {
		return eval.Atlas(nil, atlasParams(seed, s, workers))
	},
	ops:    func(s sizes) int { return 3 * len(atlasQs) * s.atlasFuncs },
	checks: eval.AtlasChecks,
}

func atlasParams(seed int64, s sizes, workers int) eval.AtlasParams {
	return eval.AtlasParams{Seed: seed, Qs: atlasQs, FuncsPerCell: s.atlasFuncs, C: atlasC, Workers: workers}
}

var campaignAcceptance = campaignWorkload{
	path: "/v1/campaign/acceptance",
	body: func(seed int64, s sizes) []byte {
		b, _ := json.Marshal(map[string]any{"seed": seed, "tasks": acceptanceTasks,
			"sets_per_point": s.acceptanceSets, "workers": maxConns})
		return b
	},
	direct: func(seed int64, s sizes, workers int) (*textplot.Table, error) {
		return eval.Acceptance(nil, acceptanceParams(seed, s, workers))
	},
	ops: func(s sizes) int {
		p := eval.DefaultAcceptanceParams()
		n := 0
		for u := p.UStart; u <= p.UEnd+1e-9; u += p.UStep {
			n++
		}
		return n * s.acceptanceSets
	},
	checks: eval.AcceptanceChecks,
}

func acceptanceParams(seed int64, s sizes, workers int) eval.AcceptanceParams {
	p := eval.DefaultAcceptanceParams()
	p.Seed, p.Tasks, p.SetsPerPoint, p.Workers = seed, acceptanceTasks, s.acceptanceSets, workers
	return p
}

// jobSeed is the seed of job i of a run seeded seed.
func jobSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// campaignEnv is a running server and one client connection.
type campaignEnv struct {
	srv *server.Server
	cl  *client
}

// setupCampaign starts the server; it returns the set-up time in seconds.
func setupCampaign() (*campaignEnv, float64, error) {
	start := time.Now()
	srv, base, err := startServer(0)
	if err != nil {
		return nil, 0, err
	}
	return &campaignEnv{srv: srv, cl: newClient(base)}, time.Since(start).Seconds(), nil
}

// setupAgain times one more set-up on a server of its own, which it then
// shuts down.
func setupAgain() (float64, error) {
	env, t, err := setupCampaign()
	if err != nil {
		return 0, err
	}
	env.close()
	return t, nil
}

func (e *campaignEnv) close() {
	e.cl.close()
	e.srv.Shutdown()
}

// jobRun is one job's outcome through the HTTP API.
type jobRun struct {
	latency time.Duration
	result  json.RawMessage
	// oversleep is each poll sleep's lateness.
	oversleep []time.Duration
}

// runJob submits body and polls the job until it finishes.
func (e *campaignEnv) runJob(path string, body []byte) (jobRun, error) {
	var jr jobRun
	start := time.Now()
	var resp bytes.Buffer
	status, err := e.cl.do("POST", path, body, &resp)
	if err != nil {
		return jr, err
	}
	if status != http.StatusAccepted {
		return jr, fmt.Errorf("submit %s: %d %s", path, status, bytes.TrimSpace(resp.Bytes()))
	}
	var sub struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(resp.Bytes(), &sub); err != nil {
		return jr, err
	}
	for {
		var view struct {
			State  string          `json:"state"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		if err := e.cl.getJSON(sub.Status, &view); err != nil {
			return jr, err
		}
		switch view.State {
		case "done":
			jr.latency = time.Since(start)
			jr.result = view.Result
			return jr, nil
		case "failed":
			return jr, fmt.Errorf("job %s failed: %s", sub.Status, view.Error)
		}
		before := time.Now()
		time.Sleep(pollEvery)
		jr.oversleep = append(jr.oversleep, time.Since(before)-pollEvery)
	}
}

// runCampaign measures one campaign workload end to end: jobs back to back
// for the measured window, then the checks against direct runs, with the
// gauge sampling throughout.
func runCampaign(w campaignWorkload, o runOpts, rep *report) error {
	g := startGauge()
	defer g.close()
	env, setup, err := setupCampaign()
	if err != nil {
		return err
	}
	defer env.close()
	// Set-up is timed again after every job, so that setup_s samples the
	// machine all through the run.
	setups := []float64{setup}

	heap := startHeapSampler()
	start := time.Now()
	var lat, rates []float64
	var first, last json.RawMessage
	jobs, lastJob := 0, 0
	for time.Since(start) < time.Duration(o.seconds*float64(time.Second)) || jobs == 0 {
		rep.attempted++
		jr, err := env.runJob(w.path, w.body(jobSeed(o.seed, jobs), o.sizes))
		setup, serr := setupAgain()
		if serr != nil {
			return serr
		}
		setups = append(setups, setup)
		if err != nil {
			rep.failed++
			rep.infof("job %d: %v", jobs, err)
			jobs++
			continue
		}
		if err := checkTable(jr.result, w.checks); err != nil {
			rep.wrong(fmt.Errorf("job %d: %w", jobs, err))
		}
		if jobs == 0 {
			first = jr.result
		}
		last, lastJob = jr.result, jobs
		lat = append(lat, float64(jr.latency)/1e6)
		rates = append(rates, float64(w.ops(o.sizes))/jr.latency.Seconds())
		jobs++
	}
	elapsed := time.Since(start)
	rep.set("heap_live_mb", heap.finish())
	t := tailOf(lat, tailP)
	rep.set("p50_ms", median(lat))
	rep.set("tail_ms", t.Value)
	rep.set("ops_per_s", median(rates))
	rep.infof("%d jobs (%d ops each) in %.3f s; p50=%.3f ms p%d=%.3f ms (n=%d, %d beyond)",
		jobs, w.ops(o.sizes), elapsed.Seconds(), median(lat), t.P, t.Value, t.N, t.Beyond)

	// The first and last job must match a serial in-process run byte for byte.
	for _, c := range []struct {
		i   int
		raw json.RawMessage
	}{{0, first}, {lastJob, last}} {
		if c.raw == nil {
			continue
		}
		if err := sameAsDirect(w, jobSeed(o.seed, c.i), o.sizes, c.raw); err != nil {
			rep.wrong(fmt.Errorf("job %d: %w", c.i, err))
		}
	}

	rep.set("setup_s", median(setups))
	rep.infof("set-up: median of %d", len(setups))
	rep.toReference(g)
	return nil
}

// sameAsDirect compares a job's table with a Workers: 1 in-process run.
func sameAsDirect(w campaignWorkload, seed int64, s sizes, raw json.RawMessage) error {
	tbl, err := w.direct(seed, s, 1)
	if err != nil {
		return err
	}
	want, err := json.Marshal(tbl)
	if err != nil {
		return err
	}
	if err := sameJSON(raw, want); err != nil {
		return fmt.Errorf("table differs from a direct Workers: 1 run: %w", err)
	}
	return nil
}
