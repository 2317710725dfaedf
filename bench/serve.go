package main

import (
	"fmt"
	"time"

	"fnpr/internal/server"
)

// serveWorkload pins one traffic mix against /v1/analyze and /v1/analyzeset.
// Rates are absolute, so a faster program is offered the same load and shows
// it as lower latency, not as more work.
type serveWorkload struct {
	cacheEntries int
	// rates is the open-loop ladder in requests per second: low, reference,
	// high. Latency is reported at the reference rate.
	rates [3]float64
	// warm makes set-up include one pass over the hot set, so the measured
	// window starts with the answers cached.
	warm   bool
	inputs func(seed int64) (*serveInputs, error)
}

// A serve run's measured window opens with the low and high rungs of the
// open-loop ladder, rungShare of it each. The rest is cut into cycles equal
// rounds, each a reference slice (open loop at the reference rate, refShare
// of the round) followed by a capacity slice (closed loop). On a shared
// machine the speed the program gets drifts by tens of percent over seconds
// to minutes; interleaving spreads both measurements over the whole window,
// so a slow stretch weighs on each alike instead of on whichever phase it
// happened to hit.
const (
	rungShare = 0.05
	cycles    = 10
	refShare  = 0.65
)

// maxOversleepP99 is the generator's own lateness above which its latencies
// start to measure the machine's scheduler rather than the program; a run
// past it says so.
const maxOversleepP99 = 5 * time.Millisecond

// serveEnv is a running server plus the workload's inputs.
type serveEnv struct {
	w    serveWorkload
	in   *serveInputs
	seed int64
	srv  *server.Server
	base string
}

// setupServe makes the workload's inputs for seed and starts its server; it
// returns the set-up time in seconds.
func setupServe(w serveWorkload, seed int64) (*serveEnv, float64, error) {
	in, err := w.inputs(seed)
	if err != nil {
		return nil, 0, err
	}
	env := &serveEnv{w: w, in: in, seed: seed}
	t, err := env.start()
	if err != nil {
		return nil, 0, err
	}
	return env, t, nil
}

// start brings up the server (and, for serve-hot, warms its cache over the
// hot set); it returns the time that took in seconds.
func (e *serveEnv) start() (float64, error) {
	start := time.Now()
	srv, base, err := startServer(e.w.cacheEntries)
	if err != nil {
		return 0, err
	}
	e.srv, e.base = srv, base
	if e.w.warm {
		if err := e.warmUp(); err != nil {
			srv.Close()
			return 0, err
		}
	}
	return time.Since(start).Seconds(), nil
}

// setupAgain times one more set-up on a server of its own, which it then
// shuts down.
func (e *serveEnv) setupAgain() (float64, error) {
	other := &serveEnv{w: e.w, in: e.in, seed: e.seed}
	t, err := other.start()
	if err != nil {
		return 0, err
	}
	other.close()
	return t, nil
}

// warmUp sends every warm-up request once on one connection.
func (e *serveEnv) warmUp() error {
	c := newServeConn(e.base, e.in, e.seed)
	defer c.close()
	for _, r := range e.in.warm {
		c.prepareReq(r)
		if !c.sendPrepared(false) {
			return fmt.Errorf("bench: warm-up request to %s failed", c.path)
		}
	}
	return nil
}

func (e *serveEnv) close() { e.srv.Shutdown() }

// conns opens the generator's connections.
func (e *serveEnv) conns(n int) ([]conn, []*serveConn) {
	var cs []conn
	var scs []*serveConn
	for i := 0; i < n; i++ {
		c := newServeConn(e.base, e.in, e.seed)
		cs = append(cs, c)
		scs = append(scs, c)
	}
	return cs, scs
}

// phase is one open-loop rung's outcome.
type phase struct {
	name    string
	rate    float64
	samples []sample
}

func (p phase) latenciesMs() []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.ok {
			out = append(out, float64(s.latency())/1e6)
		}
	}
	return out
}

func (p phase) failed() int {
	n := 0
	for _, s := range p.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// rung sends rate×seconds open-loop requests (at least one) numbered from
// *next, and advances *next past them.
func rung(clk clock, cs []conn, next *int, name string, rate, seconds float64) phase {
	n := int(rate * seconds)
	if n < 1 {
		n = 1
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := clk.now() + 5*time.Millisecond
	p := phase{name: name, rate: rate, samples: openLoop(clk, cs, *next, n, start, interval)}
	*next += n
	return p
}

// window is a serve run's measured window.
type window struct {
	// rungs are the low, reference and high rungs; the reference rung holds
	// the samples of every reference slice.
	rungs [3]phase
	// rates is each capacity slice's closed-loop throughput in req/s.
	rates                   []float64
	capCompleted, capFailed int
}

// measure runs the measured window, seconds long: the low and high rungs,
// then the rounds of reference and capacity slices, calling between after
// each slice.
func measure(clk clock, cs []conn, rates [3]float64, seconds float64, between func()) window {
	var w window
	next := 0
	w.rungs[0] = rung(clk, cs, &next, "low", rates[0], seconds*rungShare)
	w.rungs[2] = rung(clk, cs, &next, "high", rates[2], seconds*rungShare)
	w.rungs[1] = phase{name: "reference", rate: rates[1]}
	round := seconds * (1 - 2*rungShare) / cycles
	for k := 0; k < cycles; k++ {
		s := rung(clk, cs, &next, "reference", rates[1], round*refShare)
		w.rungs[1].samples = append(w.rungs[1].samples, s.samples...)
		between()
		start := clk.now()
		n, bad := closedLoop(clk, cs, next, 0, start+time.Duration(round*(1-refShare)*float64(time.Second)))
		w.rates = append(w.rates, float64(n)/(clk.now()-start).Seconds())
		w.capCompleted, w.capFailed, next = w.capCompleted+n, w.capFailed+bad, next+n
		between()
	}
	return w
}

// ladder runs the three rungs back to back, each with about as many requests
// as a measured window sends at its rate, numbering requests from first; it
// returns the rungs and the next request number. The traced run reads the
// registry's counters over it, so they repeat exactly for a given seed.
func (e *serveEnv) ladder(clk clock, cs []conn, first int, seconds float64) ([]phase, int) {
	next := first
	ref := seconds * (1 - 2*rungShare) * refShare
	out := []phase{
		rung(clk, cs, &next, "low", e.w.rates[0], seconds*rungShare),
		rung(clk, cs, &next, "reference", e.w.rates[1], ref),
		rung(clk, cs, &next, "high", e.w.rates[2], seconds*rungShare),
	}
	return out, next
}

// runServe measures one serve workload end to end: the measured window,
// then the answer checks, with the gauge sampling throughout.
func runServe(w serveWorkload, o runOpts, rep *report) error {
	g := startGauge()
	defer g.close()
	env, setup, err := setupServe(w, o.seed)
	if err != nil {
		return err
	}
	defer env.close()

	cs, scs := env.conns(maxConns)
	defer func() {
		for _, c := range scs {
			c.close()
		}
	}()
	// Set-up is timed again after every slice of the window, so that setup_s
	// samples the machine all through the run.
	setups := []float64{setup}
	between := func() {
		if err == nil {
			setup, err = env.setupAgain()
			setups = append(setups, setup)
		}
	}
	heap := startHeapSampler()
	win := measure(newRealClock(), cs, w.rates, o.seconds, between)
	rep.set("heap_live_mb", heap.finish())
	if err != nil {
		return err
	}

	var oversleep []float64
	for _, p := range win.rungs {
		oversleep = append(oversleep, rep.account(p)...)
		lat := p.latenciesMs()
		t := tailOf(lat, 99)
		var lags []time.Duration
		for _, s := range p.samples {
			lags = append(lags, s.lag())
		}
		end, growing := backlogGrowing(lags, 10*time.Millisecond)
		rep.infof("phase %-9s rate=%g req/s sent=%d failed=%d p50=%.4f ms p%d=%.4f ms (n=%d, %d beyond) backlog_end=%.3f ms growing=%v",
			p.name, p.rate, len(p.samples), p.failed(), median(lat), t.P, t.Value, t.N, t.Beyond,
			float64(end)/1e6, growing)
	}
	ref := win.rungs[1].latenciesMs()
	rep.set("p50_ms", median(ref))
	t := tailOf(ref, tailP)
	rep.set("tail_ms", t.Value)
	rep.infof("reference tail: p%d=%.4f ms (n=%d, %d beyond)", t.P, t.Value, t.N, t.Beyond)
	rep.attempted += int64(win.capCompleted)
	rep.failed += int64(win.capFailed)
	rep.set("ops_per_s", median(win.rates))
	rep.infof("capacity: %d requests in %d slices on %d connections, %d failed; req/s per slice %.1f",
		win.capCompleted, len(win.rates), len(cs), win.capFailed, win.rates)

	p50, p99 := percentile(oversleep, 50), percentile(oversleep, 99)
	rep.infof("generator oversleep p50=%.1f us p99=%.1f us", p50, p99)
	if p99 > float64(maxOversleepP99)/1e3 {
		rep.infof("WARNING: generator p99 oversleep exceeds %v: the machine is short of CPU and these latencies are suspect", maxOversleepP99)
	}

	var ks []kept
	for _, c := range scs {
		ks = append(ks, c.kept...)
	}
	checkAnswers(rep, env.in, ks)
	rep.infof("answer check: %d sampled answers compared with direct computation", len(ks))

	rep.set("setup_s", median(setups))
	rep.infof("set-up: median of %d", len(setups))
	rep.toReference(g)
	return nil
}

// account adds an open-loop phase's requests to the report and returns each
// request's generator oversleep in microseconds.
func (r *report) account(p phase) []float64 {
	r.attempted += int64(len(p.samples))
	r.failed += int64(p.failed())
	var out []float64
	for _, s := range p.samples {
		out = append(out, float64(s.oversleep())/1e3)
	}
	return out
}
