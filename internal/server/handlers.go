package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"fnpr/internal/core"
	"fnpr/internal/eval"
	"fnpr/internal/guard"
	"fnpr/internal/obs"
	"fnpr/internal/spec"
)

// routes builds the service mux. Method+pattern routing is Go 1.22
// ServeMux; the debug tree (expvar + pprof) is the same mux the -debug-addr
// flag serves stand-alone.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("POST /v1/analyze", s.instrument("analyze", s.handleAnalyze))
	mux.Handle("POST /v1/analyzeset", s.instrument("analyzeset", s.handleAnalyzeSet))
	mux.Handle("POST /v1/campaign/acceptance", s.instrument("campaign", s.handleCampaignAcceptance))
	mux.Handle("POST /v1/campaign/montecarlo", s.instrument("campaign", s.handleCampaignMonteCarlo))
	mux.Handle("POST /v1/campaign/atlas", s.instrument("campaign", s.handleCampaignAtlas))
	mux.Handle("GET /v1/jobs", s.instrument("jobs", s.handleJobs))
	mux.Handle("GET /v1/jobs/{id}", s.instrument("jobs", s.handleJob))
	mux.Handle("/debug/", obs.DebugMux(s.cfg.Registry))
	return mux
}

// handleHealthz is liveness: the process is up and serving. It stays 200
// during drain — the process is alive; readiness is what flips.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleReadyz is readiness: 200 only while the server admits work. It goes
// 503 the moment a drain begins, so load balancers stop routing before the
// admission paths start answering 429.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
	case !s.ready.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "starting"})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
	}
}

// decodeJSON strictly decodes a request body; unknown fields are invalid
// input (400), catching typoed parameters instead of silently defaulting.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return guard.Invalidf("server: decoding request body: %v", err)
	}
	return nil
}

// readBody reads a bounded request body. Campaign handlers read the raw
// bytes (rather than streaming into the decoder) because the submission body
// is also the job's durable parameter record — recovery re-decodes the same
// bytes through the same path.
func readBody(r *http.Request) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		return nil, guard.Invalidf("server: reading request body: %v", err)
	}
	return data, nil
}

// decodeStrict is decodeJSON over raw bytes, shared by the live handlers and
// startup recovery.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return guard.Invalidf("server: decoding request body: %v", err)
	}
	return nil
}

// reqGuard builds the per-request guard scope: the wall-clock deadline comes
// from ?timeout= clamped by the server maximum, the step budget from
// ?budget= clamped by the endpoint default (itself clamped by MaxBudget).
// The cancel func must be deferred by the caller.
func (s *Server) reqGuard(r *http.Request, defBudget int64) (*guard.Ctx, context.CancelFunc, error) {
	timeout := s.cfg.MaxTimeout
	if v := r.URL.Query().Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return nil, nil, guard.Invalidf("server: bad timeout %q (want a positive duration like 5s)", v)
		}
		if d < timeout {
			timeout = d
		}
	}
	budget := defBudget
	if v := r.URL.Query().Get("budget"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 {
			return nil, nil, guard.Invalidf("server: bad budget %q (want a positive step count)", v)
		}
		if n < budget {
			budget = n
		}
	}
	ctx, cancel := context.WithCancel(r.Context())
	g := guard.New(ctx).WithTimeout(timeout).WithBudget(budget).WithObs(s.sc)
	return g, cancel, nil
}

// jobLimits derives a campaign job's wall-clock and budget limits from the
// same query parameters, clamped by the campaign defaults.
func (s *Server) jobLimits(r *http.Request) (time.Duration, int64, error) {
	timeout := s.cfg.MaxTimeout
	if v := r.URL.Query().Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return 0, 0, guard.Invalidf("server: bad timeout %q (want a positive duration like 5s)", v)
		}
		if d < timeout {
			timeout = d
		}
	}
	budget := s.cfg.CampaignBudget
	if v := r.URL.Query().Get("budget"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 {
			return 0, 0, guard.Invalidf("server: bad budget %q (want a positive step count)", v)
		}
		if n < budget {
			budget = n
		}
	}
	return timeout, budget, nil
}

// admitAnalyze is the synchronous endpoints' admission check: draining or a
// saturated concurrency limit refuses immediately with ErrOverload. The
// release func is non-nil exactly when admission succeeded.
func (s *Server) admitAnalyze() (func(), error) {
	if s.draining.Load() || !s.ready.Load() {
		s.sc.Counter("server.shed").Inc()
		return nil, guard.Overloadf("server: draining, not admitting requests")
	}
	select {
	case s.analyzeSem <- struct{}{}:
		s.sc.Counter("server.admitted").Inc()
		return func() { <-s.analyzeSem }, nil
	default:
		s.sc.Counter("server.rejected").Inc()
		return nil, guard.Overloadf("server: analyze concurrency limit (%d) saturated", cap(s.analyzeSem))
	}
}

// analyzeRequest is the wire form of one core.Analyze call.
type analyzeRequest struct {
	// Delay is the function description (internal/spec vocabulary:
	// constant, frontloaded, piecewise, linear, gaussian).
	Delay *spec.Delay `json:"delay"`
	// C is the function's domain (the task's WCET); Q the floating
	// non-preemptive region length.
	C float64 `json:"c"`
	Q float64 `json:"q"`
	// Method is "algorithm1" (default) or "equation4".
	Method string `json:"method,omitempty"`
	// Limited applies the preemption-count refinement (Algorithm 1 only).
	Limited        bool `json:"limited,omitempty"`
	MaxPreemptions int  `json:"max_preemptions,omitempty"`
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	release, err := s.admitAnalyze()
	if err != nil {
		s.fail(w, err)
		return
	}
	defer release()
	var req analyzeRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	if req.Delay == nil {
		s.fail(w, guard.Invalidf("server: missing delay function"))
		return
	}
	var method core.Method
	switch req.Method {
	case "", "algorithm1":
		method = core.Algorithm1
	case "equation4":
		method = core.Equation4
	default:
		s.fail(w, guard.Invalidf("server: unknown method %q (want algorithm1 or equation4)", req.Method))
		return
	}
	fn, err := req.Delay.Build(req.C)
	if err != nil {
		s.fail(w, guard.Invalidf("server: %v", err))
		return
	}
	g, cancel, err := s.reqGuard(r, s.cfg.AnalyzeBudget)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer cancel()
	if s.cfg.WrapDelay != nil {
		fn = s.cfg.WrapDelay(fn, g, cancel)
	}
	res, err := guard.Run(g, "analyze", func() (core.Result, error) {
		return core.Analyze(g, fn, req.Q, core.Options{
			Method: method, Limited: req.Limited, MaxPreemptions: req.MaxPreemptions,
			Memo: s.memo,
		})
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	resp := map[string]any{
		"total_delay": jsonNum(res.TotalDelay),
		"preemptions": res.Preemptions,
		"diverged":    res.Diverged,
		"steps":       g.Steps(),
	}
	// Advisory, present only on a hit: a cold cache-enabled response stays
	// byte-identical to an uncached one.
	if res.Cached {
		resp["cached"] = true
	}
	writeJSON(w, http.StatusOK, resp)
}

// analyzeSetRequest is the wire form of one eval.AnalyzeSet call: a task-set
// specification (the schedtest JSON format) and an optional Q grid.
type analyzeSetRequest struct {
	Spec spec.File `json:"spec"`
	// Qs is the Q grid; empty selects eval.DefaultQGrid().
	Qs []float64 `json:"qs,omitempty"`
	// Delta opts into incremental analysis against the server's result
	// cache (requires -cache): per-task interference terms whose
	// (function, Q) identity is unchanged since an earlier request are
	// reused instead of recomputed, and the response reports the
	// "recomputed"/"reused" split. Values are bit-identical either way.
	Delta bool `json:"delta,omitempty"`
}

func (s *Server) handleAnalyzeSet(w http.ResponseWriter, r *http.Request) {
	release, err := s.admitAnalyze()
	if err != nil {
		s.fail(w, err)
		return
	}
	defer release()
	var req analyzeSetRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	prob, err := req.Spec.Build()
	if err != nil {
		s.fail(w, guard.Invalidf("server: %v", err))
		return
	}
	qs := req.Qs
	if len(qs) == 0 {
		qs = eval.DefaultQGrid()
	}
	if req.Delta && s.memo == nil {
		s.fail(w, guard.Invalidf("server: delta mode requires the result cache (start with -cache)"))
		return
	}
	g, cancel, err := s.reqGuard(r, s.cfg.AnalyzeBudget)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer cancel()
	opts := eval.SweepOptions{Qs: qs, Obs: s.sc}
	if req.Delta {
		opts.Memo = s.memo
	}
	res, err := guard.Run(g, "analyzeset", func() ([]eval.SweepResult, error) {
		return eval.AnalyzeSet(g, prob.Tasks, prob.Delay, opts)
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	resp := map[string]any{
		"policy":  prob.Policy,
		"qs":      qs,
		"results": res,
		"steps":   g.Steps(),
	}
	if req.Delta {
		// Mirror the sweep.analyzeset.{reused,recomputed} counters: only
		// analyzed terms count — tasks without a delay function have
		// nothing to compute, and undone (quarantined) points decided
		// nothing.
		var reused, recomputed int
		for i, r := range res {
			if i < len(prob.Delay) && prob.Delay[i] == nil {
				continue
			}
			for _, pt := range r.Points {
				if !pt.Done {
					continue
				}
				if pt.Cached {
					reused++
				} else {
					recomputed++
				}
			}
		}
		resp["reused"] = reused
		resp["recomputed"] = recomputed
	}
	writeJSON(w, http.StatusOK, resp)
}

// acceptanceRequest is the wire form of an acceptance-campaign submission.
// Omitted fields keep the eval.DefaultAcceptanceParams values.
type acceptanceRequest struct {
	Seed         int64   `json:"seed"`
	SetsPerPoint int     `json:"sets_per_point"`
	Tasks        int     `json:"tasks"`
	UStart       float64 `json:"u_start"`
	UEnd         float64 `json:"u_end"`
	UStep        float64 `json:"u_step"`
	DelayScale   float64 `json:"delay_scale"`
	QFraction    float64 `json:"q_fraction"`
	Workers      int     `json:"workers,omitempty"`
	// Journal names a checkpoint journal inside the server's -journal-dir
	// (a bare file name, no path separators); Resume restores the points it
	// already holds. Requires the server to run with a journal directory.
	Journal string `json:"journal,omitempty"`
	Resume  bool   `json:"resume,omitempty"`
}

// acceptanceFromJSON decodes a submission body (live request or persisted
// manifest record) into validated acceptance parameters, plus the journal
// name and resume flag the body asked for.
func (s *Server) acceptanceFromJSON(body []byte) (eval.AcceptanceParams, string, bool, error) {
	d := eval.DefaultAcceptanceParams()
	req := acceptanceRequest{
		Seed: d.Seed, SetsPerPoint: d.SetsPerPoint, Tasks: d.Tasks,
		UStart: d.UStart, UEnd: d.UEnd, UStep: d.UStep,
		DelayScale: d.DelayScale, QFraction: d.QFraction,
	}
	if err := decodeStrict(body, &req); err != nil {
		return eval.AcceptanceParams{}, "", false, err
	}
	p := eval.AcceptanceParams{
		Seed: req.Seed, SetsPerPoint: req.SetsPerPoint, Tasks: req.Tasks,
		UStart: req.UStart, UEnd: req.UEnd, UStep: req.UStep,
		DelayScale: req.DelayScale, QFraction: req.QFraction,
		Workers: req.Workers, Obs: s.sc,
	}
	if err := p.Validate(); err != nil {
		return eval.AcceptanceParams{}, "", false, err
	}
	return p, req.Journal, req.Resume, nil
}

func (s *Server) handleCampaignAcceptance(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	p, name, resume, err := s.acceptanceFromJSON(body)
	if err != nil {
		s.fail(w, err)
		return
	}
	journalPath, err := s.journalPath(name, resume)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.submitCampaign(w, r, p, body, journalPath, resume)
}

// monteCarloRequest is the wire form of a Monte-Carlo campaign submission.
// Omitted fields keep the eval.DefaultMonteCarloParams values.
type monteCarloRequest struct {
	Seed     int64   `json:"seed"`
	Trials   int     `json:"trials"`
	MaxTasks int     `json:"max_tasks"`
	Horizon  float64 `json:"horizon"`
	Workers  int     `json:"workers,omitempty"`
}

// monteCarloFromJSON decodes a submission body (live request or persisted
// manifest record) into validated Monte-Carlo parameters.
func (s *Server) monteCarloFromJSON(body []byte) (eval.MonteCarloParams, error) {
	d := eval.DefaultMonteCarloParams()
	req := monteCarloRequest{
		Seed: d.Seed, Trials: d.Trials, MaxTasks: d.MaxTasks, Horizon: d.Horizon,
	}
	if err := decodeStrict(body, &req); err != nil {
		return eval.MonteCarloParams{}, err
	}
	p := eval.MonteCarloParams{
		Seed: req.Seed, Trials: req.Trials, MaxTasks: req.MaxTasks,
		Horizon: req.Horizon, Workers: req.Workers, Obs: s.sc,
	}
	if err := p.Validate(); err != nil {
		return eval.MonteCarloParams{}, err
	}
	return p, nil
}

func (s *Server) handleCampaignMonteCarlo(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	p, err := s.monteCarloFromJSON(body)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.submitCampaign(w, r, p, body, "", false)
}

// atlasRequest is the wire form of a pessimism-atlas campaign submission.
// Omitted fields keep the eval.DefaultAtlasParams values.
type atlasRequest struct {
	Seed         int64     `json:"seed"`
	Qs           []float64 `json:"qs,omitempty"`
	FuncsPerCell int       `json:"funcs_per_cell"`
	C            float64   `json:"c"`
	MaxStates    int       `json:"max_states,omitempty"`
	Workers      int       `json:"workers,omitempty"`
}

// atlasFromJSON decodes a submission body (live request or persisted
// manifest record) into validated atlas parameters.
func (s *Server) atlasFromJSON(body []byte) (eval.AtlasParams, error) {
	d := eval.DefaultAtlasParams()
	req := atlasRequest{
		Seed: d.Seed, Qs: d.Qs, FuncsPerCell: d.FuncsPerCell, C: d.C,
	}
	if err := decodeStrict(body, &req); err != nil {
		return eval.AtlasParams{}, err
	}
	p := eval.AtlasParams{
		Seed: req.Seed, Qs: req.Qs, FuncsPerCell: req.FuncsPerCell, C: req.C,
		MaxStates: req.MaxStates, Workers: req.Workers, Obs: s.sc,
	}
	if err := p.Validate(); err != nil {
		return eval.AtlasParams{}, err
	}
	return p, nil
}

func (s *Server) handleCampaignAtlas(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	p, err := s.atlasFromJSON(body)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.submitCampaign(w, r, p, body, "", false)
}

// journalPath resolves and sanitizes a client-supplied journal name: a bare
// file name inside the configured journal directory, nothing else — path
// separators and dot-dot are invalid input, and any journal request against
// a server without a journal directory is refused.
func (s *Server) journalPath(name string, resume bool) (string, error) {
	if name == "" {
		if resume {
			return "", guard.Invalidf("server: resume requires a journal name")
		}
		return "", nil
	}
	if s.cfg.JournalDir == "" {
		return "", guard.Invalidf("server: journaled campaigns disabled (no journal directory configured)")
	}
	if name != filepath.Base(name) || strings.HasPrefix(name, ".") {
		return "", guard.Invalidf("server: journal name %q must be a bare file name", name)
	}
	return filepath.Join(s.cfg.JournalDir, name), nil
}

// submitCampaign builds the job, runs admission control and answers 202 with
// the job's polling URL — or 429 immediately when the queue refuses it. An
// Idempotency-Key header that matches a previous submission with identical
// result-determining parameters answers 200 with the existing job instead of
// starting a duplicate (deduplicated: true), which is how clients safely
// retry a submit whose ack they never saw (crash inside the ack window).
func (s *Server) submitCampaign(w http.ResponseWriter, r *http.Request, camp eval.Campaign, body []byte, journalPath string, resume bool) {
	timeout, budget, err := s.jobLimits(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	j := &job{
		kind: camp.Kind(), camp: camp,
		fingerprint: camp.Fingerprint(),
		idemKey:     r.Header.Get("Idempotency-Key"),
		params:      json.RawMessage(body),
		journalPath: journalPath, resume: resume,
		timeout: timeout, budget: budget,
	}
	if err := s.submit(j); err != nil {
		s.fail(w, err)
		return
	}
	if prev := j.existing; prev != nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"id":           prev.id,
			"kind":         prev.kind,
			"status":       "/v1/jobs/" + prev.id,
			"deduplicated": true,
		})
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":     j.id,
		"kind":   j.kind,
		"status": "/v1/jobs/" + j.id,
	})
}

// handleJobs lists every registered job (newest last) in summary form —
// state, fingerprint, recovered-or-not, error code — without result
// payloads; poll /v1/jobs/{id} for those. After a restart this is the
// operator's view of what the store recovered.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]jobView, 0, len(s.jobs))
	for _, j := range s.jobs {
		views = append(views, j.summary())
	}
	s.mu.Unlock()
	sort.Slice(views, func(i, k int) bool {
		if a, b := seqOf(views[i].ID), seqOf(views[k].ID); a != b {
			return a < b
		}
		return views[i].ID < views[k].ID
	})
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views, "count": len(views)})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobByID(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]any{
			"error": fmt.Sprintf("unknown job %q", id),
			"code":  "invalid",
		})
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}
