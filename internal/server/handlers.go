package server

import (
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
	"fnpr/internal/wire"
)

// routes builds the service mux from handlers. Method+pattern routing is
// Go 1.22 ServeMux.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	for pattern, h := range s.handlers() {
		mux.Handle(pattern, h)
	}
	return mux
}

// handlers maps every route pattern to its handler. The debug tree (expvar
// + pprof) is the same mux the -debug-addr flag serves stand-alone.
func (s *Server) handlers() map[string]http.Handler {
	hs := map[string]http.Handler{
		"GET /healthz":        http.HandlerFunc(s.handleHealthz),
		"GET /readyz":         http.HandlerFunc(s.handleReadyz),
		"POST /v1/analyze":    s.instrument("analyze", s.handleAnalyze),
		"POST /v1/analyzeset": s.instrument("analyzeset", s.handleAnalyzeSet),
		"GET /v1/jobs":        s.instrument("jobs", s.handleJobs),
		"GET /v1/jobs/{id}":   s.instrument("jobs", s.handleJob),
		"/debug/":             obs.DebugMux(s.cfg.Registry),
	}
	for kind := range campaigns {
		hs["POST /v1/campaign/"+kind] = s.instrument("campaign", s.handleCampaign(kind))
	}
	return hs
}

// handleHealthz is liveness: the process is up and serving. It stays 200
// during drain — the process is alive; readiness is what flips.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	respondStatus(w, http.StatusOK, "ok")
}

// handleReadyz is readiness: 200 only while the server admits work. It goes
// 503 the moment a drain begins, so load balancers stop routing before the
// admission paths start answering 429.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		respondStatus(w, http.StatusServiceUnavailable, "draining")
	case !s.ready.Load():
		respondStatus(w, http.StatusServiceUnavailable, "starting")
	default:
		respondStatus(w, http.StatusOK, "ready")
	}
}

// maxBody bounds a request body. A larger body is refused with 400, never
// truncated.
const maxBody = 1 << 20

// readBody reads a request body, at most maxBody bytes, into a buffer sized
// from Content-Length. Every POST handler decodes the raw bytes through its
// wire field table; a campaign body is also the job's durable parameter
// record, and recovery re-decodes the same bytes through the same function.
func readBody(r *http.Request) ([]byte, error) {
	size := int64(512)
	if r.ContentLength >= 0 {
		// One byte over the body, so the read that meets EOF needs no growth.
		size = min(r.ContentLength, maxBody) + 1
	}
	buf := make([]byte, 0, size)
	body := io.LimitReader(r.Body, maxBody+1)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, guard.Invalidf("server: reading request body: %v", err)
		}
	}
	if len(buf) > maxBody {
		return nil, guard.Invalidf("server: request body exceeds the 1 MiB limit")
	}
	return buf, nil
}

// decodeBody strictly decodes a request body through its field table:
// unknown and repeated fields are invalid input (400), catching typoed
// parameters instead of silently defaulting.
func decodeBody[T any](body []byte, v *T, fields wire.Fields[T]) error {
	if err := wire.Decode(body, v, fields); err != nil {
		return guard.Invalidf("server: decoding request body: %v", err)
	}
	return nil
}

// limits reads a request's ?timeout= and ?budget=: the wall-clock deadline
// clamped by the server maximum, the step budget clamped by defBudget (the
// endpoint default, itself clamped by MaxBudget).
func (s *Server) limits(r *http.Request, defBudget int64) (time.Duration, int64, error) {
	timeout := s.cfg.MaxTimeout
	if v := r.URL.Query().Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return 0, 0, guard.Invalidf("server: bad timeout %q (want a positive duration like 5s)", v)
		}
		timeout = min(timeout, d)
	}
	budget := defBudget
	if v := r.URL.Query().Get("budget"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 {
			return 0, 0, guard.Invalidf("server: bad budget %q (want a positive step count)", v)
		}
		budget = min(budget, n)
	}
	return timeout, budget, nil
}

// reqGuard builds the per-request guard scope from the request's limits.
// The cancel func must be deferred by the caller.
func (s *Server) reqGuard(r *http.Request, defBudget int64) (*guard.Ctx, context.CancelFunc, error) {
	timeout, budget, err := s.limits(r, defBudget)
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithCancel(r.Context())
	return guard.New(ctx).WithTimeout(timeout).WithBudget(budget).WithObs(s.sc), cancel, nil
}

// admitAnalyze is the synchronous endpoints' admission check: draining or a
// saturated concurrency limit refuses immediately with ErrOverload. The
// release func is non-nil exactly when admission succeeded.
func (s *Server) admitAnalyze() (func(), error) {
	if s.draining.Load() || !s.ready.Load() {
		mShed.On(s.sc).Inc()
		return nil, guard.Overloadf("server: draining, not admitting requests")
	}
	select {
	case s.analyzeSem <- struct{}{}:
		mAdmitted.On(s.sc).Inc()
		return func() { <-s.analyzeSem }, nil
	default:
		mRejected.On(s.sc).Inc()
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

var analyzeFields = wire.Fields[analyzeRequest]{
	{Name: "delay", Read: func(r *wire.Reader, v *analyzeRequest) { spec.ReadDelay(r, &v.Delay) }},
	{Name: "c", Read: func(r *wire.Reader, v *analyzeRequest) { r.Float(&v.C) }},
	{Name: "q", Read: func(r *wire.Reader, v *analyzeRequest) { r.Float(&v.Q) }},
	{Name: "method", Read: func(r *wire.Reader, v *analyzeRequest) { r.String(&v.Method) }},
	{Name: "limited", Read: func(r *wire.Reader, v *analyzeRequest) { r.Bool(&v.Limited) }},
	{Name: "max_preemptions", Read: func(r *wire.Reader, v *analyzeRequest) { r.Int(&v.MaxPreemptions) }},
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	release, err := s.admitAnalyze()
	if err != nil {
		s.fail(w, err)
		return
	}
	defer release()
	body, err := readBody(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	var req analyzeRequest
	if err := decodeBody(body, &req, analyzeFields); err != nil {
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
	res, err := guard.Run(g, func() string { return "analyze" }, func() (core.Result, error) {
		return core.Analyze(g, fn, req.Q, core.Options{
			Method: method, Limited: req.Limited, MaxPreemptions: req.MaxPreemptions,
			Memo: s.memo,
		})
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	jw := newBody()
	jw.BeginObject()
	// Advisory, present only on a hit: a cold cache-enabled response stays
	// byte-identical to an uncached one.
	if res.Cached {
		jw.Key("cached")
		jw.Bool(true)
	}
	jw.Key("diverged")
	jw.Bool(res.Diverged)
	jw.Key("preemptions")
	jw.Int(res.Preemptions)
	jw.Key("steps")
	jw.Int64(g.Steps())
	jw.Key("total_delay")
	jw.Float(res.TotalDelay)
	jw.EndObject()
	respond(w, http.StatusOK, jw)
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

var analyzeSetFields = wire.Fields[analyzeSetRequest]{
	{Name: "spec", Read: func(r *wire.Reader, v *analyzeSetRequest) { spec.ReadFile(r, &v.Spec) }},
	{Name: "qs", Read: func(r *wire.Reader, v *analyzeSetRequest) { r.Floats(&v.Qs) }},
	{Name: "delta", Read: func(r *wire.Reader, v *analyzeSetRequest) { r.Bool(&v.Delta) }},
}

func (s *Server) handleAnalyzeSet(w http.ResponseWriter, r *http.Request) {
	release, err := s.admitAnalyze()
	if err != nil {
		s.fail(w, err)
		return
	}
	defer release()
	body, err := readBody(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	var req analyzeSetRequest
	if err := decodeBody(body, &req, analyzeSetFields); err != nil {
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
	if s.cfg.WrapDelay != nil {
		for i, f := range prob.Delay {
			if f != nil {
				prob.Delay[i] = s.cfg.WrapDelay(f, g, cancel)
			}
		}
	}
	opts := eval.SweepOptions{Qs: qs, Obs: s.sc}
	if req.Delta {
		opts.Memo = s.memo
	}
	res, err := guard.Run(g, func() string { return "analyzeset" }, func() ([]eval.SweepResult, error) {
		if req.Spec.AssignQ {
			if err := prob.AssignQ(g); err != nil {
				return nil, err
			}
		}
		return eval.AnalyzeSet(g, prob.Tasks, prob.Delay, opts)
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	var reused, recomputed int
	if req.Delta {
		// Mirror the sweep.analyzeset.{reused,recomputed} counters: only
		// analyzed terms count — tasks without a delay function have
		// nothing to compute, and undone (quarantined) points decided
		// nothing.
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
	}
	jw := newBody()
	jw.BeginObject()
	jw.Key("policy")
	jw.String(prob.Policy)
	jw.Key("qs")
	jw.Floats(qs)
	if req.Delta {
		jw.Key("recomputed")
		jw.Int(recomputed)
	}
	jw.Key("results")
	wire.Array(jw, res, func(jw *wire.Writer, r eval.SweepResult) { r.WriteJSON(jw) })
	if req.Delta {
		jw.Key("reused")
		jw.Int(reused)
	}
	jw.Key("steps")
	jw.Int64(g.Steps())
	jw.EndObject()
	respond(w, http.StatusOK, jw)
}

// acceptanceBody is an acceptance submission: the campaign parameters, plus
// the checkpoint journal it names inside the server's -journal-dir (a bare
// file name, no path separators) and whether to resume the points that
// journal already holds.
type acceptanceBody struct {
	eval.AcceptanceParams
	journal string
	resume  bool
}

var acceptanceFields = wire.Fields[acceptanceBody]{
	{Name: "seed", Read: func(r *wire.Reader, v *acceptanceBody) { r.Int64(&v.Seed) }},
	{Name: "sets_per_point", Read: func(r *wire.Reader, v *acceptanceBody) { r.Int(&v.SetsPerPoint) }},
	{Name: "tasks", Read: func(r *wire.Reader, v *acceptanceBody) { r.Int(&v.Tasks) }},
	{Name: "u_start", Read: func(r *wire.Reader, v *acceptanceBody) { r.Float(&v.UStart) }},
	{Name: "u_end", Read: func(r *wire.Reader, v *acceptanceBody) { r.Float(&v.UEnd) }},
	{Name: "u_step", Read: func(r *wire.Reader, v *acceptanceBody) { r.Float(&v.UStep) }},
	{Name: "delay_scale", Read: func(r *wire.Reader, v *acceptanceBody) { r.Float(&v.DelayScale) }},
	{Name: "q_fraction", Read: func(r *wire.Reader, v *acceptanceBody) { r.Float(&v.QFraction) }},
	{Name: "workers", Read: func(r *wire.Reader, v *acceptanceBody) { r.Int(&v.Workers) }},
	{Name: "journal", Read: func(r *wire.Reader, v *acceptanceBody) { r.String(&v.journal) }},
	{Name: "resume", Read: func(r *wire.Reader, v *acceptanceBody) { r.Bool(&v.resume) }},
}

var monteCarloFields = wire.Fields[eval.MonteCarloParams]{
	{Name: "seed", Read: func(r *wire.Reader, v *eval.MonteCarloParams) { r.Int64(&v.Seed) }},
	{Name: "trials", Read: func(r *wire.Reader, v *eval.MonteCarloParams) { r.Int(&v.Trials) }},
	{Name: "max_tasks", Read: func(r *wire.Reader, v *eval.MonteCarloParams) { r.Int(&v.MaxTasks) }},
	{Name: "horizon", Read: func(r *wire.Reader, v *eval.MonteCarloParams) { r.Float(&v.Horizon) }},
	{Name: "workers", Read: func(r *wire.Reader, v *eval.MonteCarloParams) { r.Int(&v.Workers) }},
}

var atlasFields = wire.Fields[eval.AtlasParams]{
	{Name: "seed", Read: func(r *wire.Reader, v *eval.AtlasParams) { r.Int64(&v.Seed) }},
	{Name: "qs", Read: func(r *wire.Reader, v *eval.AtlasParams) { r.Floats(&v.Qs) }},
	{Name: "funcs_per_cell", Read: func(r *wire.Reader, v *eval.AtlasParams) { r.Int(&v.FuncsPerCell) }},
	{Name: "c", Read: func(r *wire.Reader, v *eval.AtlasParams) { r.Float(&v.C) }},
	{Name: "max_states", Read: func(r *wire.Reader, v *eval.AtlasParams) { r.Int(&v.MaxStates) }},
	{Name: "workers", Read: func(r *wire.Reader, v *eval.AtlasParams) { r.Int(&v.Workers) }},
}

// decode strictly decodes a campaign submission body over its kind's eval
// defaults and validates the result. journal and resume are what the body
// asked for; only acceptance bodies can ask.
type decode func(body []byte) (camp eval.Campaign, journal string, resume bool, err error)

// campaigns is the one table of campaign kinds. The mux serves
// POST /v1/campaign/<kind> from it and recovery rebuilds interrupted jobs
// through it, so a live submission and its replay decode identically.
var campaigns = map[string]decode{
	"acceptance": func(body []byte) (eval.Campaign, string, bool, error) {
		v := acceptanceBody{AcceptanceParams: eval.DefaultAcceptanceParams()}
		if err := decodeBody(body, &v, acceptanceFields); err != nil {
			return nil, "", false, err
		}
		return v.AcceptanceParams, v.journal, v.resume, v.Validate()
	},
	"montecarlo": decodeParams(eval.DefaultMonteCarloParams, monteCarloFields),
	"atlas":      decodeParams(eval.DefaultAtlasParams, atlasFields),
}

// decodeParams is the decode of a kind whose body holds its parameters and
// nothing else.
func decodeParams[T eval.Campaign](defaults func() T, fields wire.Fields[T]) decode {
	return func(body []byte) (eval.Campaign, string, bool, error) {
		p := defaults()
		if err := decodeBody(body, &p, fields); err != nil {
			return nil, "", false, err
		}
		return p, "", false, p.Validate()
	}
}

// handleCampaign serves POST /v1/campaign/<kind>: it decodes the body
// through the kind's campaigns entry, builds the job, runs admission control
// and answers 202 with the job's polling URL — or 429 immediately when the
// queue refuses it. An Idempotency-Key header that matches a previous
// submission with identical result-determining parameters answers 200 with
// the existing job instead of starting a duplicate (deduplicated: true),
// which is how clients safely retry a submit whose ack they never saw (crash
// inside the ack window).
func (s *Server) handleCampaign(kind string) http.HandlerFunc {
	decode := campaigns[kind]
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(r)
		if err != nil {
			s.fail(w, err)
			return
		}
		camp, name, resume, err := decode(body)
		if err != nil {
			s.fail(w, err)
			return
		}
		journalPath, err := s.journalPath(name, resume)
		if err != nil {
			s.fail(w, err)
			return
		}
		timeout, budget, err := s.limits(r, s.cfg.CampaignBudget)
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
		status, ack := http.StatusAccepted, j
		if prev := j.existing; prev != nil {
			status, ack = http.StatusOK, prev
		}
		jw := newBody()
		jw.BeginObject()
		if ack != j {
			jw.Key("deduplicated")
			jw.Bool(true)
		}
		jw.Key("id")
		jw.String(ack.id)
		jw.Key("kind")
		jw.String(ack.kind)
		jw.Key("status")
		jw.String("/v1/jobs/" + ack.id)
		jw.EndObject()
		respond(w, status, jw)
	}
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
		respondErr(w, http.StatusNotFound, "invalid", fmt.Sprintf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}
