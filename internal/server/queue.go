package server

import (
	"encoding/json"
	"errors"
	"os"
	"sync"
	"time"

	"fnpr/internal/eval"
	"fnpr/internal/fsfault"
	"fnpr/internal/journal"
)

// Job states. A job moves queued → running → done | failed; there are no
// other transitions. Failed jobs carry the error and its machine-readable
// code in their view. A job recovered from the durable store re-enters the
// same machine: terminal records re-register as done/failed, interrupted
// records re-enter at queued (with resume semantics).
const (
	jobQueued  = "queued"
	jobRunning = "running"
	jobDone    = "done"
	jobFailed  = "failed"
	// jobEvicted is a manifest-only tombstone: an evicted job's last record
	// carries this state so a restart does not resurrect it. It never appears
	// in the in-memory registry or on the wire.
	jobEvicted = "evicted"
)

// job is one queued or running campaign. The identity fields are written
// once at submit (or at recovery); mu guards the mutable
// state/result/err/finished quadruple. camp is read only by the worker that
// runs the job, and finish drops it.
type job struct {
	id          string
	kind        string
	camp        eval.Campaign
	fingerprint string
	idemKey     string
	// params is the submission's wire-form body, persisted to the manifest
	// so recovery can rebuild camp by re-decoding it.
	params      json.RawMessage
	journalPath string
	resume      bool
	// recovered marks a job the durable store restored after a restart —
	// either re-registered (terminal) or automatically resumed.
	recovered bool
	timeout   time.Duration
	budget    int64

	// existing is set (instead of an ID) when submit deduplicates against
	// a prior job via the idempotency key; the handler answers with it.
	existing *job

	mu     sync.Mutex
	state  string
	result any
	err    error
	// errText/code carry a recovered failed job's persisted message and
	// machine code — the error object itself does not survive a restart.
	errText  string
	code     string
	finished time.Time
}

func (j *job) setState(st string) {
	j.mu.Lock()
	j.state = st
	j.mu.Unlock()
}

// finish records the terminal state and drops the campaign: a finished
// job keeps only what its view and its manifest record need.
func (j *job) finish(result any, err error) {
	j.mu.Lock()
	j.camp = nil
	if err != nil {
		j.state = jobFailed
		j.err = err
	} else {
		j.state = jobDone
		j.result = result
	}
	j.finished = time.Now()
	j.mu.Unlock()
}

// terminal reports whether the job reached done/failed, and when.
func (j *job) terminal() (bool, time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == jobDone || j.state == jobFailed, j.finished
}

// jobView is the wire form of a job's status.
type jobView struct {
	ID          string `json:"id"`
	Kind        string `json:"kind"`
	State       string `json:"state"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Recovered reports that this job was restored from the durable job
	// store after a restart (terminal jobs re-registered, interrupted jobs
	// automatically resumed).
	Recovered bool   `json:"recovered,omitempty"`
	Error     string `json:"error,omitempty"`
	Code      string `json:"code,omitempty"`
	Result    any    `json:"result,omitempty"`
}

func (j *job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{ID: j.id, Kind: j.kind, State: j.state,
		Fingerprint: j.fingerprint, Recovered: j.recovered, Result: j.result}
	if j.err != nil {
		v.Error = j.err.Error()
		v.Code = eval.ReasonOf(j.err).String()
	} else if j.state == jobFailed {
		// Recovered failed job: the error object did not survive the
		// restart, its message and code did.
		v.Error = j.errText
		v.Code = j.code
	}
	return v
}

// summary is the listing form: everything an operator needs to triage jobs
// after a restart, without the (possibly large) result payload.
func (j *job) summary() jobView {
	v := j.view()
	v.Result = nil
	return v
}

// rec snapshots the job as a manifest record (terminal payload included when
// the job has one).
func (j *job) rec() jobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	r := jobRecord{
		ID: j.id, Kind: j.kind, State: j.state,
		Fingerprint: j.fingerprint, IdemKey: j.idemKey,
		Params: j.params, Journal: j.journalPath, Resume: j.resume,
		TimeoutNS: int64(j.timeout), Budget: j.budget,
	}
	if j.err != nil {
		r.Error = j.err.Error()
		r.Code = eval.ReasonOf(j.err).String()
	} else if j.code != "" {
		r.Error = j.errText
		r.Code = j.code
	}
	if !j.finished.IsZero() {
		r.Finished = j.finished.UnixNano()
	}
	if j.state == jobDone && j.result != nil {
		if data, err := json.Marshal(sanitizeResult(j.result)); err == nil {
			r.Result = data
		}
	}
	return r
}

// openJobJournal opens a campaign's checkpoint journal the same way the CLIs
// do (internal/cli.Limits.OpenJournal): a fresh run removes any stale file so
// the journal always describes exactly one campaign; a resume run replays the
// latest-record view. The server's sync policy and filesystem seam ride in
// through opts.
func openJobJournal(path string, resume bool, opts journal.Options) (*journal.Journal, map[string]json.RawMessage, error) {
	if !resume {
		if err := fsfault.Real(opts.FS).Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, nil, err
		}
	}
	j, recs, err := journal.OpenWith(path, opts)
	if err != nil {
		return nil, nil, err
	}
	if resume {
		return j, journal.Latest(recs), nil
	}
	return j, nil, nil
}

// sanitizeResult rewrites result values whose fields can hold non-finite
// floats (which encoding/json refuses) into a JSON-safe form. Campaign
// tables are always finite; the Monte-Carlo report's MinSlack is +Inf when
// no job was ever preempted. Results reloaded from the durable store are
// already-sanitized raw JSON and pass through.
func sanitizeResult(v any) any {
	rep, ok := v.(*eval.MonteCarloReport)
	if !ok || rep == nil {
		return v
	}
	return map[string]any{
		"trials":      rep.Trials,
		"jobs":        rep.Jobs,
		"preemptions": rep.Preemptions,
		"violations":  rep.Violations,
		"max_paid":    jsonNum(rep.MaxPaid),
		"min_slack":   jsonNum(rep.MinSlack),
	}
}
