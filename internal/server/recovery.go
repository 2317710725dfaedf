package server

import (
	"encoding/json"
	"time"

	"fnpr/internal/eval"
	"fnpr/internal/guard"
)

// Startup recovery: replay the durable job store into the in-memory
// registry. Terminal jobs (done/failed) are re-registered with their
// persisted result or error so clients can still poll them after a restart
// (counter server.jobs.reloaded). Jobs that were queued or running when the
// previous process died left no terminal record — they are rebuilt from
// their persisted parameters and re-enqueued with resume semantics (counter
// server.jobs.recovered): the checkpoint journal replays the points already
// computed and campaign determinism recomputes the rest, so the final table
// is byte-identical to an uninterrupted run. The state machine is documented
// in DESIGN.md §13.

// recoverStore opens the job store (when DataDir is configured) and replays
// it. Called from Start before the worker pool and listener come up, so
// every recovered job is registered before the first request can land.
func (s *Server) recoverStore() error {
	if s.cfg.DataDir == "" {
		return nil
	}
	st, recs, err := openStore(s.cfg.DataDir, s.cfg.FS)
	if err != nil {
		return err
	}
	var pending []*job
	s.mu.Lock()
	s.store = st
	for _, r := range recs {
		if n := seqOf(r.ID); n > s.jobSeq {
			s.jobSeq = n
		}
		j := s.jobFromRecord(r)
		s.jobs[j.id] = j
		if j.idemKey != "" {
			s.idem[j.idemKey] = j.id
		}
		if r.terminal() {
			mJobsReloaded.On(s.sc).Inc()
			continue
		}
		mJobsRecovered.On(s.sc).Inc()
		pending = append(pending, j)
	}
	s.mu.Unlock()
	if len(pending) > 0 {
		go s.enqueueRecovered(pending)
	}
	return nil
}

// jobFromRecord rebuilds a job from its latest manifest record. Terminal
// records carry their payload verbatim (the result is re-served as raw
// JSON); interrupted records get their campaign re-decoded from the
// persisted submission parameters and are marked for resume. A record whose
// parameters no longer decode (e.g. a manifest written by a newer build)
// re-registers as failed rather than being dropped silently.
func (s *Server) jobFromRecord(r jobRecord) *job {
	j := &job{
		id: r.ID, kind: r.Kind,
		fingerprint: r.Fingerprint, idemKey: r.IdemKey,
		params: r.Params, journalPath: r.Journal,
		timeout: time.Duration(r.TimeoutNS), budget: r.Budget,
		recovered: true,
	}
	if j.timeout <= 0 {
		j.timeout = s.cfg.MaxTimeout
	}
	if j.budget <= 0 {
		j.budget = s.cfg.CampaignBudget
	}
	finished := time.Now()
	if r.Finished > 0 {
		finished = time.Unix(0, r.Finished)
	}
	if r.terminal() {
		j.state = r.State
		j.errText, j.code = r.Error, r.Code
		if len(r.Result) > 0 {
			j.result = r.Result
		}
		j.finished = finished
		return j
	}
	camp, err := rebuildCampaign(r.Kind, r.Params)
	if err != nil {
		j.state = jobFailed
		j.finished = finished
		j.err = guard.Invalidf("server: recovering job %s: %v", r.ID, err)
		s.persist(j)
		return j
	}
	j.camp = camp
	j.state = jobQueued
	// Resume from the checkpoint journal regardless of what the original
	// submission asked: the journal holds exactly this job's completed
	// points (fresh submissions truncated any stale file before running).
	j.resume = j.journalPath != ""
	return j
}

// enqueueRecovered feeds recovered jobs back into the worker queue. Recovered
// jobs can outnumber the queue capacity, so each send is a non-blocking
// attempt under mu (never a blocking send that could race close(queue)),
// retried until a worker frees a slot. If the server begins draining first,
// the remaining jobs simply stay queued in memory — their manifest records
// are still non-terminal, so the next startup recovers them again.
func (s *Server) enqueueRecovered(jobs []*job) {
	for _, j := range jobs {
		for {
			s.mu.Lock()
			if s.qclosed {
				s.mu.Unlock()
				return
			}
			select {
			case s.queue <- j:
				mQueueDepth.On(s.sc).Add(1)
				s.mu.Unlock()
			default:
				s.mu.Unlock()
				time.Sleep(5 * time.Millisecond)
				continue
			}
			break
		}
	}
}

// rebuildCampaign re-decodes a persisted submission body through its kind's
// entry in the campaigns table, exactly as the original submission was
// decoded (defaults, strict decoding, validation). The journal/resume fields
// inside the body are ignored — the manifest record's Journal path is
// authoritative for recovery.
func rebuildCampaign(kind string, params json.RawMessage) (eval.Campaign, error) {
	decode, ok := campaigns[kind]
	if !ok {
		return nil, guard.Invalidf("server: unknown campaign kind %q in job store", kind)
	}
	camp, _, _, err := decode(params)
	return camp, err
}
