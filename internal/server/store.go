package server

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"fnpr/internal/fsfault"
	"fnpr/internal/guard"
	"fnpr/internal/journal"
)

// The durable job store: a WAL-style manifest under the server's -data-dir
// that records every campaign submission and each of its state transitions
// (queued → running → done | failed) as checksummed journal records, fsynced
// per record — when the submit endpoint acks 202, the job exists on disk.
//
// The manifest reuses internal/journal's record format (one "job:<id>" key
// per job, last write winning), so the same torn-tail/corruption salvage that
// protects campaign checkpoints protects the job ledger: a kill -9 mid-append
// costs at most the record being written, never the file.
//
// On startup the server replays the manifest: jobs whose last record is
// terminal (done/failed) are re-registered with their persisted result or
// error, and jobs that were queued or running when the process died are
// automatically re-enqueued with resume semantics — their checkpoint journal
// replays the completed points and determinism recomputes the rest, so the
// final table is byte-identical to an uninterrupted run.

// manifestName is the job ledger's file name inside the data directory;
// jobJournalDir holds the per-job campaign checkpoint journals.
const (
	manifestName  = "jobs.manifest"
	jobJournalDir = "journals"
)

// jobRecord is the wire form of one manifest entry — the full durable state
// of a job at one transition. Terminal records carry the result or error;
// earlier fields are repeated on every transition so a single (latest)
// record reconstructs the job.
type jobRecord struct {
	ID          string `json:"id"`
	Kind        string `json:"kind"`
	State       string `json:"state"`
	Fingerprint string `json:"fp"`
	IdemKey     string `json:"idem,omitempty"`
	// Params is the submission's wire-form request body; recovery rebuilds
	// the campaign by re-decoding it exactly as the handler did.
	Params json.RawMessage `json:"params,omitempty"`
	// Journal is the campaign checkpoint journal path; Resume records
	// whether the submission itself asked for resume semantics.
	Journal string `json:"journal,omitempty"`
	Resume  bool   `json:"resume,omitempty"`
	// TimeoutNS and Budget are the job's guard limits, preserved across
	// recovery so a resumed job runs under the caps it was admitted with.
	TimeoutNS int64 `json:"timeout_ns,omitempty"`
	Budget    int64 `json:"budget,omitempty"`
	// Terminal-state payload.
	Error    string          `json:"error,omitempty"`
	Code     string          `json:"code,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	Finished int64           `json:"finished,omitempty"` // unix nanoseconds
}

// terminal reports whether the record's state needs no further work.
func (r jobRecord) terminal() bool { return r.State == jobDone || r.State == jobFailed }

// store is the open job manifest plus the directory layout around it.
type store struct {
	dir      string
	manifest *journal.Journal

	closeOnce sync.Once
	closeErr  error
}

// openStore opens (or initialises) the job store under dir and returns the
// latest record of every job it holds, sorted by job ID. The manifest is a
// write-ahead log: every append is fsynced before the caller proceeds
// (journal.Options.SyncEvery = 1), so an acked submission survives kill -9.
func openStore(dir string, fs fsfault.FS) (*store, []jobRecord, error) {
	fs = fsfault.Real(fs)
	if err := fs.MkdirAll(filepath.Join(dir, jobJournalDir), 0o755); err != nil {
		return nil, nil, guard.Storagef(err, "server: creating data dir %s", dir)
	}
	m, recs, err := journal.OpenWith(filepath.Join(dir, manifestName),
		journal.Options{SyncEvery: 1, FS: fs})
	if err != nil {
		return nil, nil, fmt.Errorf("server: opening job manifest: %w", err)
	}
	latest := journal.Latest(recs)
	jobs := make([]jobRecord, 0, len(latest))
	for key, raw := range latest {
		if !strings.HasPrefix(key, "job:") {
			continue
		}
		var r jobRecord
		if err := json.Unmarshal(raw, &r); err != nil || r.ID == "" {
			// The line passed its checksum, so this is a format drift, not
			// corruption; skip the record rather than refuse to start.
			continue
		}
		if r.State == jobEvicted {
			// Tombstone: the job was evicted from the registry; don't
			// resurrect it.
			continue
		}
		jobs = append(jobs, r)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	return &store{dir: dir, manifest: m}, jobs, nil
}

// record appends one job state transition; the manifest's per-record sync
// policy makes it durable before return. Errors are typed guard.ErrStorage.
func (st *store) record(r jobRecord) error {
	return st.manifest.Append("job:"+r.ID, r)
}

// journalPath returns the campaign checkpoint journal path the store assigns
// to a job that did not name its own.
func (st *store) journalPath(id string) string {
	return filepath.Join(st.dir, jobJournalDir, id+".journal")
}

// Close closes the manifest. Idempotent: both Shutdown and Close may reach
// it on overlapping teardown paths.
func (st *store) Close() error {
	if st == nil {
		return nil
	}
	st.closeOnce.Do(func() { st.closeErr = st.manifest.Close() })
	return st.closeErr
}

// seqOf extracts the numeric suffix of a "job-NNNNNN" ID (0 if foreign), so
// a restarted server continues the ID sequence past everything recovered.
func seqOf(id string) int64 {
	s, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n
}
