// Package journal implements the crash-safe checkpoint log the batch runtime
// writes as a sweep progresses: one checksummed record per completed unit of
// work, appended to a plain file. After a crash, SIGINT/SIGTERM or budget
// exhaustion, reopening the journal recovers every record that reached disk
// intact — a torn or corrupted tail is detected by checksum and truncated to
// the last valid record via a write-temp-then-rename rewrite, never parsed.
//
// The format is deliberately simple and greppable: a header line, then one
// record per line,
//
//	fnpr-journal v1
//	<crc32c hex8> <compact JSON of {"k":key,"v":value}>
//
// where the checksum covers the JSON bytes exactly. JSON encodes float64 with
// shortest-roundtrip precision, so a value replayed from the journal is
// bit-identical to the value that was computed — the property the
// kill-and-resume tests assert end to end.
//
// Durability is configurable per journal (Options.SyncEvery): fsync after
// every record for write-ahead logs whose records must survive the ack (the
// server's job manifest), every N records to amortize, or only on
// checkpoint/Close (the default — right for sweep journals whose loss costs
// recomputation, not correctness). All file I/O goes through an
// fsfault.FS seam, so the crash-safety tests can inject ENOSPC, torn writes,
// bit flips and fsync failures deterministically; every injected fault either
// recovers at the next Open (tail truncation) or surfaces as a typed
// guard.ErrStorage error — never silent corruption.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"fnpr/internal/fsfault"
	"fnpr/internal/guard"
	"fnpr/internal/obs"
)

// Journal traffic is orders of magnitude rarer than kernel queries (one
// append per completed unit of work), so its counters report unconditionally
// into the process-global registry: journal.appends, journal.syncs,
// journal.records_replayed and journal.truncations (torn-tail recoveries).

// header identifies the format; bump the version on incompatible changes.
const header = "fnpr-journal v1"

// ErrIncompatible reports a journal whose header names a format this code
// does not read.
var ErrIncompatible = errors.New("journal: incompatible format")

// castagnoli is the CRC-32C table (same polynomial iSCSI and ext4 use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one replayed journal entry: an application key and the JSON it
// stored. Keys are free-form; later records with the same key supersede
// earlier ones (Latest folds that).
type Record struct {
	Key  string          `json:"k"`
	Data json.RawMessage `json:"v"`
}

// Options configures a journal's durability and its filesystem.
type Options struct {
	// SyncEvery selects the sync policy: 0 (the default) syncs only on
	// Sync/Close — the checkpoint callback's cadence; 1 fsyncs after every
	// Append (write-ahead-log semantics: when Append returns, the record
	// survives a power loss); N > 1 fsyncs every Nth record.
	SyncEvery int
	// FS is the filesystem the journal reads and writes through; nil means
	// the real OS. Tests inject disk faults here (fsfault.Injector).
	FS fsfault.FS
}

// Journal is an open, append-position journal. Append is safe for concurrent
// use by sweep workers.
type Journal struct {
	mu       sync.Mutex
	f        fsfault.File
	path     string
	every    int
	unsynced int
}

// Open opens (or creates) the journal at path with default options: sync on
// checkpoint/Close, the real filesystem. See OpenWith.
func Open(path string) (*Journal, []Record, error) {
	return OpenWith(path, Options{})
}

// OpenWith opens (or creates) the journal at path, replays the valid records
// and returns the journal positioned for appends. A corrupted or torn tail —
// whether from a crash mid-write or a flipped bit — is truncated: the valid
// prefix is rewritten to a temp file in the same directory and atomically
// renamed over the journal, so the file on disk is always a fully valid
// journal. Dropped trailing bytes are reported via journal.truncations only —
// recovery is silent by design; callers who care compare record counts across
// runs.
func OpenWith(path string, opts Options) (*Journal, []Record, error) {
	fs := fsfault.Real(opts.FS)
	raw, err := fs.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return create(path, opts)
	case err != nil:
		return nil, nil, guard.Storagef(err, "journal: reading %s", path)
	}
	if len(raw) == 0 {
		// Created but never written (e.g. crash between create and the
		// header write): re-initialise in place.
		return create(path, opts)
	}
	recs, validLen, err := scan(raw)
	if err != nil {
		return nil, nil, err
	}
	mRecordsReplayed.In(obs.Default()).Add(int64(len(recs)))
	if validLen < len(raw) {
		mTruncations.In(obs.Default()).Inc()
		if err := rewrite(fs, path, raw[:validLen]); err != nil {
			return nil, nil, err
		}
	}
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, guard.Storagef(err, "journal: reopening %s", path)
	}
	return &Journal{f: f, path: path, every: opts.SyncEvery}, recs, nil
}

// create initialises a fresh journal file with just the header.
func create(path string, opts Options) (*Journal, []Record, error) {
	fs := fsfault.Real(opts.FS)
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, nil, guard.Storagef(err, "journal: creating %s", path)
	}
	if _, err := io.WriteString(f, header+"\n"); err != nil {
		f.Close()
		return nil, nil, guard.Storagef(err, "journal: writing header of %s", path)
	}
	return &Journal{f: f, path: path, every: opts.SyncEvery}, nil, nil
}

// scan parses raw journal bytes, returning the replayed records and the byte
// length of the valid prefix. Parsing stops (without error) at the first
// malformed or checksum-failing line — that and everything after it is the
// torn (or corrupted) tail.
func scan(raw []byte) ([]Record, int, error) {
	rd := bufio.NewReader(bytes.NewReader(raw))
	first, err := rd.ReadString('\n')
	if strings.TrimSuffix(first, "\n") != header {
		if err != nil && err != io.EOF {
			return nil, 0, fmt.Errorf("journal: reading header: %w", err)
		}
		return nil, 0, fmt.Errorf("%w: header %q, want %q", ErrIncompatible, strings.TrimSpace(first), header)
	}
	validLen := len(first)
	var recs []Record
	for {
		line, err := rd.ReadString('\n')
		if err == io.EOF && line == "" {
			break
		}
		// A line without its terminating newline is a torn write even if
		// its checksum happens to pass a prefix; require the full line.
		if err != nil {
			break
		}
		rec, ok := parseLine(strings.TrimSuffix(line, "\n"))
		if !ok {
			break
		}
		recs = append(recs, rec)
		validLen += len(line)
	}
	return recs, validLen, nil
}

// parseLine decodes "<crc hex8> <json>" and verifies the checksum.
func parseLine(line string) (Record, bool) {
	sum, body, found := strings.Cut(line, " ")
	if !found || len(sum) != 8 {
		return Record{}, false
	}
	var want uint32
	if _, err := fmt.Sscanf(sum, "%08x", &want); err != nil {
		return Record{}, false
	}
	if crc32.Checksum([]byte(body), castagnoli) != want {
		return Record{}, false
	}
	var rec Record
	if err := json.Unmarshal([]byte(body), &rec); err != nil {
		return Record{}, false
	}
	return rec, true
}

// rewrite atomically replaces path with the given valid prefix: write-temp in
// the same directory, fsync, rename over, fsync the directory. This is the
// only mutation ever applied to existing journal bytes.
func rewrite(fs fsfault.FS, path string, valid []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fs.CreateTemp(dir, filepath.Base(path)+".recover-*")
	if err != nil {
		return guard.Storagef(err, "journal: recovery temp file")
	}
	defer fs.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(valid); err != nil {
		tmp.Close()
		return guard.Storagef(err, "journal: writing recovery file")
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return guard.Storagef(err, "journal: syncing recovery file")
	}
	if err := tmp.Close(); err != nil {
		return guard.Storagef(err, "journal: closing recovery file")
	}
	if err := fs.Rename(tmp.Name(), path); err != nil {
		return guard.Storagef(err, "journal: installing recovered journal")
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Append marshals v and appends one checksummed record. The line is written
// with a single Write call; on a crash mid-write the torn tail is dropped at
// the next Open. Under a SyncEvery policy the record (and everything before
// it) is additionally fsynced per the policy before Append returns; any write
// or sync failure surfaces as a typed guard.ErrStorage error, and the bytes
// on disk remain a valid journal prefix for the next Open to salvage.
func (j *Journal) Append(key string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: marshaling %q: %w", key, err)
	}
	body, err := json.Marshal(Record{Key: key, Data: data})
	if err != nil {
		return fmt.Errorf("journal: marshaling record %q: %w", key, err)
	}
	line := fmt.Sprintf("%08x %s\n", crc32.Checksum(body, castagnoli), body)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: %s is closed", j.path)
	}
	if _, err := io.WriteString(j.f, line); err != nil {
		return guard.Storagef(err, "journal: appending %q", key)
	}
	mAppends.In(obs.Default()).Inc()
	if j.every > 0 {
		j.unsynced++
		if j.unsynced >= j.every {
			if err := j.syncLocked(); err != nil {
				return guard.Storagef(err, "journal: syncing after %q", key)
			}
		}
	}
	return nil
}

// Sync flushes appended records to stable storage. The guard scope's
// checkpoint callback calls it periodically, bounding how much completed work
// a power loss can lose.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	if err := j.syncLocked(); err != nil {
		return guard.Storagef(err, "journal: syncing %s", j.path)
	}
	return nil
}

// syncLocked fsyncs under j.mu and resets the per-policy record count.
func (j *Journal) syncLocked() error {
	mSyncs.In(obs.Default()).Inc()
	j.unsynced = 0
	return j.f.Sync()
}

// Close syncs and closes the journal. The file stays on disk — deleting a
// completed journal is the caller's decision.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	var err error
	if serr := j.f.Sync(); serr != nil {
		err = guard.Storagef(serr, "journal: syncing %s at close", j.path)
	}
	if cerr := j.f.Close(); cerr != nil && err == nil {
		err = guard.Storagef(cerr, "journal: closing %s", j.path)
	}
	j.f = nil
	return err
}

// Latest folds replayed records into a key → data map, last write winning —
// the resume view of a journal.
func Latest(recs []Record) map[string]json.RawMessage {
	out := make(map[string]json.RawMessage, len(recs))
	for _, r := range recs {
		out[r.Key] = r.Data
	}
	return out
}

// Get unmarshals the record stored under key into out, reporting whether the
// key was present.
func Get(m map[string]json.RawMessage, key string, out any) (bool, error) {
	data, ok := m[key]
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return false, fmt.Errorf("journal: decoding %q: %w", key, err)
	}
	return true, nil
}
