package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"fnpr/internal/fsfault"
	"fnpr/internal/guard"
	"fnpr/internal/obs"
)

// mcBody is a small, fast Monte-Carlo campaign used across the store tests.
func mcBody() map[string]any {
	return map[string]any{"trials": 20, "max_tasks": 3, "horizon": 200}
}

// doJSONH is doJSON with request headers.
func doJSONH(t *testing.T, method, url string, body any, hdr map[string]string) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestDurableReloadAcrossRestart is the store's terminal-job contract: a
// finished job survives a restart with its result byte-identical, marked
// recovered, visible in the listing, and counted as reloaded (not resumed).
func TestDurableReloadAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, base1 := newTestServer(t, func(c *Config) { c.DataDir = dir })
	st, _, v := doJSON(t, "POST", base1+"/v1/campaign/montecarlo", mcBody())
	if st != http.StatusAccepted {
		t.Fatalf("submit: %d %v", st, v)
	}
	id := v["id"].(string)
	ref := waitJob(t, base1, id)
	refJSON, _ := json.Marshal(ref["result"])
	if err := s1.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	reg := obs.NewRegistry()
	_, base2 := newTestServer(t, func(c *Config) { c.DataDir = dir; c.Registry = reg })
	if n := reg.Counter("server.jobs.reloaded").Value(); n != 1 {
		t.Fatalf("server.jobs.reloaded = %d, want 1", n)
	}
	if n := reg.Counter("server.jobs.recovered").Value(); n != 0 {
		t.Fatalf("server.jobs.recovered = %d, want 0 (job was terminal)", n)
	}
	st, _, got := doJSON(t, "GET", base2+"/v1/jobs/"+id, nil)
	if st != http.StatusOK || got["state"] != "done" {
		t.Fatalf("reloaded job: %d %v", st, got)
	}
	if got["recovered"] != true {
		t.Fatalf("reloaded job not marked recovered: %v", got)
	}
	gotJSON, _ := json.Marshal(got["result"])
	if string(gotJSON) != string(refJSON) {
		t.Fatalf("reloaded result differs\nref: %s\ngot: %s", refJSON, gotJSON)
	}

	// The listing shows it with state, fingerprint and recovery provenance.
	st, _, list := doJSON(t, "GET", base2+"/v1/jobs", nil)
	if st != http.StatusOK || list["count"] != float64(1) {
		t.Fatalf("listing: %d %v", st, list)
	}
	entry := list["jobs"].([]any)[0].(map[string]any)
	if entry["id"] != id || entry["state"] != "done" || entry["recovered"] != true {
		t.Fatalf("listing entry: %v", entry)
	}
	if fp, _ := entry["fingerprint"].(string); len(fp) != 32 {
		t.Fatalf("listing fingerprint: %q", entry["fingerprint"])
	}
	if _, ok := entry["result"]; ok {
		t.Fatalf("listing must not carry result payloads: %v", entry)
	}
}

// recoveryBodies holds a small, fast submission body for every campaign
// kind.
var recoveryBodies = map[string]map[string]any{
	"acceptance": {"sets_per_point": 5, "tasks": 3, "u_start": 0.5, "u_end": 0.6, "u_step": 0.1},
	"montecarlo": mcBody(),
	"atlas":      {"qs": []float64{4, 8}, "funcs_per_cell": 2, "c": 20},
}

// TestDurableAutoResume is the interrupted-job contract, for every kind in
// the campaigns table: a job whose last manifest record is non-terminal (the
// process died with it queued or running) is rebuilt from its persisted
// parameters on startup, re-enqueued, runs to completion, and produces
// exactly the result an uninterrupted submission would — and the ID
// sequence continues past it. The acceptance job resumes from the
// checkpoint journal a durable server assigns it.
func TestDurableAutoResume(t *testing.T) {
	kinds := make([]string, 0, len(campaigns))
	for kind := range campaigns {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			body, ok := recoveryBodies[kind]
			if !ok {
				t.Fatalf("no recovery body for campaign kind %q", kind)
			}
			route := "/v1/campaign/" + kind

			// Reference result from an ordinary server.
			_, refBase := newTestServer(t, nil)
			_, _, rv := doJSON(t, "POST", refBase+route, body)
			ref := waitJob(t, refBase, rv["id"].(string))
			if ref["state"] != "done" {
				t.Fatalf("reference job: %v", ref)
			}
			refJSON, _ := json.Marshal(ref["result"])

			// Hand-craft the crash leftover: a manifest whose only job never
			// reached a terminal state.
			dir := t.TempDir()
			params, _ := json.Marshal(body)
			st, _, err := openStore(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			rec := jobRecord{
				ID: "job-000007", Kind: kind, State: jobRunning,
				Fingerprint: "whatever", Params: params,
			}
			if kind == "acceptance" {
				rec.Journal = st.journalPath(rec.ID)
			}
			if err := st.record(rec); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			reg := obs.NewRegistry()
			_, base := newTestServer(t, func(c *Config) { c.DataDir = dir; c.Registry = reg })
			if n := reg.Counter("server.jobs.recovered").Value(); n != 1 {
				t.Fatalf("server.jobs.recovered = %d, want 1", n)
			}
			got := waitJob(t, base, "job-000007")
			if got["state"] != "done" || got["recovered"] != true {
				t.Fatalf("auto-resumed job: %v", got)
			}
			gotJSON, _ := json.Marshal(got["result"])
			if string(gotJSON) != string(refJSON) {
				t.Fatalf("auto-resumed result differs\nref: %s\ngot: %s", refJSON, gotJSON)
			}

			// New submissions continue the recovered ID sequence.
			_, _, v := doJSON(t, "POST", base+route, body)
			if v["id"] != "job-000008" {
				t.Fatalf("post-recovery id %v, want job-000008", v["id"])
			}
		})
	}
}

// TestDurableAcceptanceAutoJournal: on a durable server, an acceptance job
// that names no journal gets a checkpoint journal assigned under
// DataDir/journals automatically, so it is resumable after a crash.
func TestDurableAcceptanceAutoJournal(t *testing.T) {
	dir := t.TempDir()
	_, base := newTestServer(t, func(c *Config) { c.DataDir = dir })
	st, _, v := doJSON(t, "POST", base+"/v1/campaign/acceptance", map[string]any{
		"sets_per_point": 5, "tasks": 3, "u_start": 0.5, "u_end": 0.6, "u_step": 0.1,
	})
	if st != http.StatusAccepted {
		t.Fatalf("submit: %d %v", st, v)
	}
	id := v["id"].(string)
	if got := waitJob(t, base, id); got["state"] != "done" {
		t.Fatalf("job: %v", got)
	}
	raw, err := os.ReadFile(filepath.Join(dir, jobJournalDir, id+".journal"))
	if err != nil {
		t.Fatalf("auto-assigned journal missing: %v", err)
	}
	if !bytes.Contains(raw, []byte("accpoint:")) {
		t.Fatalf("auto-assigned journal holds no checkpoints:\n%s", raw)
	}
}

// TestIdempotencyKey pins at-least-once submission safety: the same
// Idempotency-Key with the same parameters returns the existing job (200,
// deduplicated, no second campaign), a key reused with different parameters
// is invalid input, and the key index survives a restart.
func TestIdempotencyKey(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s1, base := newTestServer(t, func(c *Config) { c.DataDir = dir; c.Registry = reg })
	hdr := map[string]string{"Idempotency-Key": "retry-abc"}

	st, v := doJSONH(t, "POST", base+"/v1/campaign/montecarlo", mcBody(), hdr)
	if st != http.StatusAccepted {
		t.Fatalf("first submit: %d %v", st, v)
	}
	id := v["id"].(string)

	st, v = doJSONH(t, "POST", base+"/v1/campaign/montecarlo", mcBody(), hdr)
	if st != http.StatusOK || v["deduplicated"] != true || v["id"] != id {
		t.Fatalf("idempotent retry: %d %v, want 200 deduplicated id=%s", st, v, id)
	}
	if n := reg.Counter("server.jobs.deduplicated").Value(); n != 1 {
		t.Fatalf("server.jobs.deduplicated = %d, want 1", n)
	}

	// Same key, different result-determining parameters: refused.
	other := mcBody()
	other["trials"] = 21
	st, v = doJSONH(t, "POST", base+"/v1/campaign/montecarlo", other, hdr)
	if st != http.StatusBadRequest || v["code"] != "invalid" {
		t.Fatalf("conflicting idempotent submit: %d %v, want 400 invalid", st, v)
	}

	waitJob(t, base, id)
	if err := s1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// After a restart the key still resolves to the (reloaded) job — this is
	// what makes client retry loops safe across server crashes.
	_, base2 := newTestServer(t, func(c *Config) { c.DataDir = dir })
	st, v = doJSONH(t, "POST", base2+"/v1/campaign/montecarlo", mcBody(), hdr)
	if st != http.StatusOK || v["deduplicated"] != true || v["id"] != id {
		t.Fatalf("post-restart idempotent retry: %d %v", st, v)
	}
}

// TestJobEviction drives the registry past its cap and TTL and pins the
// eviction contract: oldest finished jobs go first, running jobs never go,
// evicted jobs answer 404, the counter advances, and a tombstoned job does
// not come back after a restart.
func TestJobEviction(t *testing.T) {
	t.Run("max-count", func(t *testing.T) {
		dir := t.TempDir()
		reg := obs.NewRegistry()
		_, base := newTestServer(t, func(c *Config) {
			c.DataDir = dir
			c.Registry = reg
			c.MaxJobs = 2
			c.JobTTL = -1
		})
		var ids []string
		for i := 0; i < 3; i++ {
			st, _, v := doJSON(t, "POST", base+"/v1/campaign/montecarlo", mcBody())
			if st != http.StatusAccepted {
				t.Fatalf("submit %d: %d %v", i, st, v)
			}
			ids = append(ids, v["id"].(string))
			waitJob(t, base, ids[i])
		}
		// Admitting the 3rd job pushed the registry past MaxJobs=2; the
		// oldest finished job was evicted.
		if n := reg.Counter("server.jobs.evicted").Value(); n != 1 {
			t.Fatalf("server.jobs.evicted = %d, want 1", n)
		}
		if st, _, _ := doJSON(t, "GET", base+"/v1/jobs/"+ids[0], nil); st != http.StatusNotFound {
			t.Fatalf("evicted job %s: status %d, want 404", ids[0], st)
		}
		st, _, list := doJSON(t, "GET", base+"/v1/jobs", nil)
		if st != http.StatusOK || list["count"] != float64(2) {
			t.Fatalf("listing after eviction: %d %v", st, list)
		}

		// Tombstone: a restart recovers the survivors, not the evicted job.
		_, base2 := newTestServer(t, func(c *Config) { c.DataDir = dir })
		if st, _, _ := doJSON(t, "GET", base2+"/v1/jobs/"+ids[0], nil); st != http.StatusNotFound {
			t.Fatalf("evicted job resurrected after restart")
		}
		if st, _, v := doJSON(t, "GET", base2+"/v1/jobs/"+ids[1], nil); st != http.StatusOK || v["state"] != "done" {
			t.Fatalf("surviving job after restart: %d %v", st, v)
		}
	})

	t.Run("ttl", func(t *testing.T) {
		reg := obs.NewRegistry()
		_, base := newTestServer(t, func(c *Config) {
			c.Registry = reg
			c.JobTTL = time.Millisecond
			c.MaxJobs = -1
		})
		_, _, v := doJSON(t, "POST", base+"/v1/campaign/montecarlo", mcBody())
		first := v["id"].(string)
		waitJob(t, base, first)
		time.Sleep(20 * time.Millisecond)
		// The next admission sweeps expired jobs.
		doJSON(t, "POST", base+"/v1/campaign/montecarlo", mcBody())
		if n := reg.Counter("server.jobs.evicted").Value(); n != 1 {
			t.Fatalf("server.jobs.evicted = %d, want 1", n)
		}
		if st, _, _ := doJSON(t, "GET", base+"/v1/jobs/"+first, nil); st != http.StatusNotFound {
			t.Fatalf("TTL-expired job still served: %d", st)
		}
	})
}

// TestSubmitStorageFaultSurfaced injects manifest disk faults at submission
// time: the submit must answer 507 with code "storage" (typed
// guard.ErrStorage, never a silent ack of an unpersisted job), the job must
// not exist, and the server must keep serving afterwards.
func TestSubmitStorageFaultSurfaced(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan fsfault.Plan
	}{
		// Manifest writes: 1 = header at openStore; 2 = the submission's
		// record append. Its WAL fsync is sync 1.
		{"enospc-on-append", fsfault.Plan{FailWrite: 2}},
		{"eio-on-fsync", fsfault.Plan{FailSync: 1}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			in := fsfault.NewInjector(nil, tc.plan)
			reg := obs.NewRegistry()
			_, base := newTestServer(t, func(c *Config) {
				c.DataDir = t.TempDir()
				c.Registry = reg
				c.FS = in
			})
			st, _, v := doJSON(t, "POST", base+"/v1/campaign/montecarlo", mcBody())
			if st != http.StatusInsufficientStorage || v["code"] != "storage" {
				t.Fatalf("faulted submit: %d %v, want 507 storage", st, v)
			}
			if in.Fired() != 1 {
				t.Fatalf("injected %d faults, want 1", in.Fired())
			}
			if n := reg.Counter("server.store.errors").Value(); n != 1 {
				t.Fatalf("server.store.errors = %d, want 1", n)
			}
			// The refused job was never registered or queued...
			st, _, list := doJSON(t, "GET", base+"/v1/jobs", nil)
			if st != http.StatusOK || list["count"] != float64(0) {
				t.Fatalf("registry after faulted submit: %v", list)
			}
			// ...and the disk having recovered, the next submit succeeds.
			st, _, v = doJSON(t, "POST", base+"/v1/campaign/montecarlo", mcBody())
			if st != http.StatusAccepted {
				t.Fatalf("submit after fault: %d %v", st, v)
			}
			if got := waitJob(t, base, v["id"].(string)); got["state"] != "done" {
				t.Fatalf("job after fault: %v", got)
			}
		})
	}
}

// TestStoreOpenFaultFailsStartup: a manifest that cannot be read/salvaged at
// startup fails Start with a typed storage error instead of silently
// starting empty (which would orphan durable jobs).
func TestStoreOpenFaultFailsStartup(t *testing.T) {
	dir := t.TempDir()
	// Seed a manifest so startup must read it.
	st, _, err := openStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	params, _ := json.Marshal(mcBody())
	if err := st.record(jobRecord{ID: "job-000001", Kind: "montecarlo", State: jobQueued, Params: params}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Corrupt the tail so the open needs a salvage rewrite, and fault the
	// rewrite's temp-file write.
	mpath := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpath, append(raw, "deadbeef {\"k\":\"torn"...), 0o644); err != nil {
		t.Fatal(err)
	}
	in := fsfault.NewInjector(nil, fsfault.Plan{FailWrite: 1})
	s := New(Config{Addr: "127.0.0.1:0", Registry: obs.NewRegistry(), DataDir: dir, FS: in})
	if err := s.Start(); !errors.Is(err, guard.ErrStorage) {
		if err == nil {
			s.Close()
		}
		t.Fatalf("Start on unsalvageable manifest: err %v, want guard.ErrStorage", err)
	}
}
