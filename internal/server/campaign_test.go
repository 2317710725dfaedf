package server

import (
	"net/http"
	"testing"
	"time"

	"fnpr/internal/eval"
)

// TestCampaignFingerprints pins each kind's fingerprint for its defaults and
// for one non-default body decoded through the HTTP path. Fingerprints are
// persisted in the job manifest and matched for Idempotency-Key dedup across
// restarts, so a changed value orphans every stored job.
func TestCampaignFingerprints(t *testing.T) {
	defaults := map[string]eval.Campaign{
		"acceptance": eval.DefaultAcceptanceParams(),
		"montecarlo": eval.DefaultMonteCarloParams(),
		"atlas":      eval.DefaultAtlasParams(),
	}
	// A one-step budget fails every job at once; the fingerprint is set at
	// submission.
	_, base := newTestServer(t, func(c *Config) { c.CampaignBudget = 1; c.Workers = 1 })
	for _, c := range []struct{ kind, body, want string }{
		{"acceptance", `{}`, "0a23565096107cd477d17d5fcfd731bf"},
		{"montecarlo", `{}`, "87e8acfc9843c000e9cc661bfc8ceb3d"},
		{"atlas", `{}`, "a46620bc15dbe7e8a6cf73ff2a2b4464"},
		{"acceptance", `{"seed":7,"sets_per_point":3,"tasks":4,"u_start":0.5,"u_end":0.7,"u_step":0.1,"delay_scale":0.2,"q_fraction":0.5,"workers":2}`, "f5cd4e025c6c1cb4ddf1b12a169f75f2"},
		{"montecarlo", `{"seed":7,"trials":11,"max_tasks":3,"horizon":300,"workers":2}`, "1e02281b368ce7fd3c843cf74ccc9519"},
		{"atlas", `{"seed":7,"qs":[5,9],"funcs_per_cell":3,"c":30,"max_states":500,"workers":2}`, "289d32d3570bb492eb0f76bc56057e1f"},
	} {
		if c.body == `{}` {
			if got := defaults[c.kind].Fingerprint(); got != c.want {
				t.Errorf("%s defaults: fingerprint %s, want %s", c.kind, got, c.want)
			}
		}
		st, v := postRaw(t, base+"/v1/campaign/"+c.kind, []byte(c.body))
		if st != http.StatusAccepted {
			t.Fatalf("POST %s %s: %d %v", c.kind, c.body, st, v)
		}
		_, _, job := doJSON(t, "GET", base+"/v1/jobs/"+v["id"].(string), nil)
		if job["fingerprint"] != c.want {
			t.Errorf("POST %s %s: fingerprint %v, want %s", c.kind, c.body, job["fingerprint"], c.want)
		}
	}
}

// hostileCampaigns are bodies that once passed validation and then
// exhausted memory before the job's first guard tick, taking the whole
// service down: a utilization step too small to advance u, task counts
// whose first task set is gigabytes, and trial counts whose verdict table
// is.
var hostileCampaigns = []struct{ kind, body string }{
	{"acceptance", `{"u_start":1,"u_end":2,"u_step":1e-300}`},
	{"acceptance", `{"tasks":67108864}`},
	{"montecarlo", `{"max_tasks":67108864}`},
	{"acceptance", `{"sets_per_point":4000000000}`},
	{"montecarlo", `{"trials":4000000000}`},
}

// TestHostileCampaignBodies requires each hostile body to be refused at
// submission with a 400 invalid, in well under a second.
func TestHostileCampaignBodies(t *testing.T) {
	_, base := newTestServer(t, func(c *Config) { c.CampaignBudget = 1000; c.Workers = 1 })
	for _, c := range hostileCampaigns {
		start := time.Now()
		st, v := postRaw(t, base+"/v1/campaign/"+c.kind, []byte(c.body))
		if took := time.Since(start); took > time.Second {
			t.Errorf("POST %s %s: answered after %v", c.kind, c.body, took)
		}
		if st != http.StatusBadRequest || v["code"] != "invalid" {
			t.Fatalf("POST %s %s: %d %v, want 400 invalid", c.kind, c.body, st, v)
		}
	}
}
