package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"fnpr/internal/guard"
)

// Campaign is the job-shaped view of the package's long-running experiments,
// used by callers that queue campaigns behind an admission-controlled worker
// pool (the analysis service): validate up front, run under a guard scope,
// return a JSON-marshalable result. AcceptanceParams, MonteCarloParams and
// AtlasParams implement it.
type Campaign interface {
	// Kind names the campaign ("acceptance", "montecarlo", "atlas") for job
	// metadata and metrics.
	Kind() string
	// Validate rejects malformed parameters without running anything.
	Validate() error
	// Fingerprint canonically hashes the parameters that determine the
	// campaign's result — the identity the durable job store records so a
	// recovered or idempotently retried submission can be matched to its
	// job. Parameters that only trade wall-clock for cores (worker counts)
	// and runtime attachments (journals, observability scopes) are
	// excluded: they never change the table.
	Fingerprint() string
	// Run executes the campaign under g and returns its result — the same
	// value the direct entry point (Acceptance, MonteCarlo, Atlas) returns.
	Run(g *guard.Ctx) (any, error)
}

// Input bounds that keep a hostile campaign from exhausting memory before
// its first guard tick.
const (
	// maxTasks caps the tasks per set (AcceptanceParams.Tasks,
	// MonteCarloParams.MaxTasks): each trial allocates its task set whole.
	// Every caller uses 10 or fewer.
	maxTasks = 1024
	// maxTrials caps a campaign's trials (acceptance points × sets per
	// point, Monte Carlo trials): the verdict table is allocated up front,
	// one entry per trial. The defaults run 2400 and 2000.
	maxTrials = 1 << 22
)

// fingerprint hashes the canonical JSON of a campaign's identity parameters,
// prefixed by its kind so equal parameter structs of different campaigns
// never collide.
func fingerprint(kind string, identity any) string {
	b, err := json.Marshal(identity)
	if err != nil {
		// Identity structs are plain numeric fields; marshal cannot fail.
		// Degrade to a kind-only fingerprint rather than panicking.
		b = nil
	}
	sum := sha256.Sum256(append([]byte(kind+"\n"), b...))
	return hex.EncodeToString(sum[:16])
}

// Kind implements Campaign.
func (p AcceptanceParams) Kind() string { return "acceptance" }

// Fingerprint implements Campaign: the hash covers exactly the fields the
// journal meta fingerprints (acceptanceMeta) — everything that changes the
// verdicts, nothing that doesn't.
func (p AcceptanceParams) Fingerprint() string {
	return fingerprint(p.Kind(), acceptanceMeta{
		Seed: p.Seed, SetsPerPoint: p.SetsPerPoint, Tasks: p.Tasks,
		UStart: p.UStart, UEnd: p.UEnd, UStep: p.UStep,
		DelayScale: p.DelayScale, QFraction: p.QFraction,
	})
}

// Run implements Campaign; the result is the *textplot.Table from Acceptance.
func (p AcceptanceParams) Run(g *guard.Ctx) (any, error) { return Acceptance(g, p) }

// Kind implements Campaign.
func (p MonteCarloParams) Kind() string { return "montecarlo" }

// monteCarloIdentity is the result-determining subset of MonteCarloParams
// (Workers only trades wall-clock for cores).
type monteCarloIdentity struct {
	Seed     int64   `json:"seed"`
	Trials   int     `json:"trials"`
	MaxTasks int     `json:"maxtasks"`
	Horizon  float64 `json:"horizon"`
}

// Fingerprint implements Campaign.
func (p MonteCarloParams) Fingerprint() string {
	return fingerprint(p.Kind(), monteCarloIdentity{
		Seed: p.Seed, Trials: p.Trials, MaxTasks: p.MaxTasks, Horizon: p.Horizon,
	})
}

// Run implements Campaign; the result is the *MonteCarloReport from
// MonteCarlo.
func (p MonteCarloParams) Run(g *guard.Ctx) (any, error) { return MonteCarlo(g, p) }
