package eval

import (
	"context"
	"math"
	"runtime"
	"testing"

	"fnpr/internal/guard"
	"fnpr/internal/obs"
	"fnpr/internal/textplot"
)

// sameTable compares two acceptance tables bit for bit (== on every float,
// no tolerance): the campaign's determinism contract is exact equality, not
// statistical agreement.
func sameTable(t *testing.T, label string, got, want *textplot.Table) {
	t.Helper()
	if len(got.X) != len(want.X) {
		t.Fatalf("%s: %d points, want %d", label, len(got.X), len(want.X))
	}
	for i := range want.X {
		if got.X[i] != want.X[i] {
			t.Fatalf("%s: X[%d] = %v, want %v", label, i, got.X[i], want.X[i])
		}
	}
	if len(got.Series) != len(want.Series) {
		t.Fatalf("%s: %d series, want %d", label, len(got.Series), len(want.Series))
	}
	for s := range want.Series {
		if got.Series[s].Name != want.Series[s].Name {
			t.Fatalf("%s: series %d named %q, want %q", label, s, got.Series[s].Name, want.Series[s].Name)
		}
		for i := range want.Series[s].Y {
			if got.Series[s].Y[i] != want.Series[s].Y[i] {
				t.Fatalf("%s: %s[%d] = %v, want %v",
					label, want.Series[s].Name, i, got.Series[s].Y[i], want.Series[s].Y[i])
			}
		}
	}
}

// TestAcceptanceDeterministicAcrossWorkers: the same seed must produce a
// bit-identical table for 1, 2, 4 and GOMAXPROCS workers — the shard
// sub-stream derivation, not the schedule, owns all randomness — and charge
// the guard the same number of steps, since the workers' lanes give their
// unspent leases back.
func TestAcceptanceDeterministicAcrossWorkers(t *testing.T) {
	p := DefaultAcceptanceParams()
	p.SetsPerPoint = 25
	p.UEnd = 0.70 // a few points suffice; -race makes full runs slow
	p.Workers = 1
	g := guard.New(context.Background())
	serial, err := Acceptance(g, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		p.Workers = w
		gw := guard.New(context.Background())
		got, err := Acceptance(gw, p)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		sameTable(t, "workers="+itoa(w), got, serial)
		if gw.Steps() != g.Steps() {
			t.Fatalf("workers=%d charged %d steps, one worker %d", w, gw.Steps(), g.Steps())
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestAcceptanceSeedSensitivity: different campaign seeds must actually
// change the drawn population (guards against the derivation collapsing).
func TestAcceptanceSeedSensitivity(t *testing.T) {
	p := DefaultAcceptanceParams()
	p.SetsPerPoint = 40
	p.UEnd = 0.60
	a, err := Acceptance(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = 2
	b, err := Acceptance(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	differ := false
	for s := range a.Series {
		for i := range a.Series[s].Y {
			if a.Series[s].Y[i] != b.Series[s].Y[i] {
				differ = true
			}
		}
	}
	if !differ {
		t.Fatal("seeds 1 and 2 produced identical tables")
	}
}

// TestAcceptanceParamsValidate covers the fail-fast ladder, including the
// NaN bounds the sweep loop would otherwise spin on.
func TestAcceptanceParamsValidate(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*AcceptanceParams)
	}{
		{"SetsPerPoint=0", func(p *AcceptanceParams) { p.SetsPerPoint = 0 }},
		{"Tasks=0", func(p *AcceptanceParams) { p.Tasks = 0 }},
		{"UStep=0", func(p *AcceptanceParams) { p.UStep = 0 }},
		{"UStep=NaN", func(p *AcceptanceParams) { p.UStep = math.NaN() }},
		{"UStart=NaN", func(p *AcceptanceParams) { p.UStart = math.NaN() }},
		{"UStart=0", func(p *AcceptanceParams) { p.UStart = 0 }},
		{"UEnd=NaN", func(p *AcceptanceParams) { p.UEnd = math.NaN() }},
		{"UEnd<UStart", func(p *AcceptanceParams) { p.UEnd = p.UStart / 2 }},
		{"UEnd=+Inf", func(p *AcceptanceParams) { p.UEnd = math.Inf(1) }},
		{"DelayScale=NaN", func(p *AcceptanceParams) { p.DelayScale = math.NaN() }},
		{"DelayScale<0", func(p *AcceptanceParams) { p.DelayScale = -0.1 }},
		{"QFraction=0", func(p *AcceptanceParams) { p.QFraction = 0 }},
		{"QFraction=NaN", func(p *AcceptanceParams) { p.QFraction = math.NaN() }},
	}
	for _, m := range mutations {
		p := DefaultAcceptanceParams()
		m.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
		if _, err := Acceptance(nil, p); err == nil {
			t.Errorf("%s: campaign ran anyway", m.name)
		}
	}
	if err := DefaultAcceptanceParams().Validate(); err != nil {
		t.Fatalf("default params rejected: %v", err)
	}
}

// TestAcceptanceCampaignEvents: the campaign emits one Started/Finished pair
// and one CampaignPoint per utilization point, serial and parallel alike.
func TestAcceptanceCampaignEvents(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rec := obs.NewTestRecorder()
		p := DefaultAcceptanceParams()
		p.SetsPerPoint = 5
		p.UEnd = 0.60
		p.Workers = workers
		p.Obs = obs.NewScope(obs.NewRegistry(), rec)
		tbl, err := Acceptance(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		if n := rec.CountEvents(obs.CampaignStarted); n != 1 {
			t.Fatalf("workers=%d: %d CampaignStarted events", workers, n)
		}
		if n := rec.CountEvents(obs.CampaignFinished); n != 1 {
			t.Fatalf("workers=%d: %d CampaignFinished events", workers, n)
		}
		if n := rec.CountEvents(obs.CampaignPoint); n != len(tbl.X) {
			t.Fatalf("workers=%d: %d CampaignPoint events for %d points", workers, n, len(tbl.X))
		}
	}
}
