package eval

import (
	"context"
	"math"
	"runtime"
	"testing"

	"fnpr/internal/guard"
	"fnpr/internal/obs"
)

// TestMonteCarloTheorem1 runs a moderate campaign and requires zero
// violations: no simulated job may pay more delay than Algorithm 1's bound.
func TestMonteCarloTheorem1(t *testing.T) {
	p := DefaultMonteCarloParams()
	p.Trials = 200
	rep, err := MonteCarlo(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Fatalf("%d of %d jobs exceeded their Algorithm 1 bound", rep.Violations, rep.Jobs)
	}
	if rep.Jobs == 0 || rep.Preemptions == 0 {
		t.Fatalf("degenerate campaign: %+v", rep)
	}
	if math.IsInf(rep.MinSlack, 1) || rep.MinSlack < 0 {
		t.Fatalf("min slack %g: want finite >= 0 with %d preemptions observed",
			rep.MinSlack, rep.Preemptions)
	}
}

// TestMonteCarloDeterministicAcrossWorkers: same seed, any worker count,
// identical report and guard step count.
func TestMonteCarloDeterministicAcrossWorkers(t *testing.T) {
	p := DefaultMonteCarloParams()
	p.Trials = 60
	p.Workers = 1
	g := guard.New(context.Background())
	serial, err := MonteCarlo(g, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		p.Workers = w
		gw := guard.New(context.Background())
		got, err := MonteCarlo(gw, p)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if *got != *serial {
			t.Fatalf("workers=%d: report %+v != serial %+v", w, *got, *serial)
		}
		if gw.Steps() != g.Steps() {
			t.Fatalf("workers=%d charged %d steps, one worker %d", w, gw.Steps(), g.Steps())
		}
	}
}

// TestMonteCarloSeedSensitivity: different seeds change the population.
func TestMonteCarloSeedSensitivity(t *testing.T) {
	p := DefaultMonteCarloParams()
	p.Trials = 40
	a, err := MonteCarlo(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = 99
	b, err := MonteCarlo(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if *a == *b {
		t.Fatal("seeds 1 and 99 produced identical reports")
	}
}

// TestMonteCarloValidation covers the fail-fast ladder.
func TestMonteCarloValidation(t *testing.T) {
	for _, m := range []struct {
		name string
		mut  func(*MonteCarloParams)
	}{
		{"Trials=0", func(p *MonteCarloParams) { p.Trials = 0 }},
		{"MaxTasks=1", func(p *MonteCarloParams) { p.MaxTasks = 1 }},
		{"Horizon=0", func(p *MonteCarloParams) { p.Horizon = 0 }},
		{"Horizon=NaN", func(p *MonteCarloParams) { p.Horizon = math.NaN() }},
		{"Horizon=+Inf", func(p *MonteCarloParams) { p.Horizon = math.Inf(1) }},
	} {
		p := DefaultMonteCarloParams()
		m.mut(&p)
		if _, err := MonteCarlo(nil, p); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

// TestMonteCarloCampaignEvents: Started/Finished pair plus chunked progress.
func TestMonteCarloCampaignEvents(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rec := obs.NewTestRecorder()
		p := DefaultMonteCarloParams()
		p.Trials = 50
		p.Workers = workers
		p.Obs = obs.NewScope(obs.NewRegistry(), rec)
		if _, err := MonteCarlo(nil, p); err != nil {
			t.Fatal(err)
		}
		if n := rec.CountEvents(obs.CampaignStarted); n != 1 {
			t.Fatalf("workers=%d: %d CampaignStarted events", workers, n)
		}
		if n := rec.CountEvents(obs.CampaignFinished); n != 1 {
			t.Fatalf("workers=%d: %d CampaignFinished events", workers, n)
		}
		if n := rec.CountEvents(obs.CampaignPoint); n != 10 {
			t.Fatalf("workers=%d: %d CampaignPoint events, want 10", workers, n)
		}
	}
}
