package sim

import (
	"math/rand"
	"testing"

	"fnpr/internal/delay"
	"fnpr/internal/task"
)

func TestCheckInvariantsOnCleanRuns(t *testing.T) {
	ts := task.Set{
		{Name: "h", C: 1, T: 6, Q: 1, Prio: 0},
		{Name: "m", C: 3, T: 17, Q: 2, Prio: 1},
		{Name: "lo", C: 15, T: 90, Q: 4, Prio: 2},
	}
	fns := []delay.Function{nil, delay.Constant(0.2, 3), delay.Constant(0.8, 15)}
	for _, policy := range []Policy{FixedPriority, EDF} {
		for _, mode := range []Mode{FullyPreemptive, FloatingNPR, NonPreemptive} {
			res, err := Run(nil, Config{
				Tasks: ts, Policy: policy, Mode: mode,
				Horizon: 700, Delay: fns,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckInvariants(res); err != nil {
				t.Fatalf("%v/%v: %v", policy, mode, err)
			}
		}
	}
}

func TestCheckInvariantsRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(3)
		ts := make(task.Set, 0, n)
		for i := 0; i < n; i++ {
			c := 2 + r.Float64()*20
			ts = append(ts, task.Task{
				Name: string(rune('a' + i)),
				C:    c, T: c*2 + r.Float64()*80,
				Q: 1 + r.Float64()*4, Prio: i,
			})
		}
		rel := SporadicReleases(r, Config{Tasks: ts, Horizon: 1500}, 0.5)
		res, err := Run(nil, Config{
			Tasks: ts, Policy: FixedPriority, Mode: FloatingNPR,
			Horizon: 1500, Releases: rel,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckInvariants(res); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	ts := task.Set{{Name: "a", C: 2, T: 10, Prio: 0}}
	res, err := Run(nil, Config{Tasks: ts, Policy: FixedPriority, Mode: FullyPreemptive, Horizon: 30})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: duplicate a start event (double dispatch).
	for _, e := range res.Events {
		if e.Kind == EvStart {
			res.Events = append(res.Events, e)
			break
		}
	}
	if err := CheckInvariants(res); err == nil {
		t.Fatal("corrupted trace passed invariants")
	}
}

func TestSporadicReleasesShape(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ts := task.Set{{Name: "a", C: 1, T: 10, Prio: 0}}
	cfg := Config{Tasks: ts, Horizon: 200}
	rel := SporadicReleases(r, cfg, 0.3)
	if len(rel) != 1 || len(rel[0]) == 0 {
		t.Fatalf("releases shape wrong: %v", rel)
	}
	for i := 1; i < len(rel[0]); i++ {
		gap := rel[0][i] - rel[0][i-1]
		if gap < 10-1e-9 || gap > 13+1e-9 {
			t.Fatalf("gap %g outside [T, T*1.3]", gap)
		}
	}
	for _, tt := range rel[0] {
		if tt >= 200 {
			t.Fatalf("release %g beyond horizon", tt)
		}
	}
}
