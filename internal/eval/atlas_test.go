package eval

import (
	"context"
	"math"
	"testing"

	"fnpr/internal/guard"
)

// smallAtlas keeps unit-test runtime low while still covering all families.
func smallAtlas() AtlasParams {
	return AtlasParams{Seed: 7, Qs: []float64{4, 8}, FuncsPerCell: 8, C: 30}
}

func TestAtlasOrdering(t *testing.T) {
	tbl, err := Atlas(nil, smallAtlas())
	if err != nil {
		t.Fatal(err)
	}
	if err := AtlasChecks(tbl); err != nil {
		t.Fatal(err)
	}
	if len(tbl.Series) != 9 {
		t.Fatalf("want 9 series (3 families x 3), got %d", len(tbl.Series))
	}
	// The sweep must actually separate the bounds somewhere: Equation 4 is
	// strictly more pessimistic than Algorithm 1 on peaked curves.
	sep := false
	for fam := 0; fam < 3; fam++ {
		for i := range tbl.X {
			if tbl.Series[3*fam+2].Y[i] > tbl.Series[3*fam+1].Y[i]+1e-9 {
				sep = true
			}
		}
	}
	if !sep {
		t.Fatal("atlas never separates Equation 4 from Algorithm 1")
	}
	if len(tbl.Notes) == 0 {
		t.Fatal("atlas table must note the state reduction")
	}
}

// TestAtlasDeterministicAcrossWorkers asserts the table and the guard's
// step count are identical for every worker count (the CI race job re-runs tests matching this
// pattern under -race).
func TestAtlasDeterministicAcrossWorkers(t *testing.T) {
	p := smallAtlas()
	p.Workers = 1
	g := guard.New(context.Background())
	serial, err := Atlas(g, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		p.Workers = workers
		gw := guard.New(context.Background())
		par, err := Atlas(gw, p)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if gw.Steps() != g.Steps() {
			t.Fatalf("workers=%d charged %d steps, one worker %d", workers, gw.Steps(), g.Steps())
		}
		for s := range serial.Series {
			for i := range serial.X {
				if par.Series[s].Y[i] != serial.Series[s].Y[i] {
					t.Fatalf("workers=%d series %s point %d: %v != %v",
						workers, serial.Series[s].Name, i,
						par.Series[s].Y[i], serial.Series[s].Y[i])
				}
			}
		}
		if par.Notes[0] != serial.Notes[0] {
			t.Fatalf("workers=%d: notes diverged: %q vs %q", workers, par.Notes[0], serial.Notes[0])
		}
	}
}

func TestAtlasValidate(t *testing.T) {
	cases := []AtlasParams{
		{Seed: 1, Qs: nil, FuncsPerCell: 1, C: 30},
		{Seed: 1, Qs: []float64{4}, FuncsPerCell: 0, C: 30},
		{Seed: 1, Qs: []float64{4}, FuncsPerCell: 1, C: math.Inf(1)},
		{Seed: 1, Qs: []float64{40}, FuncsPerCell: 1, C: 30}, // Q >= C
		{Seed: 1, Qs: []float64{-1}, FuncsPerCell: 1, C: 30},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d must fail validation", i)
		}
	}
}

func TestAtlasFingerprint(t *testing.T) {
	a := smallAtlas()
	b := smallAtlas()
	b.Workers = 8
	b.Obs = nil
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("workers must not change the fingerprint")
	}
	b.Seed = 8
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("seed must change the fingerprint")
	}
	if a.Kind() != "atlas" {
		t.Fatalf("kind %q", a.Kind())
	}
}
