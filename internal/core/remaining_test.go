package core

import (
	"math"
	"math/rand"
	"testing"

	"fnpr/internal/delay"
)

func TestRemainingBoundBasics(t *testing.T) {
	f := delay.Constant(2, 100)
	// Preempted at progression 50 with Q=10: pays 2 now; remaining 50
	// units with first window 8. pnext: 8, 16, 24, 32, 40, 48 -> 6
	// further preemptions x 2 = 12. Total 14.
	b, err := RemainingBound(f, 10, 50)
	if err != nil {
		t.Fatal(err)
	}
	if b != 14 {
		t.Fatalf("remaining = %g, want 14", b)
	}
}

func TestRemainingBoundValidation(t *testing.T) {
	f := delay.Constant(1, 10)
	if _, err := RemainingBound(nil, 5, 1); err == nil {
		t.Fatal("accepted nil function")
	}
	if _, err := RemainingBound(f, 5, -1); err == nil {
		t.Fatal("accepted negative progression")
	}
	if _, err := RemainingBound(f, 5, 10); err == nil {
		t.Fatal("accepted progression at domain end")
	}
}

func TestRemainingBoundDivergesWhenPaybackSwallowsWindow(t *testing.T) {
	f := delay.Constant(6, 100)
	b, err := RemainingBound(f, 5, 50) // f(p)=6 >= Q=5
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(b, 1) {
		t.Fatalf("remaining = %g, want +Inf", b)
	}
}

// Soundness: replay scenarios whose first preemption is at a chosen
// progression p and verify the remaining delay paid from that point never
// exceeds RemainingBound.
func TestRemainingBoundSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(404))
	for trial := 0; trial < 200; trial++ {
		c := 60 + r.Float64()*300
		maxV := 1 + r.Float64()*5
		q := maxV + 1 + r.Float64()*30
		f := randomPiecewise(r, c, maxV)
		// Pick a feasible first-preemption progression: the first
		// preemption can strike at any progression >= Q.
		if q >= c {
			continue
		}
		p := q + r.Float64()*(c-q)*0.9
		if p >= c {
			continue
		}
		bound, err := RemainingBound(f, q, p)
		if err != nil {
			t.Fatal(err)
		}
		// Adversarial continuation: after the preemption at execution
		// time e1 = p (no prior delay), subsequent strikes follow
		// greedy/random spacing.
		for k := 0; k < 10; k++ {
			s := Scenario{p}
			paid := f.Eval(p)
			e := p
			for {
				e += q * (1 + r.Float64()*0.5)
				prog := e - paid
				if prog >= c {
					break
				}
				s = append(s, e)
				paid += f.Eval(prog)
				if len(s) > 10000 {
					break
				}
			}
			run, err := s.run(f, q)
			if err != nil {
				t.Fatal(err)
			}
			if run.TotalDelay > bound+1e-9 {
				t.Fatalf("trial %d: continuation pays %g > remaining bound %g (p=%g, Q=%g, f=%v)",
					trial, run.TotalDelay, bound, p, q, f)
			}
		}
	}
}

// The remaining bound from progression just past Q is consistent with the
// whole-job bound: f(p) + suffix analysis never exceeds the full Algorithm 1
// total by more than the first charge's conservatism.
func TestRemainingBoundRelatesToFullBound(t *testing.T) {
	f := delay.FrontLoaded(3, 0.5, 100)
	q := 10.0
	full, err := UpperBound(f, q)
	if err != nil {
		t.Fatal(err)
	}
	rem, err := RemainingBound(f, q, q)
	if err != nil {
		t.Fatal(err)
	}
	// A job preempted exactly at Q pays at most rem; the full bound
	// covers the same scenario family, so rem <= full + max f (the full
	// bound may have charged a different, smaller first window).
	_, maxF := f.Max()
	if rem > full+maxF+1e-9 {
		t.Fatalf("remaining %g not within full %g + max %g", rem, full, maxF)
	}
}
