package task

import (
	"errors"
	"math"
	"testing"

	"fnpr/internal/guard"
)

// FuzzValidateTask throws arbitrary field combinations — including NaN and
// ±Inf — at Task.Validate and checks the contract both ways: a rejection must
// wrap guard.ErrInvalidInput, and an accepted task must have finite, sane
// derived quantities (effective deadline, BCET, utilization, density), so
// nothing non-finite can leak past validation into the analyses.
func FuzzValidateTask(f *testing.F) {
	f.Add("t", 2.0, 10.0, 0.0, 1.0, 0.0, 0.0)
	f.Add("", 2.0, 10.0, 0.0, 1.0, 0.0, 0.0)
	f.Add("t", math.NaN(), 10.0, 0.0, 1.0, 0.0, 0.0)
	f.Add("t", 2.0, math.Inf(1), 0.0, 1.0, 0.0, 0.0)
	f.Add("t", 2.0, 10.0, 5.0, math.Inf(-1), 0.0, 0.0)
	f.Add("t", 2.0, 10.0, 1.0, 1.0, 0.0, 0.0) // C > D
	f.Add("t", 2.0, 10.0, 0.0, 1.0, math.NaN(), 3.0)
	f.Fuzz(func(t *testing.T, name string, c, period, d, q, jitter, bcet float64) {
		tk := Task{Name: name, C: c, T: period, D: d, Q: q, Jitter: jitter, BCET: bcet}
		err := tk.Validate()
		if err != nil {
			if !errors.Is(err, guard.ErrInvalidInput) {
				t.Fatalf("Validate rejected %v with %v, which does not wrap guard.ErrInvalidInput", tk, err)
			}
			return
		}
		// Accepted: every field and derived quantity must be finite.
		finite := func(label string, v float64) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("Validate accepted %v but %s = %v", tk, label, v)
			}
		}
		finite("C", tk.C)
		finite("T", tk.T)
		finite("D", tk.D)
		finite("Q", tk.Q)
		finite("Jitter", tk.Jitter)
		finite("BCET", tk.BCET)
		finite("Deadline()", tk.Deadline())
		finite("Utilization()", tk.Utilization())
		if tk.C <= 0 || tk.T <= 0 {
			t.Fatalf("Validate accepted non-positive C or T: %v", tk)
		}
		if tk.Deadline() < tk.C {
			t.Fatalf("Validate accepted C above the effective deadline: %v", tk)
		}
		if b := tk.Best(); b < 0 || b > tk.C {
			t.Fatalf("Validate accepted BCET outside [0, C]: %v (Best=%v)", tk, b)
		}
		if err := (Set{tk}).Validate(); err != nil {
			t.Fatalf("singleton set validation disagrees with task validation: %v", err)
		}
	})
}
