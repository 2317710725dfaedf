package core

// Cutting-plane safety margins, shared by the Equation 4 fixpoint here and
// the sched response-time solver (DESIGN.md §15).
//
// A jump target is the relaxation root shaved by max(cutRelShave·|root|,
// cutAbsShave). Floating-point error in the root computation is a few ulps
// (~1e-16 relative) amplified by at most 1/(1-slope) ≤ 1000 under
// cutSlopeCap, so the shave exceeds it by orders of magnitude and the target
// stays strictly below the real root — and therefore at or below the least
// fixpoint the monotone iteration converges to. Slopes above cutSlopeCap
// amplify rounding beyond what the shave covers, so no jump is attempted.
const (
	cutRelShave = 1e-9
	cutAbsShave = 1e-12
	cutSlopeCap = 0.999
)
