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

// maxHintPieces caps the number of per-iteration piece indices a walk records
// into WalkHints.Out: hints are a constant-factor accelerator for the common
// short walks, and unbounded recording would let a divergent walk grow the
// slice without limit.
const maxHintPieces = 4096

// WalkHints carries cross-run seeding for the Algorithm 1 walk. Adjacent Q
// grid points walk nearly the same delay function, so the piece index where
// iteration k's descending-line crossing was found in one walk is an
// excellent first candidate for iteration k of the neighbouring walk
// (eval.QSweep threads these between grid points and counts
// sweep.qshare.{seeded,cold}).
//
// Hints are strictly an accelerator: a wrong or stale hint costs one extra
// exact recheck and the search falls back to the full bisection, so results
// are bit-identical with any In contents. Hints only take effect on indexed
// delay functions (the scan kernel has no crossing index to seed).
type WalkHints struct {
	// In seeds iteration k of the walk with In[k], the piece index where a
	// previous similar walk found its crossing (-1 recorded no crossing).
	// Entries beyond the walk's iteration count are ignored.
	In []int32
	// Out receives this walk's per-iteration crossing pieces (capped at
	// maxHintPieces; -1 for iterations without a crossing), replacing any
	// previous contents. It is only populated when the walk actually runs
	// on an indexed function.
	Out []int32
}
