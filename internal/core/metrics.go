package core

import "fnpr/internal/obs"

// The core package's metrics. Walks and fixpoints count in locals and
// flush once per run (DESIGN §10.4).
var (
	mAlg1Runs       = obs.NewCounter("core.alg1.runs", "runs", "Algorithm 1 walks started")
	mAlg1Iterations = obs.NewCounter("core.alg1.iterations", "iterations", "Algorithm 1 windows walked")
	mAlg1Diverged   = obs.NewCounter("core.alg1.diverged", "runs", "Algorithm 1 walks that diverged")
	mEq4Runs        = obs.NewCounter("core.eq4.runs", "runs", "Equation 4 fixpoints started")
	mEq4Iterations  = obs.NewCounter("core.eq4.iterations", "iterations", "Equation 4 fixpoint iterations")
	mEq4Cuts        = obs.NewCounter("core.eq4.cuts", "jumps", "Equation 4 cutting-plane jumps")
	mEq4Fallbacks   = obs.NewCounter("core.eq4.fallbacks", "runs", "Equation 4 jumps reverted to the monotone iteration")
	mNaiveRuns      = obs.NewCounter("core.naive.runs", "runs", "unsound naive-bound runs (demonstration only)")
	mScanQueries    = obs.NewCounter("delay.scan.queries", "queries", "delay-kernel queries answered by the linear scan")
	mIndexQueries   = obs.NewCounter("delay.index.queries", "queries", "delay-kernel queries answered by the sparse index")
)
