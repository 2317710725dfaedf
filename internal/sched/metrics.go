package sched

import "fnpr/internal/obs"

// The sched package's metrics. Every fixpoint and demand walk counts in
// locals and flushes once per call, on every return path (DESIGN §10.4).
var (
	mRTAIterations    = obs.NewCounter("sched.rta.iterations", "iterations", "response-time fixpoint iterations")
	mSolverIterations = obs.NewCounter("sched.rta.solver.iterations", "iterations", "fixpoint iterations and EDF demand points checked by the solvers")
	mWarmSeeded       = obs.NewCounter("sched.rta.warm.seeded", "tasks", "response-time fixpoints started from a warm seed")
	mSolverCuts       = obs.NewCounter("sched.rta.solver.cuts", "jumps", "cutting-plane jumps of the response-time solver")
	mSolverFallbacks  = obs.NewCounter("sched.rta.solver.fallbacks", "runs", "solver fallbacks: jumps reverted, or an EDF deadline list too long for QPA")
	mCPrimeComputed   = obs.NewCounter("sched.cprime.computed", "tasks", "effective WCETs computed")
	mExactDegraded    = obs.NewCounter("exact.degraded", "tasks", "tasks whose exact delay fell back to Algorithm 1")
)
