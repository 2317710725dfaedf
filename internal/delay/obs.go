package delay

import (
	"sync"

	"fnpr/internal/obs"
)

// The delay kernels sit below the guard scope (Function has no room for a
// per-call scope), so their instrumentation reports into the process-global
// registry and is gated on obs.Enabled(): an uninstrumented run pays one
// atomic bool load per query and nothing else. Queries accumulate plain local
// counters and flush once per call, never inside the bisection loop; a walk
// Cursor accumulates them across its steps and flushes once per walk.
var (
	mIndexBuilds  = obs.NewCounter("delay.index.builds", "builds", "sparse-index constructions")
	mIndexBuildNs = obs.NewHistogram("delay.index.build_ns", "ns", "time to build one sparse index")
	mRechecks     = obs.NewCounter("delay.index.rechecks", "checks", "exactness re-checks inside the indexed kernel")
	mBisections   = obs.NewCounter("delay.index.bisections", "steps", "range-maximum bisection steps inside the indexed kernel")
)

var (
	delayInstOnce sync.Once
	cIndexBuilds  *obs.Counter
	hIndexBuildNs *obs.Histogram
	cRechecks     *obs.Counter
	cBisections   *obs.Counter
)

// delayInstruments resolves the package-level instruments once; until
// obs.Enable() has been called every path using them is skipped entirely.
func delayInstruments() {
	delayInstOnce.Do(func() {
		r := obs.Default()
		cIndexBuilds = mIndexBuilds.In(r)
		hIndexBuildNs = mIndexBuildNs.In(r)
		cRechecks = mRechecks.In(r)
		cBisections = mBisections.In(r)
	})
}

// flushIndexBuild records one index construction of the given duration.
func flushIndexBuild(ns int64) {
	delayInstruments()
	cIndexBuilds.Inc()
	hIndexBuildNs.Observe(ns)
}

// flushIndexQuery records the exact re-checks and range-maximum bisections of
// one FirstReachDescending call or of one walk's steps.
func flushIndexQuery(rechecks, bisections int64) {
	delayInstruments()
	cRechecks.Add(rechecks)
	cBisections.Add(bisections)
}
