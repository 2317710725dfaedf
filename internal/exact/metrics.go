package exact

import "fnpr/internal/obs"

// The exact engines' metrics, flushed once per exploration.
var (
	mRuns       = obs.NewCounter("exact.runs", "runs", "exact explorations started (delay engine and schedule graph)")
	mStates     = obs.NewCounter("exact.states", "states", "states expanded")
	mMerges     = obs.NewCounter("exact.merges", "states", "states merged into an equivalent one")
	mPrunes     = obs.NewCounter("exact.prunes", "states", "states killed by dominance or containment")
	mMemoHits   = obs.NewCounter("exact.memo.hits", "runs", "explorations served by the result cache")
	mMemoStores = obs.NewCounter("exact.memo.stores", "runs", "exploration results stored in the result cache")
)
