package memo

import "fnpr/internal/obs"

// The result cache's metrics. The persistence counters report into the
// process-global registry.
var (
	mHits       = obs.NewCounter("memo.hits", "lookups", "cache lookups answered")
	mMisses     = obs.NewCounter("memo.misses", "lookups", "cache lookups not answered")
	mPuts       = obs.NewCounter("memo.puts", "entries", "entries stored")
	mEvictions  = obs.NewCounter("memo.evictions", "entries", "entries evicted by the per-shard LRU")
	mCollisions = obs.NewCounter("memo.collisions", "lookups", "key hits whose verify bytes differed")
	mEntries    = obs.NewGauge("memo.entries", "entries", "entries held")
	mBytes      = obs.NewGauge("memo.bytes", "bytes", "approximate bytes held")
	mSaved      = obs.NewCounter("memo.persist.saved", "entries", "entries written by Persist")
	mLoaded     = obs.NewCounter("memo.persist.loaded", "entries", "entries restored by Warm")
	mRejected   = obs.NewCounter("memo.persist.rejected", "entries", "persisted entries Warm could not decode")
)
