package journal

import "fnpr/internal/obs"

// The checkpoint journal's metrics, in the process-global registry.
var (
	mAppends         = obs.NewCounter("journal.appends", "records", "records appended")
	mSyncs           = obs.NewCounter("journal.syncs", "syncs", "fsyncs of the journal file")
	mRecordsReplayed = obs.NewCounter("journal.records_replayed", "records", "records read back on open")
	mTruncations     = obs.NewCounter("journal.truncations", "files", "torn tails truncated on open")
)
