package fsfault

import "fnpr/internal/obs"

// The fault injector's metrics, in the process-global registry: one count
// per fault it fired.
var (
	mWriteErrors = obs.NewCounter("fsfault.write_errors", "faults", "injected write errors")
	mShortWrites = obs.NewCounter("fsfault.short_writes", "faults", "injected short writes")
	mBitFlips    = obs.NewCounter("fsfault.bit_flips", "faults", "injected bit flips")
	mSyncErrors  = obs.NewCounter("fsfault.sync_errors", "faults", "injected fsync errors")
)
