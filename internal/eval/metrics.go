package eval

import "fnpr/internal/obs"

// The evaluation layer's metrics: campaign and sweep progress, the point
// ladder and the worker pools.
var (
	mCampaignWorkers  = obs.NewGauge("campaign.workers", "workers", "pool size of the current campaign")
	mCampaignTrials   = obs.NewCounter("campaign.trials", "trials", "campaign trials (atlas: cells) completed")
	mCampaignRestored = obs.NewCounter("campaign.points.restored", "points", "acceptance points restored from the journal")

	mSweepWorkers     = obs.NewGauge("sweep.workers", "workers", "pool size of the current sweep")
	mPointsClean      = obs.NewCounter("sweep.points.clean", "points", "sweep points whose primary analysis succeeded")
	mPointsDegraded   = obs.NewCounter("sweep.points.degraded", "points", "sweep points that fell back to Equation 4")
	mPointsQuarantine = obs.NewCounter("sweep.points.quarantined", "points", "sweep points whose fallback failed too")
	mPointsRestored   = obs.NewCounter("sweep.points.restored", "points", "sweep points restored from the journal")
	mPointNs          = obs.NewHistogram("sweep.point.ns", "ns", "wall time per grid point")
	mSetReused        = obs.NewCounter("sweep.analyzeset.reused", "points", "task-set sweep points reused from the previous result")
	mSetRecomputed    = obs.NewCounter("sweep.analyzeset.recomputed", "points", "task-set sweep points recomputed")
)
