package server

import "fnpr/internal/obs"

// The service's metrics. The per-route families resolve by name: each
// route's instruments are resolved once, when its handler is wrapped.
var (
	mRouteRequests = obs.NewFamily(obs.KindCounter, "server.<route>.requests", "requests", "requests received on the route")
	mRouteInflight = obs.NewFamily(obs.KindGauge, "server.<route>.inflight", "requests", "requests in progress on the route")
	mRouteLatency  = obs.NewFamily(obs.KindHistogram, "server.<route>.latency_ns", "ns", "handler time per request on the route")
	mRouteStatus   = obs.NewFamily(obs.KindCounter, "server.<route>.status.<N>xx", "responses", "responses on the route by status class")

	mPanics        = obs.NewCounter("server.panics_recovered", "panics", "panics recovered in handlers and jobs")
	mAdmitted      = obs.NewCounter("server.admitted", "requests", "requests and jobs admitted")
	mRejected      = obs.NewCounter("server.rejected", "requests", "requests and jobs refused because the queue or limit was full")
	mShed          = obs.NewCounter("server.shed", "requests", "requests and jobs refused while draining")
	mQueueDepth    = obs.NewGauge("server.queue.depth", "jobs", "jobs waiting in the queue")
	mQueueCapacity = obs.NewGauge("server.queue.capacity", "jobs", "queue capacity")
	mWorkers       = obs.NewGauge("server.workers", "workers", "job worker count")
	mJobsRunning   = obs.NewGauge("server.jobs.running", "jobs", "jobs running")
	mJobsRecovered = obs.NewCounter("server.jobs.recovered", "jobs", "unfinished jobs re-queued from the job store at start")
	mJobsReloaded  = obs.NewCounter("server.jobs.reloaded", "jobs", "finished jobs reloaded from the job store at start")
	mJobsEvicted   = obs.NewCounter("server.jobs.evicted", "jobs", "finished jobs evicted from memory and the store")
	mJobsDedup     = obs.NewCounter("server.jobs.deduplicated", "jobs", "submissions answered with an existing job")
	mStoreErrors   = obs.NewCounter("server.store.errors", "errors", "job-store writes that failed")
)
