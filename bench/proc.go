package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// heapSampler samples the live heap (the bytes the last garbage collection
// marked live) every 100 ms until stopped. The median of the samples is the
// steady-state footprint; unlike the peak it does not hinge on where one
// collection happened to land.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.samples = append(h.samples, liveHeapMB())
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns the median live heap
// in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.samples = append(h.samples, liveHeapMB())
	return median(h.samples)
}

// procSnap is the process-wide counters the per-op process metrics are
// deltas of. The load generator runs in the same process, so its share is
// included, identically on every commit.
type procSnap struct {
	allocs     uint64
	gcCPU, cpu float64 // runtime CPU-class estimates, seconds
	rusage     time.Duration
}

func readProc() procSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var p procSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		p.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		p.cpu = s[2].Value.Float64()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.rusage = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return p
}

// mallocs is the process's cumulative heap allocation count, exact at the
// call (it stops the world briefly), for allocations-per-call figures.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
