package main

import (
	"slices"
	"strconv"
	"sync"
	"time"
)

// The machine the benchmark runs on is shared, and the speed it gives a
// process moves under it. On the 2-core reference machine the reference
// kernel below took either about 25 or about 45 us a call, switching between
// the two every few tens of milliseconds on either vCPU, and the share of
// time spent slow drifted over minutes: a compute loop's median over 5 s
// windows ranged from 0.91 to 1.85 ms a call. CPU time swings with wall time,
// so this is not steal that CPU time would leave out, and no statistic taken
// within a run removes a drift that lasts as long as a run.
//
// So a gauge samples the machine's speed all through a run, timing the
// kernel every sampleEvery, and the run's timed metrics are converted to the
// reference speed with the mean sampled speed. In two sets of ten 25 s runs
// of each workload, the quartile spreads of p50_ms, tail_ms and ops_per_s
// were 0.05 to 0.29 of the median as measured and 0.02 to 0.07 at reference
// speed.

// nominalKernel is the reference kernel's time per call at reference speed,
// about its median on the reference machine under the benchmark's load.
// Times are scaled to it, so it fixes the unit of every timed metric; it is
// a constant, never measured by a run, so a faster program reads faster on
// any machine.
const nominalKernel = 40 * time.Microsecond

// sampleEvery is the gauge's sampling period. Each sample is two kernel
// calls, about 1% of one core.
const sampleEvery = 10 * time.Millisecond

// refKernel is the reference kernel: a fixed mix of the work the service
// does most, on inputs fixed at construction: formatting and parsing
// floating-point numbers (the JSON codec's hot loop), string-keyed map
// lookups, and a sort. It allocates nothing, so neither the program's heap
// nor its garbage collector changes its cost.
type refKernel struct {
	vals    []float64
	texts   []string
	buf     []byte
	keys    []string
	index   map[string]int
	ints    []int
	scratch []int
	// checksum consumes every result, so no step can be optimised away.
	checksum float64
}

func newRefKernel() *refKernel {
	const n = 128
	k := &refKernel{index: map[string]int{}, buf: make([]byte, 0, 32*n), scratch: make([]int, n)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := float64(x%1_000_000) / 997
		k.vals = append(k.vals, v)
		k.texts = append(k.texts, strconv.FormatFloat(v, 'g', -1, 64))
		key := strconv.FormatUint(x%100_000, 36)
		k.keys = append(k.keys, key)
		k.index[key] = i
		k.ints = append(k.ints, int(x%1_000_003))
	}
	return k
}

// run makes one kernel call.
func (k *refKernel) run() {
	k.buf = k.buf[:0]
	for _, v := range k.vals {
		k.buf = strconv.AppendFloat(k.buf, v, 'g', -1, 64)
		k.buf = append(k.buf, ',')
	}
	sum := float64(len(k.buf))
	for _, s := range k.texts {
		f, _ := strconv.ParseFloat(s, 64)
		sum += f
	}
	for r := 0; r < 2; r++ {
		for _, key := range k.keys {
			sum += float64(k.index[key])
		}
	}
	copy(k.scratch, k.ints)
	slices.Sort(k.scratch)
	k.checksum += sum + float64(k.scratch[len(k.scratch)/2])
}

// speedNow times one kernel call after a first call that brings its data
// back into cache, and returns the speed relative to reference: 2 means
// twice as fast.
func (k *refKernel) speedNow() float64 {
	k.run()
	start := time.Now()
	k.run()
	return float64(nominalKernel) / float64(time.Since(start))
}

// gauge samples the machine's speed, relative to reference, every
// sampleEvery from start to close.
type gauge struct {
	mu  sync.Mutex
	sum float64
	n   int
	// stop ends the sampling; done closes when it has ended.
	stop, done chan struct{}
	stopOnce   sync.Once
}

// startGauge takes a first sample and starts sampling. The caller stops it
// with close.
func startGauge() *gauge {
	g := &gauge{stop: make(chan struct{}), done: make(chan struct{})}
	k := newRefKernel()
	g.add(k.speedNow())
	go func() {
		defer close(g.done)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				g.add(k.speedNow())
			}
		}
	}()
	return g
}

func (g *gauge) add(speed float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.sum += speed
	g.n++
}

// scale is the mean speed sampled so far, and the number of samples: the
// factor that turns a time measured over the sampled stretch into one at
// reference speed. A rate is divided by it.
func (g *gauge) scale() (float64, int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sum / float64(g.n), g.n
}

// close stops the sampling and waits for it to end; a second call does
// nothing.
func (g *gauge) close() {
	g.stopOnce.Do(func() { close(g.stop) })
	<-g.done
}

// toReference stops g and converts the run's timed end-to-end metrics to
// reference speed with its scale: times are multiplied by it and the rate
// divided. The values as measured are printed first.
func (r *report) toReference(g *gauge) {
	g.close()
	s, n := g.scale()
	m := r.metrics
	r.infof("as measured: p50_ms %.6g, tail_ms %.6g, setup_s %.6g, ops_per_s %.6g",
		m["p50_ms"], m["tail_ms"], m["setup_s"], m["ops_per_s"])
	m["p50_ms"] *= s
	m["tail_ms"] *= s
	m["setup_s"] *= s
	m["ops_per_s"] /= s
	r.infof("speed: mean %.4f of reference over %d samples; timed metrics converted to reference speed", s, n)
}
