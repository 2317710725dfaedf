package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// clock is the load generator's time source, measured from the start of the
// run. The real one reads the monotonic clock; tests inject one whose timer
// wakes late on purpose.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

type realClock struct{ epoch time.Time }

func newRealClock() realClock { return realClock{epoch: time.Now()} }

func (c realClock) now() time.Duration { return time.Since(c.epoch) }

func (c realClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// conn is one client connection of the generator. prepare builds request i
// while the connection is idle; send performs it and reports whether it
// succeeded. A conn is used by one goroutine at a time.
type conn interface {
	prepare(i int)
	send(i int) bool
}

// sample is one open-loop request's timeline on the generator's clock.
type sample struct {
	// due is when the schedule wanted the request sent; free when its
	// connection finished the previous request; send and done when it was
	// actually sent and answered.
	due, free, send, done time.Duration
	ok                    bool
}

// oversleep is the generator's own lateness: how long after the request
// could have gone out (it was due and its connection was free) it did.
func (s sample) oversleep() time.Duration {
	ready := s.due
	if s.free > ready {
		ready = s.free
	}
	return s.send - ready
}

// latency is the request's latency measured from when it was due, so a stall
// that made it wait behind an earlier request counts, minus the generator's
// own late wakeup, which is not the program's doing.
func (s sample) latency() time.Duration { return s.done - s.due - s.oversleep() }

// lag is how far behind schedule the request was sent.
func (s sample) lag() time.Duration { return s.send - s.due }

// openLoop sends n requests numbered first, first+1, ... on a fixed schedule,
// one every interval from start, whatever the server's speed. Request k of
// the phase goes to connection k mod len(conns); a connection still busy
// when its next request is due sends it as soon as it frees up.
func openLoop(clk clock, conns []conn, first, n int, start, interval time.Duration) []sample {
	out := make([]sample, n)
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cn := conns[c]
			free := clk.now()
			for k := c; k < n; k += len(conns) {
				cn.prepare(first + k)
				due := start + time.Duration(k)*interval
				clk.sleepUntil(due)
				send := clk.now()
				ok := cn.send(first + k)
				done := clk.now()
				out[k] = sample{due: due, free: free, send: send, done: done, ok: ok}
				free = done
			}
		}(c)
	}
	wg.Wait()
	return out
}

// closedLoop sends requests numbered from first back to back on every
// connection, each connection waiting for its answer before the next, until
// the clock reaches until or limit requests (when positive) have been
// started. It returns how many requests completed and how many failed.
func closedLoop(clk clock, conns []conn, first, limit int, until time.Duration) (completed, failed int) {
	var next atomic.Int64
	next.Store(int64(first))
	var done, bad atomic.Int64
	var wg sync.WaitGroup
	for _, cn := range conns {
		wg.Add(1)
		go func(cn conn) {
			defer wg.Done()
			for clk.now() < until {
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= first+limit {
					return
				}
				cn.prepare(i)
				if !cn.send(i) {
					bad.Add(1)
				}
				done.Add(1)
			}
		}(cn)
	}
	wg.Wait()
	return int(done.Load()), int(bad.Load())
}
