package main

import (
	"sync"
	"testing"
	"time"
)

// lateClock is a virtual clock whose timer always wakes late by a fixed
// amount, like an overloaded machine's.
type lateClock struct {
	mu   sync.Mutex
	t    time.Duration
	late time.Duration
}

func (c *lateClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *lateClock) sleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.t {
		c.t = t + c.late
	}
}

func (c *lateClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += d
}

// stallConn answers in 1 ms, except request stall, which takes 35 ms.
type stallConn struct {
	clk   *lateClock
	stall int
}

func (c *stallConn) prepare(int) {}

func (c *stallConn) send(i int) bool {
	if i == c.stall {
		c.clk.advance(35 * time.Millisecond)
	} else {
		c.clk.advance(time.Millisecond)
	}
	return true
}

func TestOpenLoopCountsStallsNotOversleep(t *testing.T) {
	clk := &lateClock{late: 3 * time.Millisecond}
	ms := time.Millisecond
	got := openLoop(clk, []conn{&stallConn{clk: clk, stall: 2}}, 0, 5, 5*ms, 10*ms)
	// Requests are due at 5, 15, 25, 35, 45 ms. The timer wakes 3 ms late
	// every time it sleeps; request 2 stalls the connection for 35 ms, so
	// requests 3 and 4 are sent late without sleeping.
	want := []struct{ latency, oversleep time.Duration }{
		{1 * ms, 3 * ms},  // late wakeup excluded: latency is the service time
		{1 * ms, 3 * ms},  //
		{35 * ms, 3 * ms}, // the stalled request itself
		{29 * ms, 0},      // waited 28 ms behind the stall: counted
		{20 * ms, 0},      // still behind: counted
	}
	for i, w := range want {
		if got[i].latency() != w.latency || got[i].oversleep() != w.oversleep {
			t.Errorf("request %d: latency %v oversleep %v; want %v and %v",
				i, got[i].latency(), got[i].oversleep(), w.latency, w.oversleep)
		}
	}
}

// countConn counts the requests it is asked to send.
type countConn struct {
	clk  *lateClock
	sent []int
}

func (c *countConn) prepare(int) {}

func (c *countConn) send(i int) bool {
	c.clk.advance(time.Millisecond)
	c.sent = append(c.sent, i)
	return i%4 != 3
}

func TestClosedLoopLimit(t *testing.T) {
	clk := &lateClock{}
	c := &countConn{clk: clk}
	done, failed := closedLoop(clk, []conn{c}, 10, 8, time.Hour)
	if done != 8 || failed != 2 {
		t.Errorf("closed loop: %d done, %d failed; want 8 and 2", done, failed)
	}
	for k, i := range c.sent {
		if i != 10+k {
			t.Fatalf("request %d numbered %d, want %d", k, i, 10+k)
		}
	}
}

func TestSlotHoldsTheMixInEveryBlock(t *testing.T) {
	const n = 10
	orders := map[string]bool{}
	for b := 0; b < 20; b++ {
		seen := map[int]bool{}
		order := ""
		for i := b * n; i < (b+1)*n; i++ {
			s := slot(7, i, n)
			seen[s] = true
			order += string(rune('0' + s))
		}
		if len(seen) != n {
			t.Fatalf("block %d holds slots %v, want each of 0..%d once", b, seen, n-1)
		}
		orders[order] = true
	}
	if len(orders) < 2 {
		t.Error("every block has the same order; want the seed to shuffle them")
	}
}
