package guard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// pollCounter is a context that counts its Err polls and reports
// cancellation from the cancelAt-th poll on (never when cancelAt is 0).
type pollCounter struct {
	context.Context
	polls, cancelAt int
}

func (c *pollCounter) Err() error {
	c.polls++
	if c.cancelAt > 0 && c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// traced is one scope under test with everything a caller can observe of
// it: the context polls and the checkpoint arguments.
type traced struct {
	g      *Ctx
	ctx    *pollCounter
	checks []int64
}

func newTraced(budget int64, cancelAt int) *traced {
	tr := &traced{ctx: &pollCounter{Context: context.Background(), cancelAt: cancelAt}}
	tr.g = New(tr.ctx).WithBudget(budget).WithCheckpoint(func(s int64) { tr.checks = append(tr.checks, s) })
	return tr
}

func (tr *traced) state(err error) string {
	return fmt.Sprintf("err=%q steps=%d remaining=%d polls=%d checks=%v",
		errText(err), tr.g.Steps(), tr.g.Remaining(), tr.ctx.polls, tr.checks)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// laneMatchesDirect charges prefix steps directly on two identical scopes,
// then runs ns through a lane of one and directly on the other, and
// reports the first call after which anything observable differs: error
// text, Steps, Remaining, the context polls or the checkpoint arguments.
// It ends with the lane closed, where the parent must read as the
// reference does.
func laneMatchesDirect(budget int64, cancelAt, prefix int, ns []int64) error {
	ref, par := newTraced(budget, cancelAt), newTraced(budget, cancelAt)
	for i := 0; i < prefix; i++ {
		_, _ = ref.g.Tick(), par.g.Tick()
	}
	lane := par.g.Lane()
	laneView := &traced{g: lane, ctx: par.ctx}
	for k, n := range ns {
		var want, got error
		if n < 0 { // a negative entry stands for an Err check
			want, got = ref.g.Err(), lane.Err()
		} else {
			want, got = ref.g.TickN(n), lane.TickN(n)
		}
		laneView.checks = par.checks
		if w, g := ref.state(want), laneView.state(got); w != g {
			return fmt.Errorf("call %d (n=%d): lane %s, direct %s", k, n, g, w)
		}
	}
	lane.Close()
	if w, g := ref.state(nil), par.state(nil); w != g {
		return fmt.Errorf("after Close: parent %s, direct %s", g, w)
	}
	return nil
}

// TestLaneMatchesDirect: one lane is indistinguishable from ticking its
// parent, over random budgets (none included), cancellation points,
// prefixes and TickN sequences that cross poll multiples and the budget.
func TestLaneMatchesDirect(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 3000; trial++ {
		budget := int64(r.Intn(2000)) // 0: unlimited
		cancelAt := 0
		if r.Intn(4) == 0 {
			cancelAt = 1 + r.Intn(8)
		}
		prefix := r.Intn(600)
		ns := make([]int64, r.Intn(60))
		for i := range ns {
			switch k := r.Intn(10); {
			case k == 0:
				ns[i] = -1
			case k < 4:
				ns[i] = 1
			default:
				ns[i] = int64(r.Intn(2 * pollEvery))
			}
		}
		if err := laneMatchesDirect(budget, cancelAt, prefix, ns); err != nil {
			t.Fatalf("budget %d, cancel at poll %d, prefix %d: %v", budget, cancelAt, prefix, err)
		}
	}
}

// FuzzLaneMatchesTicks is TestLaneMatchesDirect under fuzzing: each input
// byte is one call, 0xff an Err check and anything else TickN of its value
// times three.
func FuzzLaneMatchesTicks(f *testing.F) {
	f.Add(uint16(300), uint8(0), uint16(250), []byte{1, 2, 3, 200, 1, 0xff, 90})
	f.Add(uint16(0), uint8(2), uint16(0), []byte{100, 100, 100, 100, 0xff})
	f.Add(uint16(256), uint8(0), uint16(255), []byte{0, 1, 1, 85, 86})
	f.Fuzz(func(t *testing.T, budget uint16, cancelAt uint8, prefix uint16, calls []byte) {
		ns := make([]int64, len(calls))
		for i, c := range calls {
			ns[i] = 3 * int64(c)
			if c == 0xff {
				ns[i] = -1
			}
		}
		if err := laneMatchesDirect(int64(budget), int(cancelAt%16), int(prefix%1024), ns); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLanesNeverOvergrant shares one budget between lanes and goroutines
// ticking the parent directly: the steps of the calls that succeeded never
// add up to more than the budget, and every goroutine ends on the budget.
func TestLanesNeverOvergrant(t *testing.T) {
	const budget = 20_000
	for round := 0; round < 20; round++ {
		g := New(context.Background()).WithBudget(budget)
		var granted atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			r := rand.New(rand.NewSource(int64(round*4 + w)))
			s := g
			if w%2 == 0 {
				s = g.Lane()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer s.Close()
				for {
					n := int64(1)
					if r.Intn(2) == 0 {
						n = int64(1 + r.Intn(300))
					}
					if err := s.TickN(n); err != nil {
						if !errors.Is(err, ErrBudgetExceeded) {
							t.Errorf("unexpected error %v", err)
						}
						return
					}
					granted.Add(n)
				}
			}()
		}
		wg.Wait()
		if got := granted.Load(); got > budget {
			t.Fatalf("round %d: granted %d steps on a budget of %d", round, got, budget)
		}
	}
}

// TestLaneSeesDirectCharges: a lane reports the steps charged on its
// parent by anyone, and a direct charge that spends the budget (a chaos
// Burn, say) fails the lane's next tick although its lease has room.
func TestLaneSeesDirectCharges(t *testing.T) {
	g := New(context.Background()).WithBudget(1000)
	lane := g.Lane()
	for i := 0; i < 10; i++ {
		if err := lane.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.TickN(5); err != nil {
		t.Fatal(err)
	}
	if s, r := lane.Steps(), lane.Remaining(); s != 15 || r != 985 {
		t.Fatalf("lane reads %d steps, %d remaining; want 15 and 985", s, r)
	}
	if err := g.TickN(5000); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("burn: %v", err)
	}
	if err := lane.Tick(); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("lane tick after the parent's budget was spent: %v", err)
	}
	lane.Close()
	if err := g.Tick(); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("closing the lane gave a spent budget back: %v", err)
	}
	if s := g.Steps(); s <= 1000 {
		t.Fatalf("parent counter %d fell back to the budget", s)
	}
	if lane := (*Ctx)(nil).Lane(); lane != nil || lane.Tick() != nil {
		t.Fatal("the lane of the nil scope must be the nil scope")
	}
}
