package guard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// entryOp is one call on the lane under test: TickN(n) for n >= 0, an
// EntryErr check for opEntry and an Err check for opErr.
const (
	opEntry = -1
	opErr   = -2
)

// laneEntryCheck runs ops on a lane of a traced scope (budget, context
// canceled from poll cancelAt on, deadline already passed when passed is
// set, prefix direct ticks first) and reports the first call after which
// the lane's entry check breaks its contract:
//   - it reports an error exactly when the lane's last poll-point tick
//     found a cancellation, so it never reports what that poll did not,
//     and it reports a cancellation or a passed deadline from the lane's
//     next poll-point tick on;
//   - what it reports is Err's text for that cause at the lane's Steps;
//   - it reads neither the context nor the clock, and runs no checkpoint.
func laneEntryCheck(budget int64, cancelAt, prefix int, passed bool, ops []int64) error {
	par := newTraced(budget, cancelAt)
	if passed {
		par.g.WithDeadline(time.Now().Add(-time.Second))
	}
	for i := 0; i < prefix; i++ {
		_ = par.g.Tick()
	}
	lane := par.g.Lane()
	defer lane.Close()
	var seen error // the cause the lane's last poll-point tick found
	for k, n := range ops {
		polls, checks := par.ctx.polls, len(par.checks)
		switch n {
		case opEntry:
			got := lane.EntryErr()
			if par.ctx.polls != polls || len(par.checks) != checks {
				return fmt.Errorf("call %d: the entry check polled the context or ran a checkpoint", k)
			}
			want := "<nil>"
			if seen != nil {
				want = fmt.Sprintf("%v after %d steps: %v", ErrCanceled, lane.Steps(), seen)
			}
			if errText(got) != want {
				return fmt.Errorf("call %d: entry check %q, want %q", k, errText(got), want)
			}
			if got != nil && !errors.Is(got, ErrCanceled) {
				return fmt.Errorf("call %d: entry check %v does not wrap ErrCanceled", k, got)
			}
		case opErr:
			_ = lane.Err()
		default:
			err := lane.TickN(n)
			if par.ctx.polls == polls {
				continue // no poll point reached
			}
			switch {
			case cancelAt > 0 && par.ctx.polls >= cancelAt:
				seen = context.Canceled
			case passed:
				seen = errDeadline
			}
			if seen != nil && !errors.Is(err, ErrCanceled) {
				return fmt.Errorf("call %d (n=%d): the poll found %v but the tick returned %v", k, n, seen, err)
			}
		}
	}
	return nil
}

// entryOps turns fuzz bytes into calls: 0xff an EntryErr check, 0xfe an
// Err check, anything else TickN of its value times three.
func entryOps(calls []byte) []int64 {
	ops := make([]int64, len(calls))
	for i, c := range calls {
		switch c {
		case 0xff:
			ops[i] = opEntry
		case 0xfe:
			ops[i] = opErr
		default:
			ops[i] = 3 * int64(c)
		}
	}
	return ops
}

// FuzzLaneEntryCheck fuzzes laneEntryCheck's contract over budgets,
// cancellation points, passed deadlines, prefixes and call sequences.
func FuzzLaneEntryCheck(f *testing.F) {
	f.Add(uint16(0), uint8(1), false, uint16(0), []byte{0xff, 100, 0xff, 100, 0xff, 0xfe, 0xff})
	f.Add(uint16(0), uint8(0), true, uint16(10), []byte{0xff, 85, 0xff, 1, 0xff})
	f.Add(uint16(600), uint8(3), false, uint16(250), []byte{1, 2, 0xff, 200, 0xff, 90, 0xfe, 0xff, 200, 0xff})
	f.Add(uint16(300), uint8(0), true, uint16(299), []byte{0xff, 1, 0xff, 100, 0xff})
	f.Fuzz(func(t *testing.T, budget uint16, cancelAt uint8, passed bool, prefix uint16, calls []byte) {
		if err := laneEntryCheck(int64(budget), int(cancelAt%16), int(prefix%1024), passed, entryOps(calls)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLaneEntryCheck runs laneEntryCheck over random inputs, and checks
// that on a scope that is not a lane the entry check is Err.
func TestLaneEntryCheck(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 3000; trial++ {
		budget := int64(r.Intn(2000))
		cancelAt := 0
		if r.Intn(3) == 0 {
			cancelAt = 1 + r.Intn(8)
		}
		passed := r.Intn(6) == 0
		prefix := r.Intn(600)
		ops := make([]int64, r.Intn(60))
		for i := range ops {
			switch k := r.Intn(10); {
			case k < 3:
				ops[i] = opEntry
			case k == 3:
				ops[i] = opErr
			case k < 6:
				ops[i] = 1
			default:
				ops[i] = int64(r.Intn(2 * pollEvery))
			}
		}
		if err := laneEntryCheck(budget, cancelAt, prefix, passed, ops); err != nil {
			t.Fatalf("budget %d, cancel at poll %d, deadline passed %v, prefix %d: %v", budget, cancelAt, passed, prefix, err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx).WithBudget(10)
	for _, g := range []*Ctx{nil, g} {
		if err := g.EntryErr(); err != nil {
			t.Fatalf("live scope: entry check %v", err)
		}
	}
	cancel()
	if got, want := errText(g.EntryErr()), errText(g.Err()); got != want {
		t.Fatalf("canceled scope: entry check %q, Err %q", got, want)
	}
}
