package sim

import (
	"context"
	"errors"
	"testing"

	"fnpr/internal/guard"
	"fnpr/internal/task"
)

func guardedConfig() Config {
	return Config{
		Tasks: task.Set{
			{Name: "a", C: 1, T: 7, Q: 1, Prio: 0},
			{Name: "b", C: 4, T: 23, Q: 2, Prio: 1},
			{Name: "c", C: 9, T: 120, Q: 3, Prio: 2},
		},
		Policy:  FixedPriority,
		Mode:    FloatingNPR,
		Horizon: 50000,
	}
}

// TestRunCtxCancelMidRun cancels the context from the guard's own checkpoint
// callback — i.e. genuinely mid-event-loop, after at least one poll interval
// of simulation steps — and expects the run to stop with ErrCanceled instead
// of completing the horizon.
func TestRunCtxCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired int64
	g := guard.New(ctx).WithCheckpoint(func(steps int64) {
		if fired == 0 {
			fired = steps
		}
		cancel()
	})
	res, err := Run(g, guardedConfig())
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("mid-run cancel: got %v, want ErrCanceled", err)
	}
	if res != nil {
		t.Fatal("canceled run still returned a result")
	}
	if fired == 0 {
		t.Fatal("checkpoint never fired: the event loop is not ticking the guard")
	}
}

// TestRunCtxBudget: a step budget far below the horizon's event count stops
// the simulation with ErrBudgetExceeded.
func TestRunCtxBudget(t *testing.T) {
	g := guard.New(context.Background()).WithBudget(100)
	_, err := Run(g, guardedConfig())
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("budget 100: got %v, want ErrBudgetExceeded", err)
	}
}
