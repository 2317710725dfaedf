package eval

import (
	"errors"
	"testing"

	"fnpr/internal/guard"
)

// TestCampaignInputBounds holds Validate to the input bounds that keep a
// hostile campaign from exhausting memory before its first guard tick: a
// utilization step that never advances u, task counts whose first task set
// alone is gigabytes, and trial counts whose verdict table is. Each is
// invalid input.
func TestCampaignInputBounds(t *testing.T) {
	acc := func(mut func(*AcceptanceParams)) Campaign {
		p := DefaultAcceptanceParams()
		mut(&p)
		return p
	}
	mc := func(mut func(*MonteCarloParams)) Campaign {
		p := DefaultMonteCarloParams()
		mut(&p)
		return p
	}
	for _, c := range []struct {
		name string
		camp Campaign
		ok   bool
	}{
		{"u_step=1e-300", acc(func(p *AcceptanceParams) { p.UStart, p.UEnd, p.UStep = 1, 2, 1e-300 }), false},
		{"u_step below the rounding of u", acc(func(p *AcceptanceParams) { p.UStart, p.UEnd, p.UStep = 1e20, 1e20, 1 }), false},
		{"1000-point grid", acc(func(p *AcceptanceParams) { p.UStart, p.UEnd, p.UStep = 1, 1000, 1 }), true},
		{"1001-point grid", acc(func(p *AcceptanceParams) { p.UStart, p.UEnd, p.UStep = 1, 1001, 1 }), false},
		{"tasks=1<<26", acc(func(p *AcceptanceParams) { p.Tasks = 1 << 26 }), false},
		{"tasks=1024", acc(func(p *AcceptanceParams) { p.Tasks = 1024 }), true},
		{"max_tasks=1<<26", mc(func(p *MonteCarloParams) { p.MaxTasks = 1 << 26 }), false},
		{"max_tasks=1024", mc(func(p *MonteCarloParams) { p.MaxTasks = 1024 }), true},
		{"sets_per_point=4e9", acc(func(p *AcceptanceParams) { p.SetsPerPoint = 4e9 }), false},
		{"sets_per_point=1<<62", acc(func(p *AcceptanceParams) { p.SetsPerPoint = 1 << 62 }), false},
		{"4M trials over 4 points", acc(func(p *AcceptanceParams) { p.UStart, p.UEnd, p.UStep, p.SetsPerPoint = 1, 4, 1, 1<<20 }), true},
		{"4M+4 trials over 4 points", acc(func(p *AcceptanceParams) { p.UStart, p.UEnd, p.UStep, p.SetsPerPoint = 1, 4, 1, 1<<20+1 }), false},
		{"trials=4e9", mc(func(p *MonteCarloParams) { p.Trials = 4e9 }), false},
		{"trials=1<<22", mc(func(p *MonteCarloParams) { p.Trials = 1 << 22 }), true},
	} {
		err := c.camp.Validate()
		switch {
		case c.ok && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case !c.ok && !errors.Is(err, guard.ErrInvalidInput):
			t.Errorf("%s: Validate() = %v, want invalid input", c.name, err)
		}
	}
}
