package eval

import (
	"fmt"
	"math"

	"fnpr/internal/core"
	"fnpr/internal/delay"
	"fnpr/internal/exact"
	"fnpr/internal/guard"
	"fnpr/internal/sim"
	"fnpr/internal/task"
	"fnpr/internal/textplot"
)

// TightnessParams configures the bound-tightness experiment — an extension
// asking the question every upper bound invites: how far above reality is
// it? For a victim task with a two-peak delay pattern, sweep Q, compute
// Algorithm 1's bound, and compare with the worst per-job delay observed in
// long floating-NPR simulations and with the strongest analytic adversary
// (the peak-seeking scenario).
type TightnessParams struct {
	Qs      []float64
	Horizon float64
}

// DefaultTightnessParams returns the configuration used by the binary and
// the benchmarks.
func DefaultTightnessParams() TightnessParams {
	return TightnessParams{
		Qs:      []float64{5, 6, 8, 10, 12, 15, 20, 25, 30},
		Horizon: 60000,
	}
}

// Tightness runs the sweep under a guard scope (nil = no limits). Series:
// the Algorithm 1 bound, the adversarial peak-seeking scenario's delay (the
// best lower bound on the true worst case the library can construct), and
// the worst delay observed in the simulated schedule (whose release pattern
// is synchronous-periodic, hence generally milder than the adversary).
func Tightness(g *guard.Ctx, p TightnessParams) (*textplot.Table, error) {
	if len(p.Qs) == 0 || p.Horizon <= 0 {
		return nil, guard.Invalidf("eval: invalid tightness parameters %+v", p)
	}
	tbl := &textplot.Table{
		XLabel: "Q (victim)",
		YLabel: "per-job cumulative delay",
		X:      append([]float64(nil), p.Qs...),
		Series: []textplot.Series{
			{Name: "Algorithm 1 bound"},
			{Name: "adversarial scenario"},
			{Name: "observed worst (simulation)"},
			{Name: "exact worst case"},
		},
	}
	// Victim delay pattern: two expensive regions separated by cheap
	// computation (the flavour of the paper's third benchmark).
	victim, err := delay.NewPiecewise(
		[]float64{0, 6, 9, 18, 21, 30},
		[]float64{1, 4, 0.5, 4, 0.5},
	)
	if err != nil {
		return nil, err
	}
	helper, err := delay.NewPiecewise([]float64{0, 4}, []float64{0.3})
	if err != nil {
		return nil, err
	}
	for _, q := range p.Qs {
		f := victim
		res1, err := core.Analyze(g, f, q, core.Options{})
		if err != nil {
			return nil, err
		}
		bound := res1.TotalDelay
		_, peak := core.PeakSeekingScenario(f, q)
		ts := task.Set{
			{Name: "fast", C: 1, T: 7, Q: 1, Prio: 0},
			{Name: "medium", C: 4, T: 23, Q: 2, Prio: 1},
			{Name: "victim", C: 30, T: 120, Q: q, Prio: 2},
		}
		fns := []delay.Function{nil, helper, f}
		res, err := sim.Run(g, sim.Config{
			Tasks: ts, Policy: sim.FixedPriority, Mode: sim.FloatingNPR,
			Horizon: p.Horizon, Delay: fns,
		})
		if err != nil {
			return nil, err
		}
		tbl.Series[0].Y = append(tbl.Series[0].Y, bound)
		tbl.Series[1].Y = append(tbl.Series[1].Y, peak.TotalDelay)
		tbl.Series[2].Y = append(tbl.Series[2].Y, res.Tasks[2].MaxDelayPerJob)
		// The exact engine explores a merged pareto frontier; where even
		// that trips its state budget (very small Q) the point is omitted
		// (NaN renders as a gap), but caller aborts still stop the sweep.
		ex, err := exact.Delay(g, f, q, exact.Options{MaxStates: 3_000_000})
		oracle := ex.Delay
		if err != nil {
			if guard.Abortive(err) {
				return nil, err
			}
			oracle = math.NaN()
		}
		tbl.Series[3].Y = append(tbl.Series[3].Y, oracle)
	}
	if err := tbl.Validate(); err != nil {
		return nil, err
	}
	return tbl, nil
}

// TightnessChecks enforces the soundness ordering: both the adversarial
// scenario and the observed schedule stay at or below the bound at every Q.
// Note the adversary does NOT necessarily dominate the simulation — the
// peak-seeker is myopic (best point within one window), and a concrete
// schedule's arrival pattern can extract more delay over a whole job; the
// best lower bound on the true worst case is the max of the two.
func TightnessChecks(tbl *textplot.Table) error {
	if len(tbl.Series) != 4 {
		return guard.Invalidf("eval: tightness table incomplete")
	}
	bound, adv, obs, exact := tbl.Series[0].Y, tbl.Series[1].Y, tbl.Series[2].Y, tbl.Series[3].Y
	for i := range tbl.X {
		if obs[i] > bound[i]+1e-9 {
			return fmt.Errorf("eval: observed %g above bound %g at Q=%g — Theorem 1 violated", obs[i], bound[i], tbl.X[i])
		}
		if adv[i] > bound[i]+1e-9 {
			return fmt.Errorf("eval: adversarial %g above bound %g at Q=%g — Theorem 1 violated", adv[i], bound[i], tbl.X[i])
		}
		if math.IsNaN(exact[i]) {
			continue // oracle budget tripped at this Q
		}
		if exact[i] > bound[i]+1e-9 {
			return fmt.Errorf("eval: exact %g above bound %g at Q=%g — Theorem 1 violated", exact[i], bound[i], tbl.X[i])
		}
		if adv[i] > exact[i]+1e-9 || obs[i] > exact[i]+1e-9 {
			return fmt.Errorf("eval: exact %g below a constructive scenario (adv %g, obs %g) at Q=%g", exact[i], adv[i], obs[i], tbl.X[i])
		}
	}
	return nil
}
