package eval

import (
	"fmt"

	"fnpr/internal/delay"
	"fnpr/internal/sim"
	"fnpr/internal/task"
	"fnpr/internal/textplot"
)

// PreemptionParams configures the preemption-collation experiment — an
// extension quantifying the paper's motivation: floating non-preemptive
// regions collate higher-priority arrivals into fewer preemption points,
// reducing both preemption counts and paid delay relative to fully
// preemptive scheduling.
type PreemptionParams struct {
	// Qs sweeps the victim task's NPR length.
	Qs []float64
	// Horizon is the simulated span per point.
	Horizon float64
}

// DefaultPreemptionParams returns the configuration used by the figures
// binary and the benchmarks.
func DefaultPreemptionParams() PreemptionParams {
	return PreemptionParams{
		Qs:      []float64{1, 2, 3, 4, 6, 8, 10, 12, 15, 20, 25, 30},
		Horizon: 60000,
	}
}

// preemptionWorkload is the fixed three-task workload the sweep runs on;
// only the victim's Q varies.
func preemptionWorkload(q float64) (task.Set, []delay.Function) {
	ts := task.Set{
		{Name: "fast", C: 1, T: 7, Q: 1, Prio: 0},
		{Name: "medium", C: 4, T: 23, Q: 2, Prio: 1},
		{Name: "victim", C: 30, T: 120, Q: q, Prio: 2},
	}
	fns := []delay.Function{
		nil,
		delay.Constant(0.3, 4),
		delay.FrontLoaded(3, 0.5, 30),
	}
	return ts, fns
}

// Preemptions runs the sweep and returns, per Q, the victim's average
// preemptions per job and average paid delay per job under floating NPR,
// with the fully-preemptive values as flat reference series.
func Preemptions(p PreemptionParams) (*textplot.Table, error) {
	if len(p.Qs) == 0 || p.Horizon <= 0 {
		return nil, fmt.Errorf("eval: invalid preemption parameters %+v", p)
	}
	tbl := &textplot.Table{
		XLabel: "Q (victim)",
		YLabel: "per-job average",
		X:      append([]float64(nil), p.Qs...),
		Series: []textplot.Series{
			{Name: "preemptions (floating NPR)"},
			{Name: "preemptions (fully preemptive)"},
			{Name: "delay (floating NPR)"},
			{Name: "delay (fully preemptive)"},
		},
	}
	run := func(mode sim.Mode, q float64) (perJobPreempt, perJobDelay float64, err error) {
		ts, fns := preemptionWorkload(q)
		res, err := sim.Run(nil, sim.Config{
			Tasks: ts, Policy: sim.FixedPriority, Mode: mode,
			Horizon: p.Horizon, Delay: fns,
		})
		if err != nil {
			return 0, 0, err
		}
		st := res.Tasks[2]
		if st.Finished == 0 {
			return 0, 0, fmt.Errorf("eval: victim never finished")
		}
		return float64(st.Preemptions) / float64(st.Finished),
			st.DelayPaid / float64(st.Finished), nil
	}
	for _, q := range p.Qs {
		fp, fd, err := run(sim.FloatingNPR, q)
		if err != nil {
			return nil, err
		}
		pp, pd, err := run(sim.FullyPreemptive, q)
		if err != nil {
			return nil, err
		}
		tbl.Series[0].Y = append(tbl.Series[0].Y, fp)
		tbl.Series[1].Y = append(tbl.Series[1].Y, pp)
		tbl.Series[2].Y = append(tbl.Series[2].Y, fd)
		tbl.Series[3].Y = append(tbl.Series[3].Y, pd)
	}
	if err := tbl.Validate(); err != nil {
		return nil, err
	}
	return tbl, nil
}

// PreemptionChecks verifies the structural expectations: floating-NPR
// preemption counts never exceed the fully-preemptive reference, and they
// are non-increasing in Q (larger regions collate more arrivals) up to a
// small tolerance for boundary effects.
func PreemptionChecks(tbl *textplot.Table) error {
	col := func(name string) []float64 {
		for _, s := range tbl.Series {
			if s.Name == name {
				return s.Y
			}
		}
		return nil
	}
	fnpr := col("preemptions (floating NPR)")
	full := col("preemptions (fully preemptive)")
	if fnpr == nil || full == nil {
		return fmt.Errorf("eval: preemption table incomplete")
	}
	for i := range tbl.X {
		if fnpr[i] > full[i]+1e-9 {
			return fmt.Errorf("eval: FNPR preemptions (%g) above fully-preemptive (%g) at Q=%g",
				fnpr[i], full[i], tbl.X[i])
		}
	}
	const tolerance = 0.35 // jobs per hyperperiod fluctuate at window edges
	for i := 1; i < len(fnpr); i++ {
		if fnpr[i] > fnpr[i-1]+tolerance {
			return fmt.Errorf("eval: FNPR preemptions grew from %g to %g as Q rose to %g",
				fnpr[i-1], fnpr[i], tbl.X[i])
		}
	}
	return nil
}
