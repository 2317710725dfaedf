package eval

import (
	"math"

	"fnpr/internal/delay"
	"fnpr/internal/guard"
	"fnpr/internal/task"
)

// AnalyzeSet is the batched task-set entry point of the analysis stack: it
// evaluates the Algorithm 1 cumulative-delay bound of every task at every Q
// of the grid, building one query index per task (delay.AutoIndex) that is
// shared across the whole grid and the guarded worker pool. For a set of n
// tasks whose delay functions have up to m pieces, the whole campaign costs
// O(n·m·log m) preprocessing plus O(log m) per (task, Q) window instead of
// the scan kernel's O(m) — the difference between minutes and seconds on
// Figure 5-scale sweeps over CFG-derived functions.
//
// fns[i] is task i's preemption delay function; a nil entry means the task
// suffers no preemption delay and yields an all-zero curve without running
// the analysis. Non-nil functions must match their task's WCET: Domain() ==
// ts[i].C (within 1e-9, the same tolerance internal/sched applies).
//
// The returned slice is indexed like ts; each curve's points are indexed
// like opts.Qs. Every grid point walks the SweepPoint degradation ladder
// (primary analysis, Equation 4 fallback, quarantine), and task names key the
// checkpoint journal, so sets with duplicate names cannot be journaled
// coherently. On abort the completed points are returned alongside a
// *PartialError, exactly like QSweep.
func AnalyzeSet(g *guard.Ctx, ts task.Set, fns []delay.Function, opts SweepOptions) ([]SweepResult, error) {
	qs := opts.Qs
	if len(ts) == 0 {
		return nil, guard.Invalidf("eval: empty task set")
	}
	if len(fns) != len(ts) {
		return nil, guard.Invalidf("eval: %d delay functions for %d tasks", len(fns), len(ts))
	}
	if len(qs) == 0 {
		return nil, guard.Invalidf("eval: task-set analysis needs a non-empty Q grid")
	}
	out := make([]SweepResult, len(ts))
	var specs []SweepSpec
	var live []int // out index of each spec
	for i, tk := range ts {
		if fns[i] == nil {
			pts := make([]SweepPoint, len(qs))
			for k, q := range qs {
				pts[k] = SweepPoint{Q: q, Done: true}
			}
			out[i] = SweepResult{Name: tk.Name, Points: pts}
			continue
		}
		if d := fns[i].Domain(); math.Abs(d-tk.C) > 1e-9 {
			return nil, guard.Invalidf("eval: task %s has C=%g but delay function domain %g", tk.Name, tk.C, d)
		}
		specs = append(specs, SweepSpec{Name: tk.Name, F: fns[i]})
		live = append(live, i)
	}
	if len(specs) == 0 {
		return out, nil
	}
	res, err := QSweep(g, specs, opts)
	for k := range res {
		out[live[k]] = res[k]
	}
	// Account the incremental-recomputation split: with a result cache
	// attached (SweepOptions.Memo), the terms whose (function, Q) identity
	// is unchanged since an earlier run are reused and only the edited
	// tasks' terms are recomputed. The counter pair is how the incremental
	// tests — and a -metrics snapshot — see the split.
	sc := opts.scope(g)
	var reused, recomputed int64
	for _, r := range res {
		for _, pt := range r.Points {
			if !pt.Done {
				continue
			}
			if pt.Cached {
				reused++
			} else {
				recomputed++
			}
		}
	}
	mSetReused.On(sc).Add(reused)
	mSetRecomputed.On(sc).Add(recomputed)
	return out, err
}
