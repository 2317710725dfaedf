package eval

import (
	"errors"
	"math/rand"
	"testing"

	"fnpr/internal/delay"
	"fnpr/internal/guard"
	"fnpr/internal/obs"
	"fnpr/internal/sched"
	"fnpr/internal/synth"
	"fnpr/internal/task"
)

// acceptanceOracle is the acceptance trial as first written: all four
// analyses run on every set, the no-delay response times seeding the
// others and Algorithm 1's seeding Equation 4. acceptanceVerdicts must
// return its verdicts on every set.
func acceptanceOracle(g *guard.Ctx, sc *obs.Scope, ts task.Set, fns, none []delay.Function) (acceptanceVerdict, error) {
	var v acceptanceVerdict
	var ndRTs []float64
	nd, err := sched.Analyze(g, ts, sched.Options{Obs: sc, Delay: none, Method: sched.Algorithm1})
	if err == nil {
		v.admit[3] = nd.Schedulable
		ndRTs = nd.Response
	} else if guard.Abortive(err) {
		return v, err
	}
	var a1RTs []float64
	a1, err := sched.Analyze(g, ts, sched.Options{Obs: sc, Delay: fns, Method: sched.Algorithm1, Warm: ndRTs})
	if err == nil {
		v.admit[0] = a1.Schedulable
		a1RTs = a1.Response
	} else if guard.Abortive(err) {
		return v, err
	}
	if lim, err := sched.Analyze(g, ts, sched.Options{Obs: sc, Delay: fns, Method: sched.Algorithm1, Limited: true, Warm: ndRTs}); err == nil {
		v.admit[1] = lim.Schedulable
	} else if guard.Abortive(err) {
		return v, err
	}
	e4Warm := ndRTs
	if a1RTs != nil {
		e4Warm = a1RTs
	}
	if e4, err := sched.Analyze(g, ts, sched.Options{Obs: sc, Delay: fns, Method: sched.Equation4, Warm: e4Warm}); err == nil {
		v.admit[2] = e4.Schedulable
	} else if guard.Abortive(err) {
		return v, err
	}
	return v, nil
}

// verdictStats counts what a differential run covered.
type verdictStats struct {
	sets          int
	vectors       map[[4]bool]int
	a1Diverged    int // no-delay admits, Algorithm 1 diverges
	limitedRescue int // the limited analysis admits what Algorithm 1 rejects
}

// checkVerdicts decides ts both ways and fails on any difference.
func (st *verdictStats) checkVerdicts(t testing.TB, label string, ts task.Set, fns []delay.Function) {
	t.Helper()
	none := make([]delay.Function, len(ts))
	got, err := acceptanceVerdicts(nil, nil, ts, fns, none)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, err := acceptanceOracle(nil, nil, ts, fns, none)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	if got != want {
		t.Fatalf("%s: verdicts %v, oracle %v\nset %v", label, got.admit, want.admit, ts)
	}
	if st.vectors == nil {
		st.vectors = map[[4]bool]int{}
	}
	st.sets++
	st.vectors[got.admit]++
	if got.admit[1] && !got.admit[0] {
		st.limitedRescue++
	}
	if got.admit[3] {
		_, err := sched.Analyze(nil, ts, sched.Options{Delay: fns, Method: sched.Algorithm1})
		if errors.Is(err, guard.ErrDiverged) {
			st.a1Diverged++
		}
	}
}

// Variants verdictFixture applies to a drawn set, one bit each.
const (
	variantJitter   = 1 << iota // release jitter on some tasks
	variantTies                 // tied periods and priorities
	variantDeadline             // constrained deadlines
	variantDiverge              // one curve whose peak reaches Q
	variantAll      = variantJitter | variantTies | variantDeadline | variantDiverge
)

// verdictFixture draws a set as the campaign does (2 to 10 tasks, U in
// [0.3, 1)) and then applies the variants: sets synth never draws. It
// returns nil when the draw is infeasible fully preemptively.
func verdictFixture(r *rand.Rand, variants int) (task.Set, []delay.Function) {
	p := DefaultAcceptanceParams()
	p.Seed, p.Tasks = r.Int63(), 2+r.Intn(9)
	w := newAcceptanceWorker(p.Tasks, nil)
	ts, fns, err := w.draw(p, 0, 0.3+0.7*r.Float64(), 0)
	if err != nil || ts == nil {
		return nil, nil
	}
	for i := range ts {
		if variants&variantJitter != 0 && r.Intn(2) == 0 {
			ts[i].Jitter = 0.2 * r.Float64() * ts[i].T
		}
		// Raising the higher-priority period to its neighbour's keeps
		// C <= D and the rate-monotonic order.
		if variants&variantTies != 0 && i > 0 && r.Intn(3) == 0 {
			ts[i-1].T, ts[i-1].Prio = ts[i].T, ts[i].Prio
		}
		if variants&variantDeadline != 0 && r.Intn(2) == 0 {
			ts[i].D = ts[i].C + r.Float64()*(ts[i].T-ts[i].C)
		}
	}
	if variants&variantDiverge != 0 && len(ts) > 1 {
		k := 1 + r.Intn(len(ts)-1)
		peak := ts[k].Q * (1 + r.Float64())
		if err := w.curves[k].ResetFrontLoaded(peak, peak/5, ts[k].C); err != nil {
			return nil, nil
		}
	}
	return ts, fns
}

// TestAcceptanceVerdictsMatchOracle: on every set, deciding only the open
// verdicts gives the four-analysis trial's verdicts. It covers the default
// grid's draws at 5 and 10 tasks (3000 sets each), and fixtures with
// jitter, tied periods and priorities, constrained deadlines and divergent
// Algorithm 1 bounds.
func TestAcceptanceVerdictsMatchOracle(t *testing.T) {
	sets := 250
	if testing.Short() {
		sets = 25
	}
	for _, n := range []int{5, 10} {
		var st verdictStats
		p := DefaultAcceptanceParams()
		p.Tasks, p.SetsPerPoint = n, sets
		w := newAcceptanceWorker(n, nil)
		for pt, u := range p.points() {
			for tr := 0; tr < sets; tr++ {
				ts, fns, err := w.draw(p, pt, u, tr)
				if err != nil {
					t.Fatal(err)
				}
				if ts != nil {
					st.checkVerdicts(t, "synth", ts, fns)
				}
			}
		}
		t.Logf("%d tasks: %d sets, admit vectors %v, limited admits where Algorithm 1 rejects: %d", n, st.sets, st.vectors, st.limitedRescue)
		if !testing.Short() && st.sets < 3000*9/10 {
			t.Fatalf("%d tasks: only %d feasible draws", n, st.sets)
		}
	}

	var all verdictStats
	for _, c := range []struct {
		name     string
		variants int
	}{
		{"jitter", variantJitter},
		{"ties", variantTies},
		{"deadlines", variantDeadline},
		{"diverge", variantDiverge},
		{"all", variantAll},
	} {
		var st verdictStats
		r := rand.New(rand.NewSource(31))
		for i := 0; i < 2*sets; i++ {
			if ts, fns := verdictFixture(r, c.variants); ts != nil {
				st.checkVerdicts(t, c.name, ts, fns)
			}
		}
		t.Logf("%s: %d sets, admit vectors %v", c.name, st.sets, st.vectors)
		all.a1Diverged += st.a1Diverged
		all.limitedRescue += st.limitedRescue
	}
	// The short-cuts were exercised, not just the plain paths.
	if all.a1Diverged == 0 || all.limitedRescue == 0 {
		t.Fatalf("fixtures never hit a divergent Algorithm 1 (%d) or a limited-only admit (%d)", all.a1Diverged, all.limitedRescue)
	}
}

// FuzzAcceptanceVerdicts fuzzes the same property over verdictFixture.
func FuzzAcceptanceVerdicts(f *testing.F) {
	for _, seed := range []int64{1, 7, 2012, 99991, -3} {
		f.Add(seed, uint8(variantAll))
	}
	f.Fuzz(func(t *testing.T, seed int64, variants uint8) {
		ts, fns := verdictFixture(synth.SubRand(seed, 0, 0), int(variants)&variantAll)
		if ts == nil {
			t.Skip()
		}
		new(verdictStats).checkVerdicts(t, "fuzz", ts, fns)
	})
}
