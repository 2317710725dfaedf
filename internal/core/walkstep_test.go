package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"fnpr/internal/delay"
	"fnpr/internal/guard"
	"fnpr/internal/obs"
)

// twoQueries hides the walk step of the function it wraps, so Algorithm 1
// takes the FirstReachDescending + MaxOn path: the oracle of the cursor walk.
type twoQueries struct{ delay.Function }

// walkRun is everything one upperBoundFrom call exposes.
type walkRun struct {
	res     Result
	charges []float64
	err     string
	steps   int64
	iters   int64
	queries int64
	// index is the walk's delta of the process-global delay.index
	// rechecks and bisections counters.
	index [2]int64
}

func indexTallies() [2]int64 {
	r := obs.Default()
	return [2]int64{r.Counter("delay.index.rechecks").Value(), r.Counter("delay.index.bisections").Value()}
}

func runWalk(f delay.Function, q, first float64, budget int64) walkRun {
	g := guard.New(context.Background())
	if budget > 0 {
		g = g.WithBudget(budget)
	}
	reg := obs.NewRegistry()
	var trace []Iteration
	before := indexTallies()
	res, charges, err := upperBoundFrom(g, obs.NewScope(reg), f, q, first, &trace, []float64{})
	after := indexTallies()
	run := walkRun{res: res, charges: charges, steps: g.Steps(), iters: reg.Counter("core.alg1.iterations").Value()}
	run.index = [2]int64{after[0] - before[0], after[1] - before[1]}
	run.queries = reg.Counter("delay.index.queries").Value() + reg.Counter("delay.scan.queries").Value()
	if err != nil {
		run.err = err.Error()
	}
	return run
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameWalk reports the first difference between two walks, "" when they
// agree bit for bit.
func sameWalk(a, b walkRun) string {
	switch {
	case a.err != b.err:
		return "error"
	case a.steps != b.steps || a.iters != b.iters || a.queries != b.queries || a.index != b.index:
		return "guard steps or counters"
	case !bitsEqual(a.res.TotalDelay, b.res.TotalDelay) || a.res.Preemptions != b.res.Preemptions || a.res.Diverged != b.res.Diverged:
		return "result"
	case len(a.res.Iterations) != len(b.res.Iterations) || len(a.charges) != len(b.charges):
		return "trace or charge count"
	}
	for k, x := range a.res.Iterations {
		y := b.res.Iterations[k]
		if !bitsEqual(x.Prog, y.Prog) || !bitsEqual(x.PIntersect, y.PIntersect) || !bitsEqual(x.PMax, y.PMax) ||
			!bitsEqual(x.DelayMax, y.DelayMax) || !bitsEqual(x.PNext, y.PNext) || !bitsEqual(x.Total, y.Total) {
			return "trace"
		}
	}
	for k := range a.charges {
		if !bitsEqual(a.charges[k], b.charges[k]) {
			return "charges"
		}
	}
	return ""
}

// stepFixture draws a step function with n pieces, coarse values (plateaus
// and ties) and some breakpoints one ulp apart.
func stepFixture(rng *rand.Rand, n int) *delay.Piecewise {
	xs := []float64{0}
	vs := make([]float64, n)
	for i := range vs {
		last := xs[len(xs)-1]
		if i > 0 && rng.Intn(8) == 0 {
			xs = append(xs, math.Nextafter(last, math.Inf(1)))
		} else {
			xs = append(xs, last+0.05+rng.Float64()*3)
		}
		vs[i] = math.Floor(rng.Float64()*10) / 4
	}
	f, err := delay.NewPiecewise(xs, vs)
	if err != nil {
		panic(err)
	}
	return f
}

// TestWalkStepMatchesTwoQueryWalk is the walk-level differential test of
// the cursor step: on both kernels, at random, breakpoint-gap and
// ulp-adjacent Qs, from full and shrunken first windows, the walk is bit
// for bit the two-query walk in total, trace, charges, divergence, work
// counters (the index kernel's rechecks and bisections included) and guard
// trip points (every step budget up to one past the
// walk's length), and Analyze's limited bound agrees too.
func TestWalkStepMatchesTwoQueryWalk(t *testing.T) {
	obs.Enable()
	rng := rand.New(rand.NewSource(2012))
	trials := 150
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(8)
		if trial%2 == 1 {
			n = 32 + rng.Intn(200)
		}
		p := stepFixture(rng, n)
		xs := p.Breakpoints()
		gap := xs[1+rng.Intn(n)] - xs[rng.Intn(n)]
		qs := []float64{0.5 + rng.Float64()*6, gap, math.Nextafter(gap, 0), math.Nextafter(gap, math.Inf(1)),
			math.Nextafter(2.5, math.Inf(1)), 2.5, p.Domain() / 5}
		for _, f := range []delay.Function{p, delay.NewIndexed(p)} {
			for _, q := range qs {
				if !(q > 0) {
					continue
				}
				for _, first := range []float64{q, q - p.Eval(xs[rng.Intn(n)]), math.Nextafter(q/3, 0)} {
					want := runWalk(twoQueries{f}, q, first, 0)
					if d := sameWalk(runWalk(f, q, first, 0), want); d != "" {
						t.Fatalf("%T q=%v first=%v: walks differ in %s\nf=%v", f, q, first, d, p)
					}
					for budget := int64(1); budget <= want.steps+1 && budget <= 64; budget++ {
						if d := sameWalk(runWalk(f, q, first, budget), runWalk(twoQueries{f}, q, first, budget)); d != "" {
							t.Fatalf("%T q=%v first=%v budget=%d: walks differ in %s\nf=%v", f, q, first, budget, d, p)
						}
					}
				}
				for _, n := range []int{0, 1, 3} {
					opts := Options{Limited: true, MaxPreemptions: n}
					a, errA := Analyze(nil, f, q, opts)
					b, errB := Analyze(nil, twoQueries{f}, q, opts)
					if (errA == nil) != (errB == nil) || !bitsEqual(a.TotalDelay, b.TotalDelay) || a.Diverged != b.Diverged {
						t.Fatalf("%T q=%v limited %d: %v (%v) vs %v (%v)", f, q, n, a.TotalDelay, errA, b.TotalDelay, errB)
					}
				}
			}
		}
	}
}
