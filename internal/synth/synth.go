// Package synth generates synthetic workloads: task sets (UUniFast
// utilizations, log-uniform periods), control-flow graphs with
// locality-exhibiting memory accesses, and piecewise preemption-delay
// functions. All generators are seeded and deterministic, so experiments are
// reproducible.
package synth

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"fnpr/internal/cache"
	"fnpr/internal/cfg"
	"fnpr/internal/delay"
	"fnpr/internal/task"
)

// UUniFast draws n task utilizations summing to u, uniformly over the valid
// simplex (Bini & Buttazzo's UUniFast algorithm).
func UUniFast(r *rand.Rand, n int, u float64) []float64 {
	out := make([]float64, n)
	sum := u
	for i := 0; i < n-1; i++ {
		next := sum * math.Pow(r.Float64(), 1/float64(n-i-1))
		out[i] = sum - next
		sum = next
	}
	if n > 0 {
		out[n-1] = sum
	}
	return out
}

// LogUniformPeriods draws n periods log-uniformly from [lo, hi], rounded to
// integers when round is set (keeps hyperperiods finite).
func LogUniformPeriods(r *rand.Rand, n int, lo, hi float64, round bool) []float64 {
	out := make([]float64, n)
	for i := range out {
		p := math.Exp(math.Log(lo) + r.Float64()*(math.Log(hi)-math.Log(lo)))
		if round {
			p = math.Round(p)
			if p < math.Ceil(lo) {
				p = math.Ceil(lo)
			}
		}
		out[i] = p
	}
	return out
}

// TaskSetParams controls TaskSet generation.
type TaskSetParams struct {
	N           int     // number of tasks
	Utilization float64 // total utilization
	PeriodLo    float64 // period range (log-uniform)
	PeriodHi    float64
	RoundPeriod bool
	// QFraction sets each task's NPR length to QFraction * C (clamped to
	// at least MinQ); 0 leaves Q unset for later assignment via npr.
	QFraction float64
	MinQ      float64
}

// taskNames holds the names TaskSet gives its first tasks, "t0"…"t63",
// built once so that drawing a set allocates no name.
var taskNames = func() []string {
	names := make([]string, 64)
	for i := range names {
		names[i] = "t" + strconv.Itoa(i)
	}
	return names
}()

// taskName returns the name of task i of a drawn set: "t" and its index.
func taskName(i int) string {
	if i < len(taskNames) {
		return taskNames[i]
	}
	return "t" + strconv.Itoa(i)
}

// TaskSet draws a random task set with rate-monotonic priorities.
func TaskSet(r *rand.Rand, p TaskSetParams) (task.Set, error) {
	if p.N <= 0 {
		return nil, fmt.Errorf("synth: need at least one task, got %d", p.N)
	}
	if p.Utilization <= 0 || p.Utilization > 1 {
		return nil, fmt.Errorf("synth: utilization %g outside (0,1]", p.Utilization)
	}
	if p.PeriodLo <= 0 || p.PeriodHi < p.PeriodLo {
		return nil, fmt.Errorf("synth: invalid period range [%g,%g]", p.PeriodLo, p.PeriodHi)
	}
	utils := UUniFast(r, p.N, p.Utilization)
	periods := LogUniformPeriods(r, p.N, p.PeriodLo, p.PeriodHi, p.RoundPeriod)
	ts := make(task.Set, 0, p.N)
	for i := 0; i < p.N; i++ {
		c := utils[i] * periods[i]
		if c <= 0 {
			c = math.Min(0.01*periods[i], periods[i])
		}
		q := 0.0
		if p.QFraction > 0 {
			q = math.Max(p.QFraction*c, p.MinQ)
			if q > c {
				q = c
			}
		}
		ts = append(ts, task.Task{
			Name: taskName(i),
			C:    c, T: periods[i], Q: q,
		})
	}
	ts.AssignRateMonotonic()
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	return ts, nil
}

// CFGParams controls random control-flow graph generation.
type CFGParams struct {
	Blocks int // number of basic blocks (>= 2)
	// MaxFanout bounds the successors per block (>= 1).
	MaxFanout int
	// EMinLo/EMinHi bound per-block minimum execution times; EMax adds a
	// uniform [0, ESpread] on top of EMin.
	EMinLo, EMinHi, ESpread float64
	// Lines is the size of the task's memory-line pool; AccesssPerBlock
	// bounds the accesses emitted per block. Reuse is the probability
	// that an access revisits a previously used line (temporal
	// locality), which is what makes UCBs non-trivial.
	Lines           int
	AccessesPerBloc int
	Reuse           float64
}

// CFG draws a random layered DAG with per-block memory accesses.
func CFG(r *rand.Rand, p CFGParams) (*cfg.Graph, cache.AccessMap, error) {
	if p.Blocks < 2 {
		return nil, nil, fmt.Errorf("synth: need >= 2 blocks, got %d", p.Blocks)
	}
	if p.MaxFanout < 1 {
		p.MaxFanout = 2
	}
	if p.EMinLo <= 0 {
		p.EMinLo = 1
	}
	if p.EMinHi < p.EMinLo {
		p.EMinHi = p.EMinLo
	}
	if p.Lines <= 0 {
		p.Lines = 16
	}
	g := cfg.New()
	acc := make(cache.AccessMap)
	ids := make([]cfg.BlockID, p.Blocks)
	var used []cache.Line
	for i := 0; i < p.Blocks; i++ {
		emin := p.EMinLo + r.Float64()*(p.EMinHi-p.EMinLo)
		emax := emin + r.Float64()*p.ESpread
		ids[i] = g.AddSimple(fmt.Sprintf("b%d", i), emin, emax)
		if i > 0 {
			k := 1 + r.Intn(p.MaxFanout)
			for j := 0; j < k; j++ {
				g.MustEdge(ids[r.Intn(i)], ids[i])
			}
		}
		na := r.Intn(p.AccessesPerBloc + 1)
		var trace []cache.Line
		for a := 0; a < na; a++ {
			var l cache.Line
			if len(used) > 0 && r.Float64() < p.Reuse {
				l = used[r.Intn(len(used))]
			} else {
				l = cache.Line(r.Intn(p.Lines))
				used = append(used, l)
			}
			trace = append(trace, l)
		}
		if len(trace) > 0 {
			acc[ids[i]] = trace
		}
	}
	return g, acc, nil
}

// DelayFunction draws a random piecewise-constant delay function on [0, c]
// with values in [0, maxV].
func DelayFunction(r *rand.Rand, c, maxV float64, pieces int) *delay.Piecewise {
	if pieces < 1 {
		pieces = 1
	}
	xs := []float64{0}
	for i := 1; i < pieces; i++ {
		next := xs[len(xs)-1] + (c-xs[len(xs)-1])*r.Float64()*0.7
		if next <= xs[len(xs)-1] || next >= c {
			break
		}
		xs = append(xs, next)
	}
	xs = append(xs, c)
	vs := make([]float64, len(xs)-1)
	for i := range vs {
		vs[i] = r.Float64() * maxV
	}
	p, err := delay.NewPiecewise(xs, vs)
	if err != nil {
		panic(err) // construction above is valid by design
	}
	return p
}

// AtlasFamilies names the delay-function families the pessimism atlas
// sweeps, in cell order — the shapes that separate the bounds: front-loaded
// curves (Algorithm 1's point selection is nearly tight), back-loaded
// curves (the worst adversary strikes late, where Algorithm 1 over-charges
// early windows) and two-peak curves (the paper's motivating shape). The
// order seeds the atlas cells, so it is returned by value.
func AtlasFamilies() [3]string { return [3]string{"front", "back", "twopeak"} }

// AtlasFunction draws one delay function of the given atlas family: a
// piecewise-constant curve over [0, c) whose maximum stays safely below q
// (so every bound and the exact exploration converge), shaped so the
// families stress the bounds differently.
func AtlasFunction(r *rand.Rand, fam string, c, q float64) (*delay.Piecewise, error) {
	maxV := q * (0.35 + 0.4*r.Float64())
	pieces := 3 + r.Intn(4)
	xs := make([]float64, 0, pieces+1)
	xs = append(xs, 0)
	for i := 1; i < pieces; i++ {
		xs = append(xs, c*(float64(i)+r.Float64()*0.6)/float64(pieces))
	}
	xs = append(xs, c)
	vs := make([]float64, pieces)
	for i := range vs {
		frac := float64(i) / float64(pieces-1)
		jitter := 0.75 + 0.25*r.Float64()
		switch fam {
		case "front":
			vs[i] = maxV * (1 - frac*0.9) * jitter
		case "back":
			vs[i] = maxV * (0.1 + frac*0.9) * jitter
		default: // twopeak: high ends, low middle
			vs[i] = maxV * (0.15 + 0.85*math.Abs(2*frac-1)) * jitter
		}
	}
	return delay.NewPiecewise(xs, vs)
}
