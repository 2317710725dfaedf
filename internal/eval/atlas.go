package eval

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"fnpr/internal/core"
	"fnpr/internal/delay"
	"fnpr/internal/exact"
	"fnpr/internal/guard"
	"fnpr/internal/obs"
	"fnpr/internal/synth"
	"fnpr/internal/textplot"
)

// atlasFamilies names the synthetic delay-function families the pessimism
// atlas sweeps — the shapes that separate the bounds: front-loaded curves
// (Algorithm 1's point selection is nearly tight), back-loaded curves (the
// worst adversary strikes late, where Algorithm 1 over-charges early
// windows) and two-peak curves (the paper's motivating shape).
var atlasFamilies = []string{"front", "back", "twopeak"}

// AtlasParams configures the pessimism atlas: for every (family, Q) cell,
// generate random delay functions, compute the exact worst-case cumulative
// delay (schedule-graph exploration), Algorithm 1 and Equation 4, and
// tabulate the mean pessimism gaps — the figure the paper doesn't have.
type AtlasParams struct {
	// Seed makes the atlas reproducible; each cell draws from its own
	// sub-stream, so results are independent of the worker count.
	Seed int64
	// Qs is the grid of non-preemptive region lengths (the table's X).
	Qs []float64
	// FuncsPerCell is the number of random functions per (family, Q) cell.
	FuncsPerCell int
	// C is the victim WCET (every function's domain).
	C float64
	// MaxStates caps each exact exploration (0 = exact.DefaultMaxStates).
	MaxStates int
	// Workers sizes the worker pool over cells; <= 0 selects GOMAXPROCS.
	// Each worker owns one pooled exact.Explorer; the table is
	// bit-identical for every value.
	Workers int
	// Obs receives campaign progress events and metrics; nil falls back
	// to the guard's scope.
	Obs *obs.Scope
}

// DefaultAtlasParams returns the configuration the figures binary and the
// benchmarks use.
func DefaultAtlasParams() AtlasParams {
	return AtlasParams{
		Seed:         1,
		Qs:           []float64{4, 6, 8, 12},
		FuncsPerCell: 40,
		C:            40,
	}
}

// Validate rejects malformed parameters up front.
func (p AtlasParams) Validate() error {
	switch {
	case len(p.Qs) == 0:
		return guard.Invalidf("eval: atlas needs at least one Q")
	case p.FuncsPerCell <= 0:
		return guard.Invalidf("eval: FuncsPerCell %d, need > 0", p.FuncsPerCell)
	case math.IsNaN(p.C) || math.IsInf(p.C, 0) || p.C <= 0:
		return guard.Invalidf("eval: C %g, need finite > 0", p.C)
	}
	for _, q := range p.Qs {
		if math.IsNaN(q) || math.IsInf(q, 0) || q <= 0 {
			return guard.Invalidf("eval: Q %g, need finite > 0", q)
		}
		if q >= p.C {
			return guard.Invalidf("eval: Q %g must be below C %g", q, p.C)
		}
	}
	return nil
}

func (p AtlasParams) scope(g *guard.Ctx) *obs.Scope {
	if p.Obs != nil {
		return p.Obs
	}
	return g.Obs()
}

// atlasFunction draws one delay function of the given family: a
// piecewise-constant curve over [0, c) whose maximum stays safely below q
// (so every bound and the exact exploration converge), shaped so the
// families stress the bounds differently.
func atlasFunction(r *rand.Rand, fam string, c, q float64) (*delay.Piecewise, error) {
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

// atlasCell is one (family, Q) grid point's aggregation.
type atlasCell struct {
	exact, alg1Gap, eq4Gap float64 // means over the cell's functions
	states, naiveStates    int     // explored states: pruned vs naive bound
}

// atlasCellRun computes one cell: FuncsPerCell random functions of the
// family, each measured exact vs Algorithm 1 vs Equation 4. The cell is a
// pure function of (Seed, cell index); ex and st are the worker's pooled
// explorer and shard stream.
func atlasCellRun(g *guard.Ctx, p AtlasParams, fam int, qi int, ex *exact.Explorer, st *synth.Stream, sc *obs.Scope) (atlasCell, error) {
	var cell atlasCell
	q := p.Qs[qi]
	for trial := 0; trial < p.FuncsPerCell; trial++ {
		if err := g.Tick(); err != nil {
			return cell, err
		}
		r := st.Sub(p.Seed, fam*len(p.Qs)+qi, trial)
		f, err := atlasFunction(r, atlasFamilies[fam], p.C, q)
		if err != nil {
			return cell, err
		}
		exRes, err := ex.Delay(g, f, q, exact.Options{MaxStates: p.MaxStates, Obs: sc})
		if err != nil {
			return cell, fmt.Errorf("eval: atlas %s Q=%g trial %d: %w", atlasFamilies[fam], q, trial, err)
		}
		alg1, err := core.Analyze(g, f, q, core.Options{})
		if err != nil {
			return cell, err
		}
		eq4, err := core.Analyze(g, f, q, core.Options{Method: core.Equation4})
		if err != nil {
			return cell, err
		}
		cell.exact += exRes.Delay
		cell.alg1Gap += alg1.TotalDelay - exRes.Delay
		cell.eq4Gap += eq4.TotalDelay - exRes.Delay
		cell.states += exRes.States
		// The naive tree over the same instance expands the full candidate
		// branching; its size is what merging/pruning collapsed. Depth is
		// the explored layer count, branching at most 1 + |breakpoints|.
		branch := 1 + len(f.Breakpoints())
		naive := 1
		grow := 1
		for d := 0; d < exRes.Depth && naive < 1<<30; d++ {
			grow *= branch
			naive += grow
		}
		cell.naiveStates += naive
	}
	n := float64(p.FuncsPerCell)
	cell.exact /= n
	cell.alg1Gap /= n
	cell.eq4Gap /= n
	return cell, nil
}

// Atlas runs the pessimism-atlas campaign: a (family × Q) grid of mean
// exact delays and mean Algorithm 1 / Equation 4 pessimism gaps. Cells are
// sharded over p.Workers goroutines, each owning one pooled exact.Explorer
// and synth.Stream; cells aggregate in grid order, so the table is
// bit-identical for every worker count.
func Atlas(g *guard.Ctx, p AtlasParams) (*textplot.Table, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := g.Err(); err != nil {
		return nil, err
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sc := p.scope(g)
	cellsTotal := len(atlasFamilies) * len(p.Qs)
	sc.Emit(obs.Event{Type: obs.CampaignStarted, Spec: "atlas", Total: cellsTotal})
	sc.Gauge("campaign.workers").Set(float64(workers))
	cellsDone := sc.Counter("campaign.trials")

	cells := make([]atlasCell, cellsTotal)
	if workers == 1 {
		ex, st := exact.NewExplorer(), new(synth.Stream)
		for i := range cells {
			c, err := atlasCellRun(g, p, i/len(p.Qs), i%len(p.Qs), ex, st, sc)
			if err != nil {
				return nil, err
			}
			cells[i] = c
			cellsDone.Inc()
			sc.Emit(obs.Event{Type: obs.CampaignPoint, Spec: "atlas",
				Completed: i + 1, Total: cellsTotal})
		}
	} else {
		var (
			mu       sync.Mutex
			abortErr error
		)
		abort := func(err error) {
			mu.Lock()
			if abortErr == nil {
				abortErr = err
			}
			mu.Unlock()
		}
		aborted := func() bool {
			mu.Lock()
			defer mu.Unlock()
			return abortErr != nil
		}
		var completed atomic.Int64
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ex, st := exact.NewExplorer(), new(synth.Stream) // per-worker pooled explorer and stream
				for i := range jobs {
					if aborted() {
						continue
					}
					c, err := atlasCellRun(g, p, i/len(p.Qs), i%len(p.Qs), ex, st, sc)
					if err != nil {
						abort(err)
						continue
					}
					cells[i] = c
					cellsDone.Inc()
					sc.Emit(obs.Event{Type: obs.CampaignPoint, Spec: "atlas",
						Completed: int(completed.Add(1)), Total: cellsTotal})
				}
			}()
		}
		for i := 0; i < cellsTotal; i++ {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		mu.Lock()
		err := abortErr
		mu.Unlock()
		if err != nil {
			return nil, err
		}
	}

	tbl := &textplot.Table{
		XLabel: "Q",
		YLabel: "mean delay / pessimism gap",
		X:      append([]float64(nil), p.Qs...),
	}
	totalStates, totalNaive := 0, 0
	for fam := range atlasFamilies {
		ex := textplot.Series{Name: atlasFamilies[fam] + "/exact"}
		a1 := textplot.Series{Name: atlasFamilies[fam] + "/alg1-gap"}
		e4 := textplot.Series{Name: atlasFamilies[fam] + "/eq4-gap"}
		for qi := range p.Qs {
			c := cells[fam*len(p.Qs)+qi]
			ex.Y = append(ex.Y, c.exact)
			a1.Y = append(a1.Y, c.alg1Gap)
			e4.Y = append(e4.Y, c.eq4Gap)
			totalStates += c.states
			totalNaive += c.naiveStates
		}
		tbl.Series = append(tbl.Series, ex, a1, e4)
	}
	tbl.Notes = append(tbl.Notes, fmt.Sprintf(
		"explored %d states (naive tree bound %d, %.0fx reduction)",
		totalStates, totalNaive, float64(totalNaive)/math.Max(1, float64(totalStates))))
	if err := tbl.Validate(); err != nil {
		return nil, err
	}
	sc.Emit(obs.Event{Type: obs.CampaignFinished, Spec: "atlas",
		Completed: cellsTotal, Total: cellsTotal})
	return tbl, nil
}

// AtlasChecks enforces the bound ordering on an atlas table: for every
// family and Q, exact <= Algorithm 1 <= Equation 4 — both pessimism gaps
// non-negative and Equation 4's at least Algorithm 1's.
func AtlasChecks(tbl *textplot.Table) error {
	if len(tbl.Series) != 3*len(atlasFamilies) {
		return guard.Invalidf("eval: atlas table incomplete")
	}
	for fam := range atlasFamilies {
		ex := tbl.Series[3*fam].Y
		a1 := tbl.Series[3*fam+1].Y
		e4 := tbl.Series[3*fam+2].Y
		for i := range tbl.X {
			if ex[i] < 0 {
				return fmt.Errorf("eval: atlas %s: negative exact delay %g at Q=%g", atlasFamilies[fam], ex[i], tbl.X[i])
			}
			if a1[i] < -1e-9 {
				return fmt.Errorf("eval: atlas %s: Algorithm 1 below exact by %g at Q=%g — unsound", atlasFamilies[fam], -a1[i], tbl.X[i])
			}
			if e4[i] < a1[i]-1e-9 {
				return fmt.Errorf("eval: atlas %s: Equation 4 gap %g below Algorithm 1 gap %g at Q=%g", atlasFamilies[fam], e4[i], a1[i], tbl.X[i])
			}
		}
	}
	return nil
}

// Kind implements Campaign.
func (p AtlasParams) Kind() string { return "atlas" }

// atlasIdentity is the result-determining subset of AtlasParams (Workers
// only trades wall-clock for cores; MaxStates can abort the campaign but
// never changes values it returns, and is included since it decides
// completion).
type atlasIdentity struct {
	Seed         int64     `json:"seed"`
	Qs           []float64 `json:"qs"`
	FuncsPerCell int       `json:"funcs_per_cell"`
	C            float64   `json:"c"`
	MaxStates    int       `json:"max_states"`
}

// Fingerprint implements Campaign.
func (p AtlasParams) Fingerprint() string {
	return fingerprint(p.Kind(), atlasIdentity{
		Seed: p.Seed, Qs: p.Qs, FuncsPerCell: p.FuncsPerCell, C: p.C,
		MaxStates: p.MaxStates,
	})
}

// Run implements Campaign; the result is the *textplot.Table from Atlas.
func (p AtlasParams) Run(g *guard.Ctx) (any, error) { return Atlas(g, p) }
