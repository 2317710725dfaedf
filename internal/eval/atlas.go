package eval

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"fnpr/internal/core"
	"fnpr/internal/exact"
	"fnpr/internal/guard"
	"fnpr/internal/obs"
	"fnpr/internal/synth"
	"fnpr/internal/textplot"
)

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
	// MaxStates caps each exact exploration (0 = exact.DefaultMaxStates,
	// negative = unbounded).
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
	name, q := synth.AtlasFamilies()[fam], p.Qs[qi]
	for trial := 0; trial < p.FuncsPerCell; trial++ {
		if err := g.Tick(); err != nil {
			return cell, err
		}
		r := st.Sub(p.Seed, fam*len(p.Qs)+qi, trial)
		f, err := synth.AtlasFunction(r, name, p.C, q)
		if err != nil {
			return cell, err
		}
		exRes, err := ex.Delay(g, f, q, exact.Options{MaxStates: p.MaxStates, Obs: sc})
		if err != nil {
			return cell, fmt.Errorf("eval: atlas %s Q=%g trial %d: %w", name, q, trial, err)
		}
		alg1, err := core.Analyze(g, f, q, core.Options{Obs: sc})
		if err != nil {
			return cell, err
		}
		eq4, err := core.Analyze(g, f, q, core.Options{Method: core.Equation4, Obs: sc})
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
		branch := 2 + f.Pieces()
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
	cellsTotal := len(synth.AtlasFamilies()) * len(p.Qs)
	sc.Emit(obs.Event{Type: obs.CampaignStarted, Spec: "atlas", Total: cellsTotal})
	mCampaignWorkers.On(sc).Set(float64(workers))
	cellsDone := mCampaignTrials.On(sc)

	cells := make([]atlasCell, cellsTotal)
	var completed atomic.Int64
	err := runPool(g, workers, cellsTotal, func() func(*guard.Ctx, int) error {
		ex, st := exact.NewExplorer(), new(synth.Stream) // per-worker pooled explorer and stream
		return func(g *guard.Ctx, i int) error {
			c, err := atlasCellRun(g, p, i/len(p.Qs), i%len(p.Qs), ex, st, sc)
			if err != nil {
				return err
			}
			cells[i] = c
			cellsDone.Inc()
			sc.Emit(obs.Event{Type: obs.CampaignPoint, Spec: "atlas",
				Completed: int(completed.Add(1)), Total: cellsTotal})
			return nil
		}
	})
	if err != nil {
		return nil, err
	}

	tbl := &textplot.Table{
		XLabel: "Q",
		YLabel: "mean delay / pessimism gap",
		X:      append([]float64(nil), p.Qs...),
	}
	// One backing array holds every series' Y, each capped to its own
	// window of len(p.Qs) values.
	nq := len(p.Qs)
	tbl.Series = make([]textplot.Series, len(atlasSeriesNames))
	ys := make([]float64, len(atlasSeriesNames)*nq)
	for i, name := range atlasSeriesNames {
		tbl.Series[i] = textplot.Series{Name: name, Y: ys[i*nq : (i+1)*nq : (i+1)*nq]}
	}
	totalStates, totalNaive := 0, 0
	for fam := range synth.AtlasFamilies() {
		ex, a1, e4 := tbl.Series[3*fam].Y, tbl.Series[3*fam+1].Y, tbl.Series[3*fam+2].Y
		for qi := range p.Qs {
			c := cells[fam*nq+qi]
			ex[qi], a1[qi], e4[qi] = c.exact, c.alg1Gap, c.eq4Gap
			totalStates += c.states
			totalNaive += c.naiveStates
		}
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

// atlasSeriesNames names the atlas table's series in order: each family's
// exact delay, Algorithm 1 gap and Equation 4 gap.
var atlasSeriesNames = func() []string {
	var names []string
	for _, name := range synth.AtlasFamilies() {
		names = append(names, name+"/exact", name+"/alg1-gap", name+"/eq4-gap")
	}
	return names
}()

// AtlasChecks enforces the bound ordering on an atlas table: for every
// family and Q, exact <= Algorithm 1 <= Equation 4 — both pessimism gaps
// non-negative and Equation 4's at least Algorithm 1's.
func AtlasChecks(tbl *textplot.Table) error {
	if len(tbl.Series) != 3*len(synth.AtlasFamilies()) {
		return guard.Invalidf("eval: atlas table incomplete")
	}
	for fam, name := range synth.AtlasFamilies() {
		ex := tbl.Series[3*fam].Y
		a1 := tbl.Series[3*fam+1].Y
		e4 := tbl.Series[3*fam+2].Y
		for i := range tbl.X {
			if ex[i] < 0 {
				return fmt.Errorf("eval: atlas %s: negative exact delay %g at Q=%g", name, ex[i], tbl.X[i])
			}
			if a1[i] < -1e-9 {
				return fmt.Errorf("eval: atlas %s: Algorithm 1 below exact by %g at Q=%g — unsound", name, -a1[i], tbl.X[i])
			}
			if e4[i] < a1[i]-1e-9 {
				return fmt.Errorf("eval: atlas %s: Equation 4 gap %g below Algorithm 1 gap %g at Q=%g", name, e4[i], a1[i], tbl.X[i])
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
