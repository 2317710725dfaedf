// Package spec defines the on-disk JSON description of an analysis problem:
// a task set, each task's preemption delay function, and the scheduling
// policy. The schedtest binary consumes it, and it doubles as the library's
// interchange format for reproducible experiments.
package spec

import (
	"errors"
	"fmt"
	"io"
	"os"

	"fnpr/internal/delay"
	"fnpr/internal/guard"
	"fnpr/internal/npr"
	"fnpr/internal/task"
	"fnpr/internal/wire"
)

// File is the root of a task-set specification.
type File struct {
	// Policy is "fp" (fixed priority) or "edf".
	Policy string `json:"policy"`
	// AssignQ, when true, derives missing Q values (tasks with q = 0)
	// from the blocking-tolerance analysis of package npr under the
	// file's policy (Problem.AssignQ). Load and LoadFile apply it; Build
	// leaves it to its caller, which runs it under its own guard.
	AssignQ bool   `json:"assign_q,omitempty"`
	Tasks   []Task `json:"tasks"`
}

// Task is one task with its delay model.
type Task struct {
	Name   string  `json:"name"`
	C      float64 `json:"c"`
	T      float64 `json:"t"`
	D      float64 `json:"d,omitempty"`
	Q      float64 `json:"q,omitempty"`
	Prio   int     `json:"prio,omitempty"`
	Jitter float64 `json:"jitter,omitempty"`
	Delay  *Delay  `json:"delay,omitempty"`
}

// Delay describes a preemption delay function.
type Delay struct {
	// Kind is "constant", "frontloaded", "piecewise", "linear" or
	// "gaussian".
	Kind string `json:"kind"`
	// Constant: Value.
	Value float64 `json:"value,omitempty"`
	// Frontloaded: Peak and Tail (see delay.FrontLoaded).
	Peak float64 `json:"peak,omitempty"`
	Tail float64 `json:"tail,omitempty"`
	// Piecewise: Breakpoints (length n+1, starting at 0, ending at the
	// task's C) and Values (length n). Linear: Breakpoints and Values of
	// equal length (values at the breakpoints, interpolated between).
	Breakpoints []float64 `json:"breakpoints,omitempty"`
	Values      []float64 `json:"values,omitempty"`
	// Gaussian: Amp, Mu, Sigma2, Offset, sampled into Pieces pieces
	// (default 1000, at most maxGaussianPieces).
	Amp    float64 `json:"amp,omitempty"`
	Mu     float64 `json:"mu,omitempty"`
	Sigma2 float64 `json:"sigma2,omitempty"`
	Offset float64 `json:"offset,omitempty"`
	Pieces int     `json:"pieces,omitempty"`
}

// The wire field tables decode File, Task and Delay in one pass (package
// wire). They list every json-tagged field above; the JSON tags stay for
// Save and for the encoding/json oracle of the decoder tests.
var (
	delayFields = wire.Fields[Delay]{
		{Name: "kind", Read: func(r *wire.Reader, d *Delay) { r.String(&d.Kind) }},
		{Name: "value", Read: func(r *wire.Reader, d *Delay) { r.Float(&d.Value) }},
		{Name: "peak", Read: func(r *wire.Reader, d *Delay) { r.Float(&d.Peak) }},
		{Name: "tail", Read: func(r *wire.Reader, d *Delay) { r.Float(&d.Tail) }},
		{Name: "breakpoints", Read: func(r *wire.Reader, d *Delay) { r.Floats(&d.Breakpoints) }},
		{Name: "values", Read: func(r *wire.Reader, d *Delay) { r.Floats(&d.Values) }},
		{Name: "amp", Read: func(r *wire.Reader, d *Delay) { r.Float(&d.Amp) }},
		{Name: "mu", Read: func(r *wire.Reader, d *Delay) { r.Float(&d.Mu) }},
		{Name: "sigma2", Read: func(r *wire.Reader, d *Delay) { r.Float(&d.Sigma2) }},
		{Name: "offset", Read: func(r *wire.Reader, d *Delay) { r.Float(&d.Offset) }},
		{Name: "pieces", Read: func(r *wire.Reader, d *Delay) { r.Int(&d.Pieces) }},
	}
	taskFields = wire.Fields[Task]{
		{Name: "name", Read: func(r *wire.Reader, t *Task) { r.String(&t.Name) }},
		{Name: "c", Read: func(r *wire.Reader, t *Task) { r.Float(&t.C) }},
		{Name: "t", Read: func(r *wire.Reader, t *Task) { r.Float(&t.T) }},
		{Name: "d", Read: func(r *wire.Reader, t *Task) { r.Float(&t.D) }},
		{Name: "q", Read: func(r *wire.Reader, t *Task) { r.Float(&t.Q) }},
		{Name: "prio", Read: func(r *wire.Reader, t *Task) { r.Int(&t.Prio) }},
		{Name: "jitter", Read: func(r *wire.Reader, t *Task) { r.Float(&t.Jitter) }},
		{Name: "delay", Read: func(r *wire.Reader, t *Task) { ReadDelay(r, &t.Delay) }},
	}
	fileFields = wire.Fields[File]{
		{Name: "policy", Read: func(r *wire.Reader, f *File) { r.String(&f.Policy) }},
		{Name: "assign_q", Read: func(r *wire.Reader, f *File) { r.Bool(&f.AssignQ) }},
		{Name: "tasks", Read: func(r *wire.Reader, f *File) { wire.Slice(r, &f.Tasks, taskFields.Read) }},
	}
)

// ReadDelay reads a delay description into *d; null sets *d to nil.
func ReadDelay(r *wire.Reader, d **Delay) { delayFields.ReadPtr(r, d) }

// ReadFile reads a task-set specification into *f.
func ReadFile(r *wire.Reader, f *File) { fileFields.Read(r, f) }

// Problem is the decoded, validated analysis problem.
type Problem struct {
	Policy string
	Tasks  task.Set
	Delay  []delay.Function
}

// Load reads, decodes and builds a specification, deriving the missing Q
// values under g when the file asks for it (nil means no limits).
func Load(g *guard.Ctx, r io.Reader) (*Problem, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	var f File
	if err := wire.Decode(data, &f, fileFields); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	p, err := f.Build()
	if err != nil {
		return nil, err
	}
	if f.AssignQ {
		if err := p.AssignQ(g); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// LoadFile is Load from a path.
func LoadFile(g *guard.Ctx, path string) (*Problem, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return Load(g, fh)
}

// Build validates the file and materialises the task set and delay
// functions. It does not derive Q values (see File.AssignQ).
func (f File) Build() (*Problem, error) {
	switch f.Policy {
	case "fp", "edf":
	case "":
		return nil, errors.New("spec: missing policy (fp or edf)")
	default:
		return nil, fmt.Errorf("spec: unknown policy %q", f.Policy)
	}
	if len(f.Tasks) == 0 {
		return nil, errors.New("spec: no tasks")
	}
	p := &Problem{Policy: f.Policy}
	for i, ts := range f.Tasks {
		tk := task.Task{
			Name: ts.Name, C: ts.C, T: ts.T, D: ts.D,
			Q: ts.Q, Prio: ts.Prio, Jitter: ts.Jitter,
		}
		if tk.Name == "" {
			tk.Name = fmt.Sprintf("t%d", i)
		}
		p.Tasks = append(p.Tasks, tk)
		fn, err := ts.Delay.build(ts.C)
		if err != nil {
			return nil, fmt.Errorf("spec: task %s: %w", tk.Name, err)
		}
		p.Delay = append(p.Delay, fn)
	}
	if err := p.Tasks.Validate(); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if f.Policy == "fp" {
		p.sortByPriority()
	}
	return p, nil
}

// AssignQ sets the Q of every task with q = 0 from the blocking-tolerance
// analysis of package npr (npr.AssignQCtx) under p's policy, charging g.
// The analysis can run long on sets with widely spread periods, so callers
// serving requests pass a guard with a deadline or budget.
func (p *Problem) AssignQ(g *guard.Ctx) error {
	policy := npr.FixedPriority
	if p.Policy == "edf" {
		policy = npr.EDF
	}
	qs, err := npr.AssignQCtx(g, p.Tasks, policy)
	if err != nil {
		return fmt.Errorf("spec: assign_q: %w", err)
	}
	for i := range p.Tasks {
		if p.Tasks[i].Q == 0 {
			p.Tasks[i].Q = qs[i].Q
		}
	}
	return nil
}

// sortByPriority orders tasks and their delay functions together.
func (p *Problem) sortByPriority() {
	type pair struct {
		t task.Task
		f delay.Function
	}
	pairs := make([]pair, len(p.Tasks))
	for i := range p.Tasks {
		pairs[i] = pair{p.Tasks[i], p.Delay[i]}
	}
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0; j-- {
			a, b := pairs[j-1], pairs[j]
			if a.t.Prio < b.t.Prio || (a.t.Prio == b.t.Prio && a.t.Name <= b.t.Name) {
				break
			}
			pairs[j-1], pairs[j] = b, a
		}
	}
	for i := range pairs {
		p.Tasks[i] = pairs[i].t
		p.Delay[i] = pairs[i].f
	}
}

// maxGaussianPieces caps the pieces a gaussian delay is sampled into. The
// envelope allocates per piece before any analysis budget applies, so an
// unchecked count lets a tiny body claim gigabytes. The cap is 32× the
// largest serve-bulk curve and more pieces than a 1 MiB explicit body holds.
const maxGaussianPieces = 1 << 18

// Build materialises the delay description into a delay.Function over the
// domain [0, c] (the owning task's execution time). A nil *Delay builds a nil
// function, meaning "no preemption delay". The analysis service uses this
// directly for single-function /v1/analyze requests; File.Build uses it per
// task.
func (d *Delay) Build(c float64) (delay.Function, error) {
	return d.build(c)
}

func (d *Delay) build(c float64) (delay.Function, error) {
	if d == nil {
		return nil, nil
	}
	switch d.Kind {
	case "constant":
		if d.Value < 0 {
			return nil, fmt.Errorf("negative constant delay %g", d.Value)
		}
		return delay.NewPiecewise([]float64{0, c}, []float64{d.Value})
	case "frontloaded":
		if d.Peak < 0 || d.Tail < 0 {
			return nil, fmt.Errorf("negative frontloaded parameters")
		}
		return delay.NewFrontLoaded(d.Peak, d.Tail, c)
	case "piecewise":
		if len(d.Breakpoints) == 0 {
			return nil, errors.New("piecewise delay needs breakpoints")
		}
		if last := d.Breakpoints[len(d.Breakpoints)-1]; last != c {
			return nil, fmt.Errorf("piecewise domain ends at %g, task C is %g", last, c)
		}
		return delay.NewPiecewise(d.Breakpoints, d.Values)
	case "linear":
		if len(d.Breakpoints) == 0 {
			return nil, errors.New("linear delay needs breakpoints")
		}
		if last := d.Breakpoints[len(d.Breakpoints)-1]; last != c {
			return nil, fmt.Errorf("linear domain ends at %g, task C is %g", last, c)
		}
		return delay.NewPiecewiseLinear(d.Breakpoints, d.Values)
	case "gaussian":
		n := d.Pieces
		if n <= 0 {
			n = 1000
		}
		if n > maxGaussianPieces {
			return nil, guard.Invalidf("gaussian delay pieces %d, limit %d", n, maxGaussianPieces)
		}
		if d.Sigma2 <= 0 {
			return nil, fmt.Errorf("gaussian delay needs sigma2 > 0, got %g", d.Sigma2)
		}
		fn := delay.Gaussian(d.Amp, d.Mu, d.Sigma2, d.Offset)
		return delay.UpperEnvelope(fn, c, n, []float64{d.Mu})
	default:
		return nil, fmt.Errorf("unknown delay kind %q", d.Kind)
	}
}
