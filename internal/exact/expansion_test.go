package exact

import (
	"errors"
	"math"
	"slices"
	"testing"

	"fnpr/internal/delay"
	"fnpr/internal/guard"
	"fnpr/internal/synth"
)

// fullExpansion is the exploration as it ran before successors were
// collapsed per breakpoint: every state emits one successor per strike, and
// each successor is admitted through binary searches of the visited
// frontier, which it then joins by insertion. It is the oracle of
// TestDelayMatchesFullExpansion; its Successors counts every successor
// emitted.
func fullExpansion(g *guard.Ctx, f *delay.Piecewise, q float64, opts Options) (DelayResult, error) {
	c := f.Domain()
	if _, maxF := f.Max(); maxF >= q {
		return DelayResult{Delay: math.Inf(1)}, nil
	}
	o := &fullOracle{starts: f.Breakpoints()}
	budget := opts.maxStates()
	res := DelayResult{}
	best := 0.0
	o.cur = []dstate{{e: q, d: 0}}
	o.front = []dstate{{e: q, d: 0}}
	for len(o.cur) > 0 {
		res.Depth++
		if len(o.cur) > res.PeakFrontier {
			res.PeakFrontier = len(o.cur)
		}
		if budget > 0 && res.States+len(o.cur) > budget {
			return DelayResult{}, &StateSpaceError{States: res.States + len(o.cur), Limit: budget}
		}
		layerBest, expanded, err := o.expandLayer(g, f, q, c)
		if err != nil {
			return DelayResult{}, err
		}
		res.States += expanded
		res.Successors += len(o.next)
		if layerBest > best {
			best = layerBest
		}
		slices.SortFunc(o.next, func(a, b dstate) int {
			switch {
			case a.e != b.e:
				if a.e < b.e {
					return -1
				}
				return 1
			case a.d != b.d:
				if a.d > b.d {
					return -1
				}
				return 1
			default:
				return 0
			}
		})
		var kept []dstate
		maxD := math.Inf(-1)
		lastKeptE := math.Inf(-1)
		for _, s := range o.next {
			if s.d <= maxD {
				if s.e == lastKeptE {
					res.Merges++
				} else {
					res.Prunes++
				}
				continue
			}
			if o.frontDominates(s) {
				res.Prunes++
				continue
			}
			kept = append(kept, s)
			maxD = s.d
			lastKeptE = s.e
			o.frontInsert(s)
		}
		o.cur = kept
	}
	res.Delay = best
	return res, nil
}

type fullOracle struct {
	cur, next, front []dstate
	starts           []float64
}

func (o *fullOracle) expandLayer(g *guard.Ctx, f *delay.Piecewise, q, c float64) (best float64, expanded int, err error) {
	o.next = o.next[:0]
	emit := func(s dstate, prog float64) {
		if prog >= c-completionTol(c, prog+s.d) {
			return
		}
		d := f.Eval(prog)
		paid := s.d + d
		if paid > best {
			best = paid
		}
		o.next = append(o.next, dstate{e: prog + q - d, d: paid})
	}
	for _, s := range o.cur {
		if err := g.Tick(); err != nil {
			return 0, 0, err
		}
		expanded++
		emit(s, s.e)
		for _, st := range o.starts {
			if st > s.e && st < c {
				emit(s, st)
			}
		}
	}
	return best, expanded, nil
}

// frontAfter returns the first index with front[i].e > e.
func (o *fullOracle) frontAfter(e float64) int {
	i, _ := slices.BinarySearchFunc(o.front, e, func(st dstate, e float64) int {
		if st.e <= e {
			return -1
		}
		return 1
	})
	return i
}

func (o *fullOracle) frontDominates(s dstate) bool {
	i := o.frontAfter(s.e)
	return i > 0 && o.front[i-1].d >= s.d
}

func (o *fullOracle) frontInsert(s dstate) {
	i := o.frontAfter(s.e)
	j := i
	for j < len(o.front) && o.front[j].d <= s.d {
		j++
	}
	if j == i {
		o.front = slices.Insert(o.front, i, s)
		return
	}
	o.front[i] = s
	o.front = append(o.front[:i+1], o.front[j:]...)
}

// checkFullExpansion compares the engine against fullExpansion on (f, q):
// Delay and Depth bit for bit, and States and Successors no more than the
// oracle's, unless the oracle runs out of states first. It then cuts the
// engine's own exploration short: a state budget or a guard step budget one
// below the states it settled must fail with the typed error, and one equal
// to them must not.
func checkFullExpansion(t *testing.T, ex *Explorer, f *delay.Piecewise, q float64, label string) {
	t.Helper()
	opts := Options{MaxStates: 200_000}
	got, err := ex.Delay(nil, f, q, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var sse *StateSpaceError
	switch want, err := fullExpansion(nil, f, q, opts); {
	case errors.As(err, &sse):
	case err != nil:
		t.Fatalf("%s: oracle: %v", label, err)
	case math.Float64bits(got.Delay) != math.Float64bits(want.Delay):
		t.Fatalf("%s: delay %v, oracle %v", label, got.Delay, want.Delay)
	case got.Depth != want.Depth:
		t.Fatalf("%s: depth %d, oracle %d", label, got.Depth, want.Depth)
	case got.States > want.States || got.Successors > want.Successors:
		t.Fatalf("%s: %d states and %d successors, oracle %d and %d",
			label, got.States, got.Successors, want.States, want.Successors)
	}
	n := got.States
	if n < 2 { // a budget of 0 means the default
		return
	}
	if _, err := ex.Delay(nil, f, q, Options{MaxStates: n - 1}); !errors.As(err, &sse) || sse.States != n || sse.Limit != n-1 {
		t.Fatalf("%s: MaxStates %d: err %v", label, n-1, err)
	}
	if again, err := ex.Delay(nil, f, q, Options{MaxStates: n}); err != nil || again != got {
		t.Fatalf("%s: MaxStates %d: %+v, %v; want %+v", label, n, again, err, got)
	}
	g := guard.New(nil).WithBudget(int64(n - 1))
	if _, err := ex.Delay(g, f, q, opts); !errors.Is(err, guard.ErrBudgetExceeded) || g.Steps() != int64(n) {
		t.Fatalf("%s: guard budget %d: err %v after %d steps", label, n-1, err, g.Steps())
	}
	g = guard.New(nil).WithBudget(int64(n))
	if again, err := ex.Delay(g, f, q, opts); err != nil || again != got || g.Steps() != int64(n) {
		t.Fatalf("%s: guard budget %d: %+v, %v after %d steps; want %+v", label, n, again, err, g.Steps(), got)
	}
}

// TestDelayMatchesFullExpansion pins the progression-ordered sweep to the
// layered full expansion it replaced, on the atlas families, on
// synth.DelayFunction curves and on hand-built curves for the successor
// rule's corner cases.
func TestDelayMatchesFullExpansion(t *testing.T) {
	ex := NewExplorer()
	st, curve := new(synth.Stream), new(synth.AtlasCurve)
	for fam, name := range synth.AtlasFamilies() {
		for qi, q := range []float64{4, 6, 8, 12, 16, 24, 32} {
			for trial := 0; trial < 40; trial++ {
				f, err := curve.Draw(st.Sub(19, fam*7+qi, trial), name, 80, q)
				if err != nil {
					t.Fatal(err)
				}
				checkFullExpansion(t, ex, f, q, name)
			}
		}
	}
	for trial := 0; trial < 400; trial++ {
		r := synth.SubRand(19, 100, trial)
		c := 10 + r.Float64()*70
		q := 1 + r.Float64()*12
		f := synth.DelayFunction(r, c, q*(0.1+0.85*r.Float64()), 1+r.Intn(12))
		checkFullExpansion(t, ex, f, q, "synth")
	}
	for _, tc := range expansionEdgeCases() {
		checkFullExpansion(t, ex, tc.f, tc.q, tc.name)
	}
}

type expansionCase struct {
	name string
	f    *delay.Piecewise
	q    float64
}

// expansionEdgeCases builds curves for the successor rule's corner cases.
func expansionEdgeCases() []expansionCase {
	const c = 40.0
	// A breakpoint so close to c that a strike there completes the job for
	// states that paid 0.4 or more and lands for the rest. In the second
	// layer the states (7.75, 0.25) and (8.5, 0.5) both lie below it, so
	// the walk down from the last of them runs one step.
	near := c - completionTol(c, c+0.4)
	// Strikes at 6 (charge 1) and at 7 (charge 2) both land at 6+q-1 =
	// 7+q-2, so their successors tie exactly in e, with the paid delay of
	// different states from the second layer on.
	return []expansionCase{
		{"near-c", mustPiecewise([]float64{0, 5, 20, near, c}, []float64{0.25, 0.5, 0.3, 3}), 4},
		{"near-c-flat", mustPiecewise([]float64{0, near, c}, []float64{0.75, 0.5}), 2},
		{"tied-e", mustPiecewise([]float64{0, 6, 7, 30, c}, []float64{0.5, 1, 2, 0.25}), 3},
		{"tied-e-dense", mustPiecewise([]float64{0, 2, 3, 4, 5, 6, c}, []float64{0, 1, 2, 3, 1, 0}), 3.5},
		{"one-piece", mustPiecewise([]float64{0, c}, []float64{1}), 3},
	}
}

func mustPiecewise(xs, vs []float64) *delay.Piecewise {
	f, err := delay.NewPiecewise(xs, vs)
	if err != nil {
		panic(err)
	}
	return f
}

// FuzzDelayExpansion runs the TestDelayMatchesFullExpansion comparison on
// curves decoded from the fuzz input: piece widths and charges on a 1/8
// grid (so successors tie often), Q on the same grid, and optionally a
// last breakpoint tucked under c so that strikes there complete the job
// exactly for the states that paid more than near/65536 of Q.
func FuzzDelayExpansion(f *testing.F) {
	f.Add([]byte{40, 8, 120, 4, 8, 16}, []byte{2, 8, 12, 1, 0, 30}, uint8(30), uint16(0))
	f.Add([]byte{48, 8, 184}, []byte{4, 8, 16}, uint8(24), uint16(32768))
	f.Add([]byte{255}, []byte{60}, uint8(7), uint16(65535))
	f.Fuzz(func(t *testing.T, widths, charges []byte, qb uint8, near uint16) {
		if len(widths) == 0 || len(widths) > 12 {
			return
		}
		q := float64(qb)/8 + 0.125
		xs := []float64{0}
		vs := make([]float64, 0, len(widths)+1)
		for i, w := range widths {
			xs = append(xs, xs[i]+float64(w)/8+0.125)
			var v float64
			if i < len(charges) {
				v = float64(charges[i]) / 8
			}
			vs = append(vs, math.Min(v, 0.9*q))
		}
		if near > 0 {
			c := xs[len(xs)-1] + 1
			xs = append(xs, c)
			vs = append(vs, vs[len(vs)-1]/2)
			xs[len(xs)-2] = c - completionTol(c, c+q*float64(near)/65536)
		}
		fn, err := delay.NewPiecewise(xs, vs)
		if err != nil {
			return
		}
		checkFullExpansion(t, NewExplorer(), fn, q, "fuzz")
	})
}
