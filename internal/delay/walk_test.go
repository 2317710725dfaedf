package delay

import (
	"math"
	"math/rand"
	"testing"

	"fnpr/internal/obs"
)

// stepOracle answers one Algorithm 1 window with the two queries the walk
// step fuses: the crossing, then the earliest maximum up to it.
func stepOracle(f Function, prog, q float64) (pIntersect, pmax, delayMax float64) {
	pIntersect, ok := f.FirstReachDescending(prog, prog+q, prog+q)
	if !ok {
		pIntersect = prog + q
	}
	pmax, delayMax = f.MaxOn(prog, pIntersect)
	return pIntersect, pmax, delayMax
}

// indexTallies reads the process-global index counters.
func indexTallies() [2]int64 {
	r := obs.Default()
	return [2]int64{r.Counter("delay.index.rechecks").Value(), r.Counter("delay.index.bisections").Value()}
}

// sameBits compares floats on their bit patterns, so -0 and +0 differ.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkCursorSteps drives one cursor over f through the window starts
// progs and compares every step with stepOracle bit for bit. For the index
// kernel it also checks that the cursor's flushed rechecks and bisections
// equal what the oracle's FirstReachDescending calls counted.
func checkCursorSteps(t testing.TB, f Function, q float64, progs []float64) {
	t.Helper()
	cur, ok := NewCursor(f)
	if !ok {
		t.Fatalf("%T has no cursor", f)
	}
	before := indexTallies()
	type answer struct{ pi, pm, dm float64 }
	want := make([]answer, len(progs))
	for n, prog := range progs {
		want[n].pi, want[n].pm, want[n].dm = stepOracle(f, prog, q)
	}
	mid := indexTallies()
	for n, prog := range progs {
		pi, pm, dm := cur.Step(prog, q)
		if w := want[n]; !sameBits(pi, w.pi) || !sameBits(pm, w.pm) || !sameBits(dm, w.dm) {
			t.Fatalf("%T step %d (prog=%v q=%v): cursor (p∩=%v pmax=%v dmax=%v), two queries (%v %v %v)\nf=%v",
				f, n, prog, q, pi, pm, dm, w.pi, w.pm, w.dm, f)
		}
	}
	cur.Flush()
	after := indexTallies()
	if oracle, walk := [2]int64{mid[0] - before[0], mid[1] - before[1]}, [2]int64{after[0] - mid[0], after[1] - mid[1]}; oracle != walk {
		t.Fatalf("%T: cursor counted (rechecks, bisections) = %v, the queries %v", f, walk, oracle)
	}
}

// walkProgs returns the window starts of an Algorithm 1 walk over f from
// first, following pnext = prog + q - delayMax as the oracle answers it.
func walkProgs(f Function, q, first float64, limit int) []float64 {
	var progs []float64
	for pnext := first; pnext < f.Domain() && len(progs) < limit; {
		prog := pnext
		progs = append(progs, prog)
		_, _, dm := stepOracle(f, prog, q)
		if q-dm <= 1e-9 {
			break
		}
		pnext = prog + q - dm
	}
	return progs
}

// randomSteps draws a step function with n pieces: coarse values so that
// plateaus and ties are common, and some breakpoints one ulp apart.
func randomSteps(rng *rand.Rand, n int) *Piecewise {
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
	p, err := NewPiecewise(xs, vs)
	if err != nil {
		panic(err)
	}
	return p
}

// probeQs lists region lengths around the function's own scales: random
// ones, breakpoint gaps and their ulp neighbours.
func probeQs(rng *rand.Rand, p *Piecewise) []float64 {
	xs := p.Breakpoints()
	var qs []float64
	for k := 0; k < 4; k++ {
		i := rng.Intn(len(xs))
		j := rng.Intn(len(xs))
		gap := math.Abs(xs[i] - xs[j])
		if gap == 0 {
			gap = xs[len(xs)-1] / 7
		}
		qs = append(qs, gap, math.Nextafter(gap, 0), math.Nextafter(gap, math.Inf(1)))
	}
	return append(qs, 0.3+rng.Float64()*8, p.Domain()/3, p.Domain())
}

// TestCursorMatchesTwoQueries is the differential test of the walk step:
// on random step functions of both kernels, along Algorithm 1 walks at
// breakpoint-gap and ulp-adjacent Qs, and along arbitrary window sequences
// (breakpoints, ulp neighbours, out-of-domain starts, backward jumps),
// every step answers bit for bit what FirstReachDescending and MaxOn answer,
// and the index kernel counts the same work.
func TestCursorMatchesTwoQueries(t *testing.T) {
	obs.Enable()
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(6)
		if trial%2 == 1 {
			n = autoIndexMinPieces + rng.Intn(300)
		}
		p := randomSteps(rng, n)
		ix := NewIndexed(p)
		for _, q := range probeQs(rng, p) {
			for _, first := range []float64{q, q / 2, p.xs[rng.Intn(len(p.xs))]} {
				progs := walkProgs(p, q, first, 2000)
				checkCursorSteps(t, p, q, progs)
				checkCursorSteps(t, ix, q, progs)
			}
			var progs []float64
			for k := 0; k < 40; k++ {
				x := p.xs[rng.Intn(len(p.xs))]
				switch rng.Intn(6) {
				case 0:
					x = math.Nextafter(x, math.Inf(1))
				case 1:
					x = math.Nextafter(x, math.Inf(-1))
				case 2:
					x = (rng.Float64()*1.2 - 0.1) * p.Domain()
				}
				progs = append(progs, x)
			}
			checkCursorSteps(t, p, q, progs)
			checkCursorSteps(t, ix, q, progs)
		}
	}
}

// TestCursorSeekMatchesPieceAt pins the galloping search against pieceAt
// from every cursor position at or before the answer, and the fallback
// from positions past it.
func TestCursorSeekMatchesPieceAt(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		p := randomSteps(rng, 1+rng.Intn(70))
		var probes []float64
		for _, x := range p.xs {
			probes = append(probes, x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
		}
		probes = append(probes, -1, p.Domain()+1, rng.Float64()*p.Domain())
		for _, x := range probes {
			want := p.pieceAt(x)
			for from := 0; from < p.Pieces(); from++ {
				if got := p.seek(from, x); got != want {
					t.Fatalf("seek(%d, %v) = %d, pieceAt = %d (f=%v)", from, x, got, want, p)
				}
			}
		}
	}
}

// TestNewCursorKernels pins which functions take the walk step: the two
// piecewise-constant kernels do; PiecewiseLinear and wrappers, even one
// embedding a *Piecewise, answer through their own queries.
func TestNewCursorKernels(t *testing.T) {
	p := Constant(1, 10)
	l, err := NewPiecewiseLinear([]float64{0, 10}, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	type embedded struct{ *Piecewise }
	for _, tc := range []struct {
		f    Function
		want bool
	}{{p, true}, {NewIndexed(p), true}, {l, false}, {embedded{p}, false}} {
		if _, ok := NewCursor(tc.f); ok != tc.want {
			t.Errorf("NewCursor(%T) ok = %v, want %v", tc.f, ok, tc.want)
		}
	}
}

// FuzzCursorStep drives both kernels' cursors along an Algorithm 1 walk
// and along a fuzzer-chosen second window on a function drawn from seed,
// against the two-query oracle.
func FuzzCursorStep(f *testing.F) {
	f.Add(int64(1), uint16(5), 3.0, 3.0, 0.0)
	f.Add(int64(26), uint16(120), 0.75, 2.5, 40.0)
	f.Add(int64(7), uint16(40), 10.0, 0.5, -3.0)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, q, first, jump float64) {
		if n == 0 || n > 2000 {
			t.Skip()
		}
		for _, v := range []float64{q, first, jump} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				t.Skip()
			}
		}
		if q <= 0 {
			t.Skip()
		}
		obs.Enable()
		p := randomSteps(rand.New(rand.NewSource(seed)), int(n))
		ix := NewIndexed(p)
		progs := walkProgs(p, q, first, 5000)
		if len(progs) > 0 {
			progs = append(progs, progs[len(progs)-1]+jump)
		}
		checkCursorSteps(t, p, q, progs)
		checkCursorSteps(t, ix, q, progs)
	})
}
