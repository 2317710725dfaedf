package delay

import (
	"math"
	"math/rand"
	"testing"
)

// splitPieces rebuilds p with every piece randomly subdivided into runs of
// equal-valued pieces — a semantically identical function constructed in a
// different piece order/granularity.
func splitPieces(t testing.TB, p *Piecewise, rng *rand.Rand) *Piecewise {
	t.Helper()
	xs := p.Breakpoints()
	vs := p.Values()
	var nxs, nvs []float64
	for i := range vs {
		lo, hi := xs[i], xs[i+1]
		nxs = append(nxs, lo)
		nvs = append(nvs, vs[i])
		for k := rng.Intn(3); k > 0; k-- {
			mid := lo + (hi-lo)*(0.25+0.5*rng.Float64())
			if mid <= nxs[len(nxs)-1] || mid >= hi {
				continue
			}
			nxs = append(nxs, mid)
			nvs = append(nvs, vs[i])
		}
	}
	nxs = append(nxs, xs[len(xs)-1])
	out, err := NewPiecewise(nxs, nvs)
	if err != nil {
		t.Fatalf("splitPieces: %v", err)
	}
	return out
}

func TestFingerprintCanonicalAcrossConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		xs := []float64{0}
		vs := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			xs = append(xs, xs[len(xs)-1]+0.1+rng.Float64()*5)
			vs = append(vs, math.Floor(rng.Float64()*8)) // coarse values force equal-value runs
		}
		p, err := NewPiecewise(xs, vs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := FingerprintOf(p)
		if err != nil {
			t.Fatal(err)
		}
		split := splitPieces(t, p, rng)
		if got, _ := FingerprintOf(split); got != want {
			t.Fatalf("trial %d: split construction changed fingerprint\n%v\nvs\n%v", trial, p, split)
		}
		// The indexed view shares the identity of its underlying function.
		if got, err := FingerprintOf(NewIndexed(p)); err != nil || got != want {
			t.Fatalf("trial %d: indexed fingerprint %v (err %v), want %v", trial, got, err, want)
		}
		if got, _ := FingerprintOf(NewIndexed(split)); got != want {
			t.Fatalf("trial %d: indexed split fingerprint differs", trial)
		}
		// Compact is exactly the canonical form; it must be a fixpoint.
		if got, _ := FingerprintOf(split.Compact()); got != want {
			t.Fatalf("trial %d: Compact changed fingerprint", trial)
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	p, err := NewPiecewise([]float64{0, 3, 7, 10}, []float64{2, 5, 1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := FingerprintOf(p)
	if err != nil {
		t.Fatal(err)
	}
	// One ulp on any value or interior breakpoint must change the hash.
	mutate := func(xs, vs []float64) {
		t.Helper()
		q, err := NewPiecewise(xs, vs)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := FingerprintOf(q); got == base {
			t.Fatalf("mutation xs=%v vs=%v kept fingerprint %v", xs, vs, base)
		}
	}
	mutate([]float64{0, 3, 7, 10}, []float64{math.Nextafter(2, 3), 5, 1})
	mutate([]float64{0, math.Nextafter(3, 4), 7, 10}, []float64{2, 5, 1})
	mutate([]float64{0, 3, 7, math.Nextafter(10, 11)}, []float64{2, 5, 1})
	mutate([]float64{0, 3, 7, 10}, []float64{2, 5, math.Nextafter(1, 0)})
	// A different family never matches structurally.
	lin, err := NewPiecewiseLinear([]float64{0, 10}, []float64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := FingerprintOf(lin); got == base {
		t.Fatal("piecewise-linear collided with piecewise-constant")
	}
}

func TestFingerprintLinearCanonical(t *testing.T) {
	// A collinear interior point is redundant: splitting the segment [0,8]
	// of slope 0.5 at x=4 (y=4, exactly representable) must not change the
	// identity.
	a, err := NewPiecewiseLinear([]float64{0, 8}, []float64{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPiecewiseLinear([]float64{0, 4, 8}, []float64{0, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	fa, _ := FingerprintOf(a)
	fb, _ := FingerprintOf(b)
	if fa != fb {
		t.Fatalf("redundant collinear point changed fingerprint: %v vs %v", fa, fb)
	}
	c, err := NewPiecewiseLinear([]float64{0, 4, 8}, []float64{0, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if fc, _ := FingerprintOf(c); fc == fa {
		t.Fatal("bent linear function collided with the straight one")
	}
}

func TestFingerprintUnkeyableFunction(t *testing.T) {
	if _, err := FingerprintOf(adhocFunction{}); err == nil {
		t.Fatal("expected an error for a non-canonical Function implementation")
	}
}

// adhocFunction is a Function outside the canonical families.
type adhocFunction struct{}

func (adhocFunction) Domain() float64                       { return 1 }
func (adhocFunction) Eval(float64) float64                  { return 0 }
func (adhocFunction) MaxOn(a, b float64) (float64, float64) { return a, 0 }
func (adhocFunction) FirstReachDescending(a, b, c float64) (float64, bool) {
	return 0, false
}

// FuzzFingerprintCanonical drives the two halves of the fingerprint
// contract on fuzzer-chosen functions: (1) a semantically identical
// construction — the same step function with pieces subdivided at fuzzer-
// chosen points — hashes equal; (2) flipping a single chosen bit of a single
// value yields a different hash whenever the mutation changes the canonical
// form.
func FuzzFingerprintCanonical(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(0), uint8(13))
	f.Add(int64(42), uint8(8), uint8(2), uint8(51))
	f.Add(int64(9), uint8(1), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, npieces, mutPiece, mutBit uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(npieces)%16 + 1
		xs := []float64{0}
		vs := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			xs = append(xs, xs[len(xs)-1]+0.05+rng.Float64()*3)
			vs = append(vs, math.Floor(rng.Float64()*6))
		}
		p, err := NewPiecewise(xs, vs)
		if err != nil {
			t.Skip()
		}
		base, err := FingerprintOf(p)
		if err != nil {
			t.Fatal(err)
		}
		// (1) Equal-by-construction: subdivided pieces, indexed view.
		split := splitPieces(t, p, rng)
		if got, _ := FingerprintOf(split); got != base {
			t.Fatalf("split construction changed fingerprint\n%v\nvs\n%v", p, split)
		}
		if got, _ := FingerprintOf(NewIndexed(split)); got != base {
			t.Fatal("indexed view changed fingerprint")
		}
		// (2) Single-bit sensitivity: flip one mantissa/exponent bit of one
		// value. Skip mutations that produce an invalid function (negative,
		// NaN, Inf) — those cannot be constructed, hence carry no identity.
		i := int(mutPiece) % n
		mut := append([]float64(nil), vs...)
		mut[i] = math.Float64frombits(math.Float64bits(mut[i]) ^ (1 << (mutBit % 64)))
		q, err := NewPiecewise(xs, mut)
		if err != nil {
			t.Skip()
		}
		mutated, err := FingerprintOf(q)
		if err != nil {
			t.Fatal(err)
		}
		// A single xor can never leave the mutated value bit-equal, but it
		// can leave the bit-level canonical form equal is impossible too —
		// the mutated piece either changes its canonical value or changes
		// which pieces merge. Compare bit-level canonical forms (the exact
		// equivalence the fingerprint encodes; note Compact() is NOT that
		// oracle — it merges 0 and -0, which are bit-distinct) to decide the
		// verdict.
		if bitCanonEqual(p, q) {
			if mutated != base {
				t.Fatal("equal bit-canonical forms with different fingerprints")
			}
			return
		}
		if mutated == base {
			t.Fatalf("bit flip in piece %d (bit %d) kept the fingerprint", i, mutBit%64)
		}
	})
}

// bitCanon reduces a Piecewise to its bit-level canonical (start, value)
// pairs plus the final breakpoint — an independent re-implementation of the
// form the fingerprint hashes.
func bitCanon(p *Piecewise) ([]uint64, uint64) {
	xs, vs := p.Breakpoints(), p.Values()
	var out []uint64
	for i := range vs {
		if i > 0 && math.Float64bits(vs[i]) == math.Float64bits(vs[i-1]) {
			continue
		}
		out = append(out, math.Float64bits(xs[i]), math.Float64bits(vs[i]))
	}
	return out, math.Float64bits(xs[len(xs)-1])
}

// bitCanonEqual reports whether two functions share a bit-level canonical
// form.
func bitCanonEqual(a, b *Piecewise) bool {
	ac, ad := bitCanon(a)
	bc, bd := bitCanon(b)
	if ad != bd || len(ac) != len(bc) {
		return false
	}
	for i := range ac {
		if ac[i] != bc[i] {
			return false
		}
	}
	return true
}

// TestFingerprintPinned pins the fingerprint bytes themselves: persisted
// result caches and journal records key on them, so a change to the
// encoding (or to how it is fed to the hash) must show up here first. The
// 300-piece function spans many hash blocks.
func TestFingerprintPinned(t *testing.T) {
	p, err := NewPiecewise([]float64{0, 0.1, 2.5, 4, 7.25, 10}, []float64{3, 1.5, 1.5, 0, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewPiecewiseLinear([]float64{0, 1, 2, 6.5}, []float64{4, 3, 2, 0.125})
	if err != nil {
		t.Fatal(err)
	}
	xs := []float64{0}
	var vs []float64
	for i := 0; i < 300; i++ {
		xs = append(xs, float64(i+1)*0.5)
		vs = append(vs, float64((i*7)%11)/4)
	}
	big, err := NewPiecewise(xs, vs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		f    Function
		want string
	}{
		{p, "ae7025a84cefed9eea3e5c21bf4f3902"},
		{l, "25e1da46dc275983e6adf7c41f3821de"},
		{big, "3f7085eadba325146d90025e39092736"},
	} {
		fp, err := FingerprintOf(tc.f)
		if err != nil {
			t.Fatal(err)
		}
		if got := fp.String(); got != tc.want {
			t.Errorf("%T fingerprint %s, pinned %s", tc.f, got, tc.want)
		}
	}
}

// BenchmarkFingerprint hashes a 4096-piece function, the size of the large
// curves a bulk /v1/analyze request carries.
func BenchmarkFingerprint(b *testing.B) {
	xs := []float64{0}
	vs := make([]float64, 4096)
	for i := range vs {
		xs = append(xs, float64(i+1)*0.25)
		vs[i] = float64(i % 13)
	}
	p, err := NewPiecewise(xs, vs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.fingerprint()
	}
}
