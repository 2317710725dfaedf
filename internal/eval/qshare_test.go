package eval

import (
	"math"
	"testing"

	"fnpr/internal/core"
	"fnpr/internal/delay"
	"fnpr/internal/obs"
)

// qshareFixture builds an n-piece delay function over [0, 2n] and a Q grid
// inside its interesting range. At n >= 32 AutoIndex wraps it in the query
// index (the hint-capable kernel); below that it stays on the scan kernel.
func qshareFixture(t *testing.T, n int) (*delay.Piecewise, []float64) {
	t.Helper()
	xs := make([]float64, n+1)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(2 * i)
	}
	for i := range ys {
		// A rough sawtooth: high early spikes decaying towards the tail,
		// so Algorithm 1's windows walk several pieces per query.
		ys[i] = 0.5 + float64((13*i)%7) + 5/float64(i+1)
	}
	f, err := delay.NewPiecewise(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]float64, 0, 10)
	for q := 12.0; q < 52; q += 4 {
		qs = append(qs, q)
	}
	return f, qs
}

// TestQSweepCrossQHints: on a single-worker sweep, each grid point's walk is
// seeded from the pieces the previous point recorded (sweep.qshare.seeded);
// only the curve's first computed point starts cold. The hints are advisory
// only — the indexed-with-hints sweep must agree bit for bit with direct
// scan-kernel analyses of the raw curve.
func TestQSweepCrossQHints(t *testing.T) {
	f, qs := qshareFixture(t, 48)
	reg := obs.NewRegistry()
	hinted, err := QSweep(nil, []SweepSpec{{Name: "curve", F: f}},
		SweepOptions{Qs: qs, Workers: 1, Obs: obs.NewScope(reg)})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range hinted[0].Points {
		if pt.Degraded || pt.Quarantined {
			t.Fatalf("point Q=%g degraded: %s", qs[i], pt.Note)
		}
	}
	seeded := reg.Counter("sweep.qshare.seeded").Value()
	cold := reg.Counter("sweep.qshare.cold").Value()
	if cold < 1 {
		t.Fatalf("no cold grid point (seeded=%d cold=%d)", seeded, cold)
	}
	if seeded == 0 {
		t.Fatalf("cross-Q seeding never happened (cold=%d over %d points)", cold, len(qs))
	}
	if seeded+cold > int64(len(qs)) {
		t.Fatalf("qshare counters exceed grid: seeded=%d cold=%d over %d points", seeded, cold, len(qs))
	}
	for i, q := range qs {
		scan, err := core.Analyze(nil, f, q, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		hv, sv := hinted[0].Points[i].Value, scan.TotalDelay
		if math.Float64bits(hv) != math.Float64bits(sv) {
			t.Fatalf("hinted and scan kernels differ at Q=%g: %g vs %g", qs[i], hv, sv)
		}
	}
}

// TestQSweepScanKernelNoHintCounters: the scan kernel records no walk pieces,
// so a sweep over a curve below the AutoIndex threshold must leave the qshare
// counters untouched (they count hint-capable walks only).
func TestQSweepScanKernelNoHintCounters(t *testing.T) {
	f, qs := qshareFixture(t, 24)
	if _, ok := delay.AutoIndex(f).(*delay.Indexed); ok {
		t.Fatal("fixture is above the AutoIndex threshold")
	}
	reg := obs.NewRegistry()
	if _, err := QSweep(nil, []SweepSpec{{Name: "curve", F: f}},
		SweepOptions{Qs: qs, Workers: 1, Obs: obs.NewScope(reg)}); err != nil {
		t.Fatal(err)
	}
	if s, c := reg.Counter("sweep.qshare.seeded").Value(), reg.Counter("sweep.qshare.cold").Value(); s != 0 || c != 0 {
		t.Fatalf("scan kernel bumped qshare counters: seeded=%d cold=%d", s, c)
	}
}
