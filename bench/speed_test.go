package main

import (
	"io"
	"testing"
)

func TestRefKernelAllocatesNothing(t *testing.T) {
	k := newRefKernel()
	if a := testing.AllocsPerRun(20, k.run); a != 0 {
		t.Errorf("reference kernel allocates %g objects per call, want 0", a)
	}
}

func TestToReference(t *testing.T) {
	g := startGauge()
	g.close()
	// Replace the real samples: half and full speed, 0.75 on average.
	g.sum, g.n = 0, 0
	g.add(0.5)
	g.add(1)
	rep := newReport(io.Discard)
	for _, name := range []string{"p50_ms", "tail_ms", "setup_s", "ops_per_s", "heap_live_mb"} {
		rep.set(name, 8)
	}
	rep.toReference(g)
	want := map[string]float64{"p50_ms": 6, "tail_ms": 6, "setup_s": 6, "ops_per_s": 8 / 0.75, "heap_live_mb": 8}
	for name, v := range want {
		if rep.metrics[name] != v {
			t.Errorf("%s = %g at reference speed, want %g", name, rep.metrics[name], v)
		}
	}
}
