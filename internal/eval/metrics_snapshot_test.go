package eval

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fnpr/internal/delay"
	"fnpr/internal/guard"
	"fnpr/internal/obs"
)

var updateSnapshot = flag.Bool("update-snapshot", false, "rewrite testdata/metrics_snapshot.golden")

// snapshotText renders a registry snapshot for the golden: every counter
// with its value, and every gauge and histogram by name only (their values
// are worker counts and wall-clock times). Lines are sorted within a kind.
func snapshotText(s obs.Snapshot) string {
	var lines []string
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("counter %s %d", name, v))
	}
	for name := range s.Gauges {
		lines = append(lines, "gauge "+name)
	}
	for name := range s.Histograms {
		lines = append(lines, "histogram "+name)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestMetricSnapshotsPinned runs a small acceptance campaign, a Figure 5
// sweep and an atlas campaign, each at one worker under a guard that
// carries a scope on a fresh registry, and compares the snapshots with a
// golden: no metric may be renamed, dropped, newly created at zero, or
// count differently. Each run repeats at 2 and 4 workers and must give the
// one-worker snapshot exactly, zero-valued counters included: the workers'
// tallies flush every count. Regenerate with
// `go test ./internal/eval -run TestMetricSnapshotsPinned -update-snapshot`.
func TestMetricSnapshotsPinned(t *testing.T) {
	var b strings.Builder
	run := func(name string, fn func(g *guard.Ctx, workers int) error) {
		var one string
		for _, workers := range []int{1, 2, 4} {
			reg := obs.NewRegistry()
			if err := fn(guard.New(context.Background()).WithObs(obs.NewScope(reg)), workers); err != nil {
				t.Fatalf("%s, %d workers: %v", name, workers, err)
			}
			got := snapshotText(reg.Snapshot())
			if workers == 1 {
				one = got
			} else if got != one {
				t.Fatalf("%s: %d workers' snapshot differs from one worker's\none worker:\n%s\n%d workers:\n%s", name, workers, one, workers, got)
			}
		}
		fmt.Fprintf(&b, "# %s\n%s", name, one)
	}
	run("acceptance", func(g *guard.Ctx, workers int) error {
		p := DefaultAcceptanceParams()
		p.SetsPerPoint, p.UEnd, p.Workers = 10, 0.80, workers
		_, err := Acceptance(g, p)
		return err
	})
	run("figure5", func(g *guard.Ctx, workers int) error {
		_, err := Figure5(g, delay.LiteralParams(), SweepOptions{Workers: workers, Obs: g.Obs()})
		return err
	})
	run("atlas", func(g *guard.Ctx, workers int) error {
		p := DefaultAtlasParams()
		p.FuncsPerCell, p.Workers = 5, workers
		_, err := Atlas(g, p)
		return err
	})
	got := b.String()
	golden := filepath.Join("testdata", "metrics_snapshot.golden")
	if *updateSnapshot {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update-snapshot): %v", err)
	}
	if string(want) != got {
		t.Fatalf("metric snapshots drifted from %s\ngolden:\n%s\ngot:\n%s", golden, want, got)
	}
}

// TestCampaignObsMatchesGuardScope: a campaign whose scope comes from its
// params (p.Obs) and not from the guard reports every metric, the analyses'
// core.* and sched.* counters included, exactly as one run under a guard
// that carries the scope.
func TestCampaignObsMatchesGuardScope(t *testing.T) {
	campaigns := []struct {
		name     string
		analyses []string // metric prefixes the campaign's analyses report
		run      func(g *guard.Ctx, sc *obs.Scope) error
	}{
		{"acceptance", []string{"core.", "sched."}, func(g *guard.Ctx, sc *obs.Scope) error {
			p := DefaultAcceptanceParams()
			p.SetsPerPoint, p.UEnd, p.Workers, p.Obs = 10, 0.80, 1, sc
			_, err := Acceptance(g, p)
			return err
		}},
		{"atlas", []string{"core."}, func(g *guard.Ctx, sc *obs.Scope) error {
			p := DefaultAtlasParams()
			p.FuncsPerCell, p.Workers, p.Obs = 5, 1, sc
			_, err := Atlas(g, p)
			return err
		}},
		{"montecarlo", []string{"core."}, func(g *guard.Ctx, sc *obs.Scope) error {
			p := DefaultMonteCarloParams()
			p.Trials, p.Workers, p.Obs = 20, 2, sc
			_, err := MonteCarlo(g, p)
			return err
		}},
	}
	for _, c := range campaigns {
		onGuard, onParams := obs.NewRegistry(), obs.NewRegistry()
		if err := c.run(guard.New(context.Background()).WithObs(obs.NewScope(onGuard)), nil); err != nil {
			t.Fatalf("%s, guard scope: %v", c.name, err)
		}
		if err := c.run(guard.New(context.Background()), obs.NewScope(onParams)); err != nil {
			t.Fatalf("%s, params scope: %v", c.name, err)
		}
		want, got := snapshotText(onGuard.Snapshot()), snapshotText(onParams.Snapshot())
		if got != want {
			t.Fatalf("%s: metrics with p.Obs alone differ from the guard scope's\nguard scope:\n%s\np.Obs:\n%s", c.name, want, got)
		}
		for _, prefix := range c.analyses {
			if !strings.Contains(got, "counter "+prefix) {
				t.Fatalf("%s: no %s* counter reported", c.name, prefix)
			}
		}
	}
}
