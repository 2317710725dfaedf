package eval

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fnpr/internal/chaos"
	"fnpr/internal/delay"
	"fnpr/internal/guard"
	"fnpr/internal/journal"
	"fnpr/internal/obs"
)

// The chaos suite drives the sweep's degradation ladder under every injected
// fault mode: a primary-analysis fault degrades the point to Equation 4, a
// fault that also kills the fallback quarantines the point, and sweep-fatal
// faults (budget burn, delayed cancel) abort with the completed points
// preserved and the journal intact.

func chaosBase(t *testing.T) *delay.Piecewise {
	t.Helper()
	f, err := delay.NewPiecewise([]float64{0, 5, 10, 40}, []float64{2, 6, 1})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestChaosPermanentFaultDegradesToEq4(t *testing.T) {
	base := chaosBase(t)
	qs := []float64{15, 20, 25}
	broken := chaos.Wrap(base, chaos.Fault{PanicAtQ: 20})
	specs := []SweepSpec{{Name: "broken", F: broken}}
	results, err := QSweep(nil, specs, SweepOptions{Qs: qs, Workers: 1})
	if err != nil {
		t.Fatalf("QSweep: %v", err)
	}
	pt := results[0].Points[1]
	if !pt.Degraded || pt.Quarantined {
		t.Fatalf("permanent fault: point = %+v, want degraded (not quarantined)", pt)
	}
	if pt.Code() != "degraded:panic" {
		t.Fatalf("Code = %q, want degraded:panic", pt.Code())
	}
	if pt.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (the analysis is never re-run)", pt.Attempts)
	}
	if broken.Fired() != 1 {
		t.Fatalf("wrapper fired %d faults, want 1 (one primary analysis)", broken.Fired())
	}
	// The degraded value is the real Equation 4 bound.
	fallback, err := QSweep(nil, []SweepSpec{{Name: "clean", F: base}}, SweepOptions{Qs: qs, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Value < fallback[0].Points[1].Value {
		t.Fatalf("degraded value %g below the Algorithm 1 value %g (not an Eq.4 bound)", pt.Value, fallback[0].Points[1].Value)
	}
	// Unfaulted points of the same curve stay clean.
	for _, i := range []int{0, 2} {
		if results[0].Points[i].Degraded {
			t.Fatalf("clean Q=%g degraded: %s", qs[i], results[0].Points[i].Note)
		}
	}
}

func TestChaosFallbackFaultQuarantines(t *testing.T) {
	base := chaosBase(t)
	qs := []float64{15, 20, 25}
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, _, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	specs := []SweepSpec{{Name: "doomed", F: chaos.Wrap(base, chaos.Fault{PanicAtQ: 20, PanicFallback: true})}}
	results, err := QSweep(nil, specs, SweepOptions{Qs: qs, Workers: 1, Journal: j})
	if err != nil {
		t.Fatalf("QSweep: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	pt := results[0].Points[1]
	if !pt.Quarantined || !pt.Degraded {
		t.Fatalf("fallback fault: point = %+v, want quarantined", pt)
	}
	if !math.IsNaN(pt.Value) {
		t.Fatalf("quarantined value = %g, want NaN", pt.Value)
	}
	if pt.Code() != "quarantined:panic+panic" {
		t.Fatalf("Code = %q, want quarantined:panic+panic", pt.Code())
	}
	if !strings.Contains(pt.Note, "fallback") {
		t.Fatalf("Reason %q does not name the fallback failure", pt.Note)
	}
	// Only the faulted point quarantines: PanicFallback fires on every
	// Eq.4 query, but clean points never reach the fallback.
	for _, i := range []int{0, 2} {
		if results[0].Points[i].Degraded {
			t.Fatalf("clean Q=%g degraded: %s", qs[i], results[0].Points[i].Note)
		}
	}
	// The quarantine surfaces machine-readably in the notes.
	notes := Degraded(results)
	if len(notes) != 1 || !strings.HasPrefix(notes[0], "quarantined:panic+panic") {
		t.Fatalf("notes = %v, want one note leading with the quarantine code", notes)
	}
	// And the journal replays it bit-for-bit, NaN included.
	j2, recs, err := journal.Open(path)
	if err != nil {
		t.Fatalf("journal corrupted by chaos run: %v", err)
	}
	j2.Close()
	var stored SweepPoint
	ok, err := journal.Get(journal.Latest(recs), gridKey("doomed", 1, 20), &stored)
	if err != nil || !ok {
		t.Fatalf("quarantined point not journaled: ok=%v err=%v", ok, err)
	}
	if !math.IsNaN(stored.Value) || stored.Code() != pt.Code() || !stored.Done {
		t.Fatalf("journaled quarantine = %+v, want %+v", stored, pt)
	}
}

// TestChaosNoteText pins the whole SweepPoint.Note on both panic rungs: the
// lazily built point label must read exactly as the eager one did, because
// Note is journaled and served.
func TestChaosNoteText(t *testing.T) {
	base := chaosBase(t)
	specs := []SweepSpec{
		{Name: "broken", F: chaos.Wrap(base, chaos.Fault{PanicAtQ: 20})},
		{Name: "doomed", F: chaos.Wrap(base, chaos.Fault{PanicAtQ: 20, PanicFallback: true})},
	}
	results, err := QSweep(nil, specs, SweepOptions{Qs: []float64{20}, Workers: 1})
	if err != nil {
		t.Fatalf("QSweep: %v", err)
	}
	want := []string{
		"broken at Q=20: analysis panicked: chaos: injected panic at Q=20",
		"doomed at Q=20: analysis panicked: chaos: injected panic at Q=20; " +
			"fallback: doomed at Q=20 (Eq.4 fallback): analysis panicked: " +
			"chaos: injected panic in Eq.4 fallback (MaxOn[0,40])",
	}
	for i, r := range results {
		if got := r.Points[0].Note; got != want[i] {
			t.Errorf("%s: Note = %q, want %q", r.Name, got, want[i])
		}
	}
}

func TestChaosBudgetBurnAbortsWithPartialResultsAndIntactJournal(t *testing.T) {
	base := chaosBase(t)
	qs := []float64{15, 20, 25}
	g := guard.New(context.Background()).WithBudget(100000)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, _, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	specs := []SweepSpec{
		{Name: "clean", F: base},
		{Name: "burner", F: chaos.Wrap(base, chaos.Fault{Burn: 200000, Guard: g})},
	}
	results, err := QSweep(g, specs, SweepOptions{Qs: qs, Workers: 1, Journal: j})
	j.Close()
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("burned sweep: err = %v, want ErrBudgetExceeded", err)
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("abort error %T does not carry partial results", err)
	}
	// The single worker finishes the whole clean curve before the burner
	// torches the budget on its first point.
	if pe.Completed != 3 || pe.Total != 6 {
		t.Fatalf("partial = %d/%d, want 3/6", pe.Completed, pe.Total)
	}
	if results == nil {
		t.Fatal("aborted sweep discarded its results slice")
	}
	for i, pt := range results[0].Points {
		if !pt.Done {
			t.Fatalf("clean point Q=%g not preserved on abort", qs[i])
		}
	}
	// Journal on disk replays exactly the completed points.
	_, recs, err := journal.Open(path)
	if err != nil {
		t.Fatalf("journal corrupted by abort: %v", err)
	}
	m := journal.Latest(recs)
	points := 0
	for k := range m {
		if strings.HasPrefix(k, "point:") {
			points++
		}
	}
	if points != pe.Completed {
		t.Fatalf("journal holds %d points, want the %d completed", points, pe.Completed)
	}
}

func TestChaosDelayedCancelAbortsWithPartialResults(t *testing.T) {
	base := chaosBase(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := guard.New(ctx)
	qs := []float64{15, 20, 25}
	specs := []SweepSpec{
		{Name: "clean", F: base},
		{Name: "canceller", F: chaos.Wrap(base, chaos.Fault{CancelAfter: 1, Cancel: cancel})},
	}
	_, err := QSweep(g, specs, SweepOptions{Qs: qs, Workers: 1})
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("canceled sweep: err = %v, want ErrCanceled", err)
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("abort error %T does not carry partial results", err)
	}
	// The clean curve (3 points) completes; the canceller's first point may
	// complete before the cancel is polled, but the sweep must stop after.
	if pe.Completed < 3 || pe.Completed >= pe.Total {
		t.Fatalf("partial = %d/%d, want at least the clean curve and not all", pe.Completed, pe.Total)
	}
	for i, pt := range pe.Results[0].Points {
		if !pt.Done {
			t.Fatalf("clean point Q=%g lost on cancel", qs[i])
		}
	}
}

// TestSweepJournalResume kills a journaled sweep mid-grid via delayed
// cancellation, then resumes from the journal: the resumed sweep restores the
// completed points bit-exactly without recomputing them (proven by leaving a
// permanent fault armed at a restored point) and computes only the remainder.
func TestSweepJournalResume(t *testing.T) {
	base := chaosBase(t)
	qs := []float64{15, 20, 25, 30}
	path := filepath.Join(t.TempDir(), "sweep.journal")

	// Reference: uninterrupted clean run.
	want, err := QSweep(nil, []SweepSpec{{Name: "curve", F: base}}, SweepOptions{Qs: qs, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Run 1: cancel after the second grid point's analysis begins.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := guard.New(ctx)
	j, recs, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	// The cancel fires inside the first point's analysis; that point still
	// completes (cancellation is polled at scope entry and every poll
	// interval), and the next point's entry check aborts the sweep.
	specs1 := []SweepSpec{{Name: "curve", F: chaos.Wrap(base, chaos.Fault{CancelAfter: 2, Cancel: cancel})}}
	_, err = QSweep(g, specs1, SweepOptions{Qs: qs, Workers: 1, Journal: j})
	j.Close()
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("run 1: err = %v, want ErrCanceled", err)
	}
	var pe *PartialError
	if !errors.As(err, &pe) || pe.Completed == 0 || pe.Completed == pe.Total {
		t.Fatalf("run 1 must abort mid-grid; got %v", err)
	}

	// Run 2: resume. A permanent panic stays armed at the first grid point;
	// it must never fire because that point is restored, not recomputed.
	j2, recs2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	armed := chaos.Wrap(base, chaos.Fault{PanicAtQ: qs[0]})
	specs2 := []SweepSpec{{Name: "curve", F: armed}}
	got, err := QSweep(nil, specs2, SweepOptions{Qs: qs,
		Workers: 1, Journal: j2, Resume: journal.Latest(recs2),
	})
	j2.Close()
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	if armed.Fired() != 0 {
		t.Fatal("resume recomputed a journaled point (armed fault fired)")
	}
	for i := range qs {
		w, gpt := want[0].Points[i], got[0].Points[i]
		if math.Float64bits(w.Value) != math.Float64bits(gpt.Value) {
			t.Fatalf("Q=%g: resumed value %g not bit-identical to uninterrupted %g", qs[i], gpt.Value, w.Value)
		}
		if gpt.Degraded || gpt.Quarantined || !gpt.Done {
			t.Fatalf("Q=%g: resumed point flags %+v", qs[i], gpt)
		}
	}
}

// TestSweepResumeRejectsForeignJournal: a journal fingerprinting a different
// grid must not be silently reapplied.
func TestSweepResumeRejectsForeignJournal(t *testing.T) {
	base := chaosBase(t)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, _, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := QSweep(nil, []SweepSpec{{Name: "a", F: base}}, SweepOptions{Qs: []float64{15, 20}, Workers: 1, Journal: j}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, recs, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	_, err = QSweep(nil, []SweepSpec{{Name: "b", F: base}}, SweepOptions{Qs: []float64{15, 20},
		Workers: 1, Journal: j2, Resume: journal.Latest(recs),
	})
	if !errors.Is(err, guard.ErrInvalidInput) {
		t.Fatalf("foreign journal accepted: err = %v", err)
	}
}

// TestChaosObservabilityInvariants attaches a TestRecorder to a sweep that
// exercises every rung of the degradation ladder and asserts the metric and
// event invariants of DESIGN.md §10: the ladder counters partition the grid,
// a degraded point emits exactly one PointDegraded event, and a quarantined
// point emits exactly one PointQuarantined event.
func TestChaosObservabilityInvariants(t *testing.T) {
	base := chaosBase(t)
	rec := obs.NewTestRecorder()
	qs := []float64{15, 20, 25}
	specs := []SweepSpec{
		{Name: "clean", F: base},
		{Name: "perma", F: chaos.Wrap(base, chaos.Fault{PanicAtQ: 15})},
		{Name: "doomed", F: chaos.Wrap(base, chaos.Fault{PanicAtQ: 25, PanicFallback: true})},
	}
	results, err := QSweep(nil, specs, SweepOptions{
		Qs: qs, Workers: 2, Obs: rec.Scope(),
	})
	if err != nil {
		t.Fatalf("QSweep: %v", err)
	}

	// The ladder counters partition the grid: every point settles exactly once.
	total := int64(len(specs) * len(qs))
	clean := rec.Counter("sweep.points.clean")
	degraded := rec.Counter("sweep.points.degraded")
	quarantined := rec.Counter("sweep.points.quarantined")
	if clean+degraded+quarantined != total {
		t.Fatalf("ladder counters %d+%d+%d do not partition the %d grid points",
			clean, degraded, quarantined, total)
	}
	if degraded != 1 || quarantined != 1 {
		t.Fatalf("degraded=%d quarantined=%d, want exactly 1 each", degraded, quarantined)
	}

	// Every grid point emits exactly one PointDone; the sweep brackets them
	// with one SweepStarted and one SweepFinished.
	if got := rec.CountEvents(obs.PointDone); got != int(total) {
		t.Fatalf("%d PointDone events for %d grid points", got, total)
	}
	if rec.CountEvents(obs.SweepStarted) != 1 || rec.CountEvents(obs.SweepFinished) != 1 {
		t.Fatal("sweep did not emit exactly one SweepStarted/SweepFinished pair")
	}
	fin := rec.FilterEvents(obs.SweepFinished)[0]
	if fin.Completed != int(total) || fin.Total != int(total) || fin.Err != "" {
		t.Fatalf("SweepFinished = %+v, want %d/%d clean", fin, total, total)
	}

	// Exactly one PointQuarantined, and it names the quarantined point.
	quar := rec.FilterEvents(obs.PointQuarantined)
	if len(quar) != 1 {
		t.Fatalf("%d PointQuarantined events, want 1", len(quar))
	}
	if quar[0].Spec != "doomed" || quar[0].Q != 25 || quar[0].Code != "quarantined:panic+panic" {
		t.Fatalf("PointQuarantined = %+v, want doomed@25 quarantined:panic+panic", quar[0])
	}
	deg := rec.FilterEvents(obs.PointDegraded)
	if len(deg) != 1 || deg[0].Spec != "perma" || deg[0].Q != 15 || deg[0].Code != "degraded:panic" {
		t.Fatalf("PointDegraded = %+v, want one perma@15 degraded:panic", deg)
	}

	// The events agree with the returned points.
	for si, r := range results {
		for _, pt := range r.Points {
			if pt.Quarantined != (specs[si].Name == "doomed" && pt.Q == 25) {
				t.Fatalf("%s@%g: Quarantined=%v disagrees with the event log", r.Name, pt.Q, pt.Quarantined)
			}
		}
	}
	if got := rec.Registry().Gauge("sweep.workers").Value(); got != 2 {
		t.Fatalf("sweep.workers gauge = %g, want 2", got)
	}
}

// TestSweepSharedRegistryRace hammers one registry from the full worker pool
// while a reader snapshots it concurrently; the race detector (tier-1 runs
// with -race) guards every counter, gauge and histogram touched by the sweep.
func TestSweepSharedRegistryRace(t *testing.T) {
	base := chaosBase(t)
	reg := obs.NewRegistry()
	sc := obs.NewScope(reg)
	qs := make([]float64, 32)
	for i := range qs {
		qs[i] = 15 + float64(i)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = reg.Snapshot()
			}
		}
	}()
	specs := []SweepSpec{{Name: "a", F: base}, {Name: "b", F: base}}
	_, err := QSweep(nil, specs, SweepOptions{Qs: qs, Workers: 4, Obs: sc})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("QSweep: %v", err)
	}
	if got := reg.Counter("sweep.points.clean").Value(); got != int64(len(specs)*len(qs)) {
		t.Fatalf("clean counter %d, want %d", got, len(specs)*len(qs))
	}
}
