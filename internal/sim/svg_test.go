package sim

import (
	"strings"
	"testing"

	"fnpr/internal/task"
)

func TestWriteSVGTimeline(t *testing.T) {
	ts := task.Set{
		{Name: "hi", C: 2, T: 10, Q: 1, Prio: 0},
		{Name: "lo", C: 12, T: 40, Q: 3, Prio: 1},
	}
	res, err := Run(nil, Config{Tasks: ts, Policy: FixedPriority, Mode: FullyPreemptive, Horizon: 40})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.WriteSVGTimeline(&b, SVGTimelineOptions{Title: "demo"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"<svg", "demo", "hi", "lo", "<rect", "</svg>"} {
		if !strings.Contains(out, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
	// lo is preempted once in [0,40]: exactly one red preemption tick.
	if got := strings.Count(out, `stroke="red"`); got != 1 {
		t.Fatalf("preemption ticks = %d, want 1", got)
	}
	// 4 hi releases + 1 lo release = 5 triangles.
	if got := strings.Count(out, `<path d=`); got != 5 {
		t.Fatalf("release markers = %d, want 5", got)
	}
}

func TestWriteSVGTimelineClipsWindow(t *testing.T) {
	ts := task.Set{{Name: "a", C: 2, T: 10, Prio: 0}}
	res, err := Run(nil, Config{Tasks: ts, Policy: FixedPriority, Mode: FullyPreemptive, Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	var whole, clipped strings.Builder
	if err := res.WriteSVGTimeline(&whole, SVGTimelineOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteSVGTimeline(&clipped, SVGTimelineOptions{From: 0, To: 25}); err != nil {
		t.Fatal(err)
	}
	if strings.Count(clipped.String(), "<path d=") >= strings.Count(whole.String(), "<path d=") {
		t.Fatal("clipping did not reduce marker count")
	}
}

func TestWriteSVGTimelineMissMarker(t *testing.T) {
	ts := task.Set{
		{Name: "hog", C: 30, T: 100, Prio: 0},
		{Name: "b", C: 10, T: 100, D: 20, Prio: 1},
	}
	res, err := Run(nil, Config{Tasks: ts, Policy: FixedPriority, Mode: NonPreemptive, Horizon: 60})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.WriteSVGTimeline(&b, SVGTimelineOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `fill="red"`) {
		t.Fatal("deadline-miss marker missing")
	}
}
