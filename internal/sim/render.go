package sim

import (
	"fmt"
	"math"
	"strings"
)

// Timeline renders a coarse textual Gantt chart of the schedule: one row per
// task, one column per time slot of the given width. The symbol in each cell
// is '#' when a job of the task occupied the processor for the majority of
// the slot, '.' when it was pending, and ' ' otherwise. Intended for
// eyeballing simulator output in examples and the simulate binary.
func (r *Result) Timeline(slot float64) string {
	if slot <= 0 {
		slot = r.Config.Horizon / 80
	}
	n := int(math.Ceil(r.Config.Horizon / slot))
	if n <= 0 {
		return ""
	}
	rows := make([][]byte, len(r.Config.Tasks))
	for i := range rows {
		rows[i] = []byte(strings.Repeat(" ", n))
	}
	// Replay events to attribute occupancy: between consecutive events,
	// the running job (if any) fills its cells.
	type seg struct {
		from, to float64
		task     int
	}
	var segs []seg
	var curTask = -1
	var curFrom float64
	for _, e := range r.Events {
		switch e.Kind {
		case EvStart, EvResume:
			curTask = e.Task
			curFrom = e.Time
		case EvPreempt, EvFinish:
			if curTask == e.Task {
				segs = append(segs, seg{curFrom, e.Time, e.Task})
				curTask = -1
			}
		}
	}
	if curTask >= 0 {
		segs = append(segs, seg{curFrom, r.Config.Horizon, curTask})
	}
	for _, sg := range segs {
		lo := int(sg.from / slot)
		hi := int(math.Ceil(sg.to / slot))
		for c := lo; c < hi && c < n; c++ {
			// Majority occupancy of the slot.
			cellLo, cellHi := float64(c)*slot, float64(c+1)*slot
			overlap := math.Min(cellHi, sg.to) - math.Max(cellLo, sg.from)
			if overlap >= slot/2 || (sg.to-sg.from < slot && overlap > 0) {
				rows[sg.task][c] = '#'
			}
		}
	}
	var b strings.Builder
	for i, row := range rows {
		fmt.Fprintf(&b, "%-10s |%s|\n", r.Config.Tasks[i].Name, string(row))
	}
	fmt.Fprintf(&b, "%-10s  0%*s%.0f\n", "time", n-1, "", r.Config.Horizon)
	return b.String()
}

// Summary renders per-task statistics.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %8s %8s %10s %10s %12s %12s\n",
		"task", "released", "finished", "missed", "preempts", "delay", "maxResp", "maxDelay/job")
	for i, st := range r.Tasks {
		fmt.Fprintf(&b, "%-10s %8d %8d %8d %10d %10.3f %12.3f %12.3f\n",
			r.Config.Tasks[i].Name, st.Released, st.Finished, st.Missed,
			st.Preemptions, st.DelayPaid, st.MaxResponse, st.MaxDelayPerJob)
	}
	fmt.Fprintf(&b, "idle: %.3f / %.3f (%.1f%%)\n", r.Idle, r.Config.Horizon, 100*r.Idle/r.Config.Horizon)
	return b.String()
}
