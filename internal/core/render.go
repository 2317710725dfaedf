package core

import (
	"fmt"
	"strings"
)

// String renders the result with its iteration trace as a table, the
// programmatic counterpart of walking Figure 3 of the paper step by step.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "total delay %.4f over %d preemptions", r.TotalDelay, r.Preemptions)
	if r.Diverged {
		b.WriteString(" (DIVERGED)")
	}
	b.WriteString("\n")
	if len(r.Iterations) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%5s %12s %12s %12s %12s %12s %12s\n",
		"iter", "prog", "p∩", "pmax", "delaymax", "pnext", "total")
	for i, it := range r.Iterations {
		fmt.Fprintf(&b, "%5d %12.4f %12.4f %12.4f %12.4f %12.4f %12.4f\n",
			i+1, it.Prog, it.PIntersect, it.PMax, it.DelayMax, it.PNext, it.Total)
	}
	return b.String()
}
