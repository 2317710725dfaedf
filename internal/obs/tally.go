package obs

import "math/bits"

// tally is the private counter storage behind a worker's scope (see
// Scope.Tally): one counter per defined counter slot, and for each slot
// resolved so far the parent's instrument its count flushes into.
type tally struct {
	parent *Scope
	used   [maxDefs / 64]uint64 // bit i is set once slot i is resolved
	up     [maxDefs]*Counter
	own    [maxDefs]Counter
}

// Tally returns a worker-owned child scope. Defined counters resolved on
// it (CounterDef.On) count into private slots that only its owner writes,
// so a pool's workers no longer contend for the shared registry's cache
// lines; Flush adds the counts to s. Resolving a counter on the tally also
// creates s's instrument, so a counter that stays at zero still shows in
// a snapshot. Gauges, histograms, counters by name (the families) and
// events go straight to s's registry and sinks. A tally is for one
// goroutine; its owner calls Flush, and until then s does not see the
// counts. The tally of a nil scope is nil, which collects nothing.
func (s *Scope) Tally() *Scope {
	if s == nil {
		return nil
	}
	return &Scope{reg: s.reg, sinks: s.sinks, tally: &tally{parent: s}}
}

// Flush adds every non-zero count of the tally to its parent scope and
// zeroes it; a no-op on a scope that is not a tally, and on nil.
func (s *Scope) Flush() {
	if s == nil || s.tally == nil {
		return
	}
	t := s.tally
	for w, set := range t.used {
		for ; set != 0; set &= set - 1 {
			i := w*64 + bits.TrailingZeros64(set)
			if v := t.own[i].v.Load(); v != 0 {
				t.up[i].Add(v)
				t.own[i].v.Store(0)
			}
		}
	}
}

// counter resolves d's private slot, resolving the parent's instrument on
// first use.
func (t *tally) counter(d *CounterDef) *Counter {
	if t.up[d.idx] == nil {
		t.up[d.idx] = d.On(t.parent)
		t.used[d.idx/64] |= 1 << (d.idx % 64)
	}
	return &t.own[d.idx]
}
