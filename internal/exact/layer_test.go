package exact

import (
	"slices"
	"testing"
)

// sweepOrder orders successors by e ascending, then d descending: the
// comparison sort that orderLayer's run merge replaces.
func sweepOrder(a, b succ) int {
	switch {
	case a.e < b.e || (a.e == b.e && a.d > b.d):
		return -1
	case b.e < a.e || (a.e == b.e && b.d > a.d):
		return 1
	}
	return 0
}

// FuzzLayerOrder checks orderLayer against slices.SortFunc with sweepOrder
// on layers decoded from the fuzz input, three bytes per successor. The
// first byte either continues the current run (e steps up by 0 to 1.5, so
// runs get long and e ties often) or jumps to any e on a 0.5 grid, which
// starts a new run when it lands lower. The second picks d on a 0.25 grid
// and the third n, so equal (e, d) pairs with different n come up. The
// orders must agree on every (e, d); within an equal (e, d) group the n may
// come in any order, as they may under the sort, and admit's counts do not
// depend on it. Each layer is ordered twice on one Explorer, so the merge
// also runs on slabs it swapped the first time.
func FuzzLayerOrder(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 3, 1, 4, 5, 2, 1, 7, 1, 2, 3, 3, 0, 3, 1})
	f.Add([]byte{21, 8, 0, 21, 8, 1, 21, 8, 2, 5, 4, 0, 5, 6, 0, 0, 9, 1})
	f.Add([]byte{31, 0, 0, 29, 0, 0, 27, 0, 0, 25, 0, 0, 23, 0, 0, 21, 0, 0, 19, 0, 0})
	f.Add([]byte{0, 0, 0, 2, 1, 0, 4, 2, 0, 6, 3, 0, 8, 4, 0, 1, 7, 3, 2, 7, 3, 4, 7, 1, 6, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var layer []succ
		e := 0.0
		for i := 0; i+2 < len(data) && len(layer) < 256; i += 3 {
			if data[i]&1 == 0 {
				e += 0.5 * float64(data[i]>>1%4)
			} else {
				e = 0.5 * float64(data[i]>>1%16)
			}
			layer = append(layer, succ{dstate{e: e, d: 0.25 * float64(data[i+1]%8)}, 1 + int(data[i+2]%4)})
		}
		want := slices.Clone(layer)
		slices.SortFunc(want, sweepOrder)
		canon(want)
		ex := NewExplorer()
		for round := 0; round < 2; round++ {
			ex.next = append(ex.next[:0], layer...)
			ex.orderLayer()
			got := slices.Clone(ex.next)
			canon(got)
			if !slices.Equal(got, want) {
				t.Fatalf("round %d: run merge of %v\ngave %v\nsort gave %v", round, layer, ex.next, want)
			}
		}
	})
}

// canon sorts every run of equal (e, d) successors by n, the one order the
// sweep leaves open.
func canon(s []succ) {
	for i := 0; i < len(s); {
		j := i + 1
		for j < len(s) && s[j].dstate == s[i].dstate {
			j++
		}
		slices.SortFunc(s[i:j], func(a, b succ) int { return a.n - b.n })
		i = j
	}
}
