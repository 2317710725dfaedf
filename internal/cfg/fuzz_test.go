package cfg

import (
	"strings"
	"testing"
)

// FuzzParse asserts the text parser never panics and that any graph it
// accepts survives a Format/Parse round trip with identical structure.
func FuzzParse(f *testing.F) {
	f.Add("block a 1 2\nblock b 2 3\nedge a b\nentry a\n")
	f.Add("block x 0 0\n")
	f.Add("block h 1 1\nedge h h\nloop h 1 3\n")
	f.Add("# only a comment\n")
	f.Add("block a 1 2 call=f\nblock b 1 1\nedge a b")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := Parse(strings.NewReader(in))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var b strings.Builder
		if err := g.format(&b); err != nil {
			t.Fatalf("accepted graph failed to format: %v", err)
		}
		g2, err := Parse(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("round trip parse failed: %v\ninput: %q\nformatted: %q", err, in, b.String())
		}
		if g2.Len() != g.Len() {
			t.Fatalf("round trip changed block count %d -> %d", g.Len(), g2.Len())
		}
		for id := 0; id < g.Len(); id++ {
			if len(g2.Succs(BlockID(id))) != len(g.Succs(BlockID(id))) {
				t.Fatalf("round trip changed successors of block %d", id)
			}
			a, b := g.Block(BlockID(id)), g2.Block(BlockID(id))
			if a.EMin != b.EMin || a.EMax != b.EMax || a.Call != b.Call {
				t.Fatalf("round trip changed block %d: %+v -> %+v", id, a, b)
			}
		}
	})
}
