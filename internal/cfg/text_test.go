package cfg

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"
)

// format renders the graph in the text format; Parse(format(g)) reproduces
// the graph up to block IDs.
func (g *Graph) format(w io.Writer) error {
	for id := 0; id < g.Len(); id++ {
		b := g.Block(BlockID(id))
		if b.Call != "" {
			if _, err := fmt.Fprintf(w, "block %s %g %g call=%s\n", b.Label(), b.EMin, b.EMax, b.Call); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "block %s %g %g\n", b.Label(), b.EMin, b.EMax); err != nil {
			return err
		}
	}
	if g.entry != NoBlock {
		if _, err := fmt.Fprintf(w, "entry %s\n", g.Block(g.entry).Label()); err != nil {
			return err
		}
	}
	for from := 0; from < g.Len(); from++ {
		succs := append([]BlockID(nil), g.Succs(BlockID(from))...)
		sort.Slice(succs, func(i, j int) bool { return succs[i] < succs[j] })
		for _, to := range succs {
			if _, err := fmt.Fprintf(w, "edge %s %s\n", g.Block(BlockID(from)).Label(), g.Block(to).Label()); err != nil {
				return err
			}
		}
	}
	headers := make([]BlockID, 0, len(g.LoopBounds))
	for h := range g.LoopBounds {
		headers = append(headers, h)
	}
	sort.Slice(headers, func(i, j int) bool { return headers[i] < headers[j] })
	for _, h := range headers {
		b := g.LoopBounds[h]
		if _, err := fmt.Fprintf(w, "loop %s %d %d\n", g.Block(h).Label(), b.Min, b.Max); err != nil {
			return err
		}
	}
	return nil
}

const sampleText = `
# a diamond with a loop on the left arm
block top 1 2
block left 3 4
block right 5 6
block bottom 1 1
block helper 1 1 call=f
entry top
edge top left
edge top right
edge left left
edge left bottom
edge right bottom
edge bottom helper
loop left 1 3
`

func TestParseBasic(t *testing.T) {
	g, err := Parse(strings.NewReader(sampleText))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 5 {
		t.Fatalf("blocks = %d, want 5", g.Len())
	}
	if g.Block(g.entry).Name != "top" {
		t.Fatalf("entry = %s", g.Block(g.entry).Name)
	}
	if g.Block(4).Call != "f" {
		t.Fatalf("call = %q, want f", g.Block(4).Call)
	}
	if len(g.LoopBounds) != 1 {
		t.Fatalf("loop bounds = %v", g.LoopBounds)
	}
	// The self-loop on left must collapse and analyse cleanly.
	col, err := g.CollapseLoops()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := col.Graph.AnalyzeOffsets(); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"bad directive", "frobnicate a b"},
		{"block arity", "block x 1"},
		{"bad emin", "block x a 2"},
		{"bad emax", "block x 1 b"},
		{"bad call", "block x 1 2 called=f"},
		{"duplicate block", "block x 1 2\nblock x 1 2"},
		{"edge unknown from", "block x 1 2\nedge y x"},
		{"edge unknown to", "block x 1 2\nedge x y"},
		{"edge arity", "block x 1 2\nedge x"},
		{"entry unknown", "block x 1 2\nentry y"},
		{"entry arity", "block x 1 2\nentry"},
		{"loop arity", "block x 1 2\nloop x 1"},
		{"loop bad min", "block x 1 2\nloop x a 2"},
		{"loop bad max", "block x 1 2\nloop x 1 b"},
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	g := Figure1()
	g.LoopBounds[0] = Bound{Min: 1, Max: 1} // exercise loop emission
	var b strings.Builder
	if err := g.format(&b); err != nil {
		t.Fatal(err)
	}
	g2, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("round trip parse failed: %v\n%s", err, b.String())
	}
	if g2.Len() != g.Len() {
		t.Fatalf("round trip changed block count: %d != %d", g2.Len(), g.Len())
	}
	// Offsets must agree (delete the artificial loop bound first: block 0
	// heads no loop, CheckLoopBounds is what would complain).
	delete(g2.LoopBounds, 0)
	o1, err := g.AnalyzeOffsets()
	if err != nil {
		t.Fatal(err)
	}
	o2, err := g2.AnalyzeOffsets()
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < g.Len(); id++ {
		if o1.SMin[id] != o2.SMin[id] || o1.SMax[id] != o2.SMax[id] {
			t.Fatalf("round trip changed offsets of block %d", id)
		}
	}
}

func TestParseCommentsAndBlankLines(t *testing.T) {
	in := "# header\n\nblock a 1 2\n   \n# trailing\n"
	g, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 {
		t.Fatalf("blocks = %d, want 1", g.Len())
	}
}

func TestParseRejectsNonFiniteTimes(t *testing.T) {
	for _, in := range []string{
		"block a nan 2", "block a 1 nAn", "block a inf 2", "block a 1 +Inf",
	} {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}
