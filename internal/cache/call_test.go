package cache

import (
	"reflect"
	"regexp"
	"strings"
	"testing"

	"fnpr/internal/cfg"
)

// callText is a diamond whose blocks call functions; its [emin, emax]
// intervals already include the callees.
const callText = `
block top 1 2 call=init
block left 3 4 call=f
block right 5 6
block bottom 1 1 call=g
entry top
edge top left
edge top right
edge left bottom
edge right bottom
`

// TestCallAttributeIsOnlyALabel: cfg.Parse accepts call=<func> and keeps it
// in Block.Call, which Graph.DOT prints, but the graph analyses ignore it: the
// same text without the attributes gives the same offsets and the same UCB
// and CRPD results.
func TestCallAttributeIsOnlyALabel(t *testing.T) {
	withCalls, err := cfg.Parse(strings.NewReader(callText))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := cfg.Parse(strings.NewReader(regexp.MustCompile(` call=\w+`).ReplaceAllString(callText, "")))
	if err != nil {
		t.Fatal(err)
	}
	if withCalls.Block(1).Call != "f" || plain.Block(1).Call != "" {
		t.Fatalf("calls parsed as %q and %q, want f and none", withCalls.Block(1).Call, plain.Block(1).Call)
	}
	if !strings.Contains(withCalls.DOT("p"), `call f`) || strings.Contains(plain.DOT("p"), "call") {
		t.Fatal("Graph.DOT does not print exactly the parsed calls")
	}

	offWith, err := withCalls.AnalyzeOffsets()
	if err != nil {
		t.Fatal(err)
	}
	offPlain, err := plain.AnalyzeOffsets()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(offWith.SMin, offPlain.SMin) || !reflect.DeepEqual(offWith.SMax, offPlain.SMax) ||
		offWith.BCET != offPlain.BCET || offWith.WCET != offPlain.WCET {
		t.Fatalf("offsets with calls %+v, without %+v", offWith, offPlain)
	}

	acc := AccessMap{0: {1, 2, 3}, 1: {2, 4}, 2: {3, 5}, 3: {1, 2, 5}}
	cc := Config{Sets: 8, Assoc: 2, LineBytes: 16, ReloadCost: 10}
	ucbWith, err := AnalyzeUCB(withCalls, acc, cc)
	if err != nil {
		t.Fatal(err)
	}
	ucbPlain, err := AnalyzeUCB(plain, acc, cc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ucbWith.UCB, ucbPlain.UCB) || !reflect.DeepEqual(ucbWith.ReachOut, ucbPlain.ReachOut) ||
		!reflect.DeepEqual(ucbWith.LiveIn, ucbPlain.LiveIn) {
		t.Fatal("UCB analysis differs with and without call attributes")
	}
	for b := 0; b < withCalls.Len(); b++ {
		if w, p := ucbWith.CRPD(cfg.BlockID(b)), ucbPlain.CRPD(cfg.BlockID(b)); w != p {
			t.Fatalf("block %d: CRPD %g with calls, %g without", b, w, p)
		}
	}
}
