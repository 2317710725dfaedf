package eval

import (
	"encoding/json"
	"math"
	"testing"
)

// TestSweepPointJSONBytes pins the SweepPoint wire format byte for byte.
// Journal records and /v1/analyzeset responses spell exactly these bytes, so
// a resumed sweep stays byte-identical to an uninterrupted one across
// versions. Every value must also decode back to itself, NaN included.
func TestSweepPointJSONBytes(t *testing.T) {
	cases := []struct {
		name string
		pt   SweepPoint
		want string
	}{
		{"clean", SweepPoint{Q: 15, Value: 3.25, Attempts: 1, Done: true},
			`{"q":15,"value":3.25,"attempts":1,"done":true}`},
		{"clean-cached", SweepPoint{Q: 0.1, Value: 1e-7, Attempts: 1, Done: true, Cached: true},
			`{"q":0.1,"value":1e-7,"attempts":1,"done":true}`},
		{"degraded", SweepPoint{Q: 20, Value: 7.5, Degraded: true, Primary: ReasonPanic,
			Note: "analysis panicked: boom", Attempts: 1, Done: true},
			`{"q":20,"value":7.5,"degraded":true,"code":"degraded:panic","reason":"analysis panicked: boom","attempts":1,"done":true}`},
		{"quarantined-nan", SweepPoint{Q: 25, Value: math.NaN(), Degraded: true, Quarantined: true,
			Primary: ReasonPanic, Fallback: ReasonBudget, Note: "a; fallback: b", Attempts: 1, Done: true},
			`{"q":25,"value":"NaN","degraded":true,"quarantined":true,"code":"quarantined:panic+budget","reason":"a; fallback: b","attempts":1,"done":true}`},
		{"plus-inf", SweepPoint{Q: 30, Value: math.Inf(1), Done: true},
			`{"q":30,"value":"+Inf","done":true}`},
		{"minus-inf", SweepPoint{Q: 35, Value: math.Inf(-1), Done: true},
			`{"q":35,"value":"-Inf","done":true}`},
		{"unreached", SweepPoint{Q: 40},
			`{"q":40,"value":0}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := json.Marshal(tc.pt)
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != tc.want {
				t.Fatalf("encoded\n  %s\nwant\n  %s", b, tc.want)
			}
			var back SweepPoint
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatal(err)
			}
			want := tc.pt
			want.Cached = false // runtime-only, never serialized
			if !samePoint(back, want) {
				t.Fatalf("decoded %+v, want %+v", back, want)
			}
		})
	}
}

// TestSweepPointDecodesOldJournalRecord restores a record written when each
// point's primary analysis could take several attempts: the attempt count is
// kept as written and the record re-encodes to the same bytes.
func TestSweepPointDecodesOldJournalRecord(t *testing.T) {
	const rec = `{"q":20,"value":9,"degraded":true,"code":"degraded:panic","reason":"analysis panicked: boom","attempts":3,"done":true}`
	var pt SweepPoint
	if err := json.Unmarshal([]byte(rec), &pt); err != nil {
		t.Fatal(err)
	}
	want := SweepPoint{Q: 20, Value: 9, Degraded: true, Primary: ReasonPanic,
		Note: "analysis panicked: boom", Attempts: 3, Done: true}
	if !samePoint(pt, want) {
		t.Fatalf("decoded %+v, want %+v", pt, want)
	}
	b, err := json.Marshal(pt)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != rec {
		t.Fatalf("re-encoded\n  %s\nwant\n  %s", b, rec)
	}
}

// samePoint compares two points field by field, with Value compared bit for
// bit so NaN equals NaN.
func samePoint(a, b SweepPoint) bool {
	av, bv := a.Value, b.Value
	a.Value, b.Value = 0, 0
	return a == b && math.Float64bits(av) == math.Float64bits(bv)
}
