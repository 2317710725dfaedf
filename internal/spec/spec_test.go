package spec

import (
	"errors"
	"strings"
	"testing"

	"fnpr/internal/guard"
)

const sample = `{
  "policy": "fp",
  "tasks": [
    {"name": "hi", "c": 5, "t": 50, "q": 5, "prio": 0},
    {"name": "lo", "c": 20, "t": 100, "q": 4, "prio": 1,
     "delay": {"kind": "frontloaded", "peak": 2, "tail": 0.5}}
  ]
}`

func TestLoadBasic(t *testing.T) {
	p, err := Load(nil, strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if p.Policy != "fp" || len(p.Tasks) != 2 {
		t.Fatalf("problem = %+v", p)
	}
	if p.Delay[0] != nil {
		t.Fatal("hi should have no delay function")
	}
	if p.Delay[1] == nil || p.Delay[1].Domain() != 20 {
		t.Fatalf("lo delay function wrong: %v", p.Delay[1])
	}
	if p.Delay[1].Eval(1) != 2 {
		t.Fatalf("frontloaded peak = %g, want 2", p.Delay[1].Eval(1))
	}
}

func TestLoadSortsByPriority(t *testing.T) {
	in := `{
	  "policy": "fp",
	  "tasks": [
	    {"name": "lo", "c": 20, "t": 100, "prio": 5,
	     "delay": {"kind": "constant", "value": 1}},
	    {"name": "hi", "c": 5, "t": 50, "prio": 1}
	  ]
	}`
	p, err := Load(nil, strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if p.Tasks[0].Name != "hi" || p.Tasks[1].Name != "lo" {
		t.Fatalf("order = %v", p.Tasks)
	}
	// Delay functions follow their tasks through the sort.
	if p.Delay[0] != nil || p.Delay[1] == nil {
		t.Fatal("delay functions not permuted with tasks")
	}
}

func TestLoadRejectsBadSpecs(t *testing.T) {
	cases := []struct{ name, in string }{
		{"no policy", `{"tasks":[{"name":"a","c":1,"t":2}]}`},
		{"bad policy", `{"policy":"rr","tasks":[{"name":"a","c":1,"t":2}]}`},
		{"no tasks", `{"policy":"fp","tasks":[]}`},
		{"unknown field", `{"policy":"fp","bogus":1,"tasks":[{"name":"a","c":1,"t":2}]}`},
		{"invalid task", `{"policy":"fp","tasks":[{"name":"a","c":0,"t":2}]}`},
		{"bad delay kind", `{"policy":"fp","tasks":[{"name":"a","c":1,"t":2,"delay":{"kind":"magic"}}]}`},
		{"negative constant", `{"policy":"fp","tasks":[{"name":"a","c":1,"t":2,"delay":{"kind":"constant","value":-1}}]}`},
		{"piecewise no breakpoints", `{"policy":"fp","tasks":[{"name":"a","c":1,"t":2,"delay":{"kind":"piecewise"}}]}`},
		{"piecewise domain mismatch", `{"policy":"fp","tasks":[{"name":"a","c":5,"t":20,"delay":{"kind":"piecewise","breakpoints":[0,4],"values":[1]}}]}`},
		{"gaussian no sigma", `{"policy":"fp","tasks":[{"name":"a","c":1,"t":2,"delay":{"kind":"gaussian","amp":1}}]}`},
		{"not json", `hello`},
	}
	for _, c := range cases {
		if _, err := Load(nil, strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestLoadPiecewiseAndGaussian(t *testing.T) {
	in := `{
	  "policy": "edf",
	  "tasks": [
	    {"name": "a", "c": 10, "t": 40, "q": 3,
	     "delay": {"kind": "piecewise", "breakpoints": [0, 4, 10], "values": [2, 0.5]}},
	    {"name": "b", "c": 20, "t": 80, "q": 4,
	     "delay": {"kind": "gaussian", "amp": 3, "mu": 10, "sigma2": 4, "pieces": 100}}
	  ]
	}`
	p, err := Load(nil, strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if p.Delay[0].Eval(2) != 2 || p.Delay[0].Eval(5) != 0.5 {
		t.Fatal("piecewise values wrong")
	}
	_, peak := p.Delay[1].MaxOn(0, 20)
	if peak < 2.9 || peak > 3.1 {
		t.Fatalf("gaussian peak = %g, want ~3", peak)
	}
}

func TestDefaultNames(t *testing.T) {
	in := `{"policy":"edf","tasks":[{"c":1,"t":5}]}`
	p, err := Load(nil, strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if p.Tasks[0].Name != "t0" {
		t.Fatalf("default name = %q, want t0", p.Tasks[0].Name)
	}
}

func TestLoadLinearDelay(t *testing.T) {
	in := `{
	  "policy": "fp",
	  "tasks": [
	    {"name": "a", "c": 10, "t": 40, "q": 3, "prio": 0,
	     "delay": {"kind": "linear", "breakpoints": [0, 5, 10], "values": [0, 8, 0]}}
	  ]
	}`
	p, err := Load(nil, strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Delay[0].Eval(2.5); got != 4 {
		t.Fatalf("linear Eval(2.5) = %g, want 4", got)
	}
	bad := strings.Replace(in, `[0, 5, 10]`, `[0, 5, 9]`, 1)
	if _, err := Load(nil, strings.NewReader(bad)); err == nil {
		t.Fatal("accepted linear domain mismatch")
	}
}

func TestAssignQFromFile(t *testing.T) {
	in := `{
	  "policy": "fp",
	  "assign_q": true,
	  "tasks": [
	    {"name": "a", "c": 1, "t": 4, "prio": 0},
	    {"name": "b", "c": 2, "t": 8, "prio": 1},
	    {"name": "c", "c": 4, "t": 16, "prio": 2, "q": 1.5}
	  ]
	}`
	p, err := Load(nil, strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Missing Qs derived; the explicit Q on task c is preserved.
	if p.Tasks[0].Q <= 0 || p.Tasks[1].Q <= 0 {
		t.Fatalf("Q not derived: %v", p.Tasks)
	}
	if p.Tasks[2].Q != 1.5 {
		t.Fatalf("explicit Q overwritten: %g", p.Tasks[2].Q)
	}
}

// TestGaussianPiecesLimit refuses gaussian piece counts above the cap as
// invalid input before any allocation, and still builds one at the cap.
func TestGaussianPiecesLimit(t *testing.T) {
	for _, n := range []int{maxGaussianPieces + 1, 20000000, 1 << 62} {
		d := &Delay{Kind: "gaussian", Amp: 3, Mu: 10, Sigma2: 4, Pieces: n}
		_, err := d.Build(40)
		if !errors.Is(err, guard.ErrInvalidInput) {
			t.Errorf("pieces %d: err = %v, want guard.ErrInvalidInput", n, err)
		}
	}
	d := &Delay{Kind: "gaussian", Amp: 3, Mu: 10, Sigma2: 4, Pieces: maxGaussianPieces}
	if _, err := d.Build(40); err != nil {
		t.Fatalf("pieces %d: %v", maxGaussianPieces, err)
	}
}
