package sched

import (
	"math"
	"testing"

	"fnpr/internal/delay"
	"fnpr/internal/task"
)

func rmSet() task.Set {
	ts := task.Set{
		{Name: "a", C: 1, T: 4},
		{Name: "b", C: 2, T: 8},
		{Name: "c", C: 4, T: 16},
	}
	ts.AssignRateMonotonic()
	return ts
}

func TestResponseTimesClassic(t *testing.T) {
	ts := rmSet()
	rts, err := ResponseTimes(ts)
	if err != nil {
		t.Fatal(err)
	}
	// a: 1. b: 2 + ceil(r/4)*1 -> 3. c: 4 + ceil(r/4)*1 + ceil(r/8)*2:
	// r=4 -> 4+1+2=7 -> 4+2+2=8 -> 4+2+2=8. R=8.
	want := []float64{1, 3, 8}
	for i, w := range want {
		if rts[i] != w {
			t.Fatalf("R[%d] = %g, want %g", i, rts[i], w)
		}
	}
	if !Schedulable(ts, rts) {
		t.Fatal("schedulable set reported unschedulable")
	}
}

func TestResponseTimesWithJitter(t *testing.T) {
	ts := task.Set{
		{Name: "a", C: 1, T: 4, Jitter: 1},
		{Name: "b", C: 2, T: 8},
	}
	rts, err := ResponseTimes(ts)
	if err != nil {
		t.Fatal(err)
	}
	// a: R = C + J = 2.
	if rts[0] != 2 {
		t.Fatalf("R[a] = %g, want 2", rts[0])
	}
	// b: 2 + ceil((r+1)/4)*1: r=2 -> 2+1=3 -> ceil(4/4)=1 -> 3. R=3.
	if rts[1] != 3 {
		t.Fatalf("R[b] = %g, want 3", rts[1])
	}
}

func TestResponseTimesUnschedulable(t *testing.T) {
	ts := task.Set{
		{Name: "a", C: 3, T: 4},
		{Name: "b", C: 3, T: 8, D: 8},
	}
	rts, err := ResponseTimes(ts)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(rts[1], 1) {
		t.Fatalf("R[b] = %g, want +Inf", rts[1])
	}
	if Schedulable(ts, rts) {
		t.Fatal("unschedulable set reported schedulable")
	}
}

func TestResponseTimesValidation(t *testing.T) {
	if _, err := ResponseTimes(task.Set{}); err == nil {
		t.Fatal("accepted empty set")
	}
	if _, err := ResponseTimes(task.Set{{Name: "", C: 1, T: 2}}); err == nil {
		t.Fatal("accepted invalid task")
	}
}

func TestResponseTimesCRPDBusquets(t *testing.T) {
	ts := rmSet()
	p := CRPDParams{MaxCRPD: []float64{0, 1, 1}}
	rts, err := ResponseTimesCRPD(ts, BusquetsMax, p)
	if err != nil {
		t.Fatal(err)
	}
	// b: 2 + ceil(r/4)*(1+1): r=2 -> 2+2=4 -> 2+2=4. R=4.
	if rts[1] != 4 {
		t.Fatalf("R[b] = %g, want 4", rts[1])
	}
	// CRPD-aware response times dominate the classic ones.
	classic, _ := ResponseTimes(ts)
	for i := range rts {
		if rts[i] < classic[i] {
			t.Fatalf("CRPD RTA %g below classic %g", rts[i], classic[i])
		}
	}
}

func TestResponseTimesCRPDPetters(t *testing.T) {
	ts := rmSet()
	// Victim max CRPD 5, but preempters can only damage 1 -> Petters
	// charges 1, Busquets charges 5.
	p := CRPDParams{MaxCRPD: []float64{0, 5, 5}, Damage: []float64{1, 1, 1}}
	rb, err := ResponseTimesCRPD(ts, BusquetsMax, p)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := ResponseTimesCRPD(ts, PettersDamage, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rb {
		if rp[i] > rb[i] {
			t.Fatalf("Petters RTA %g above Busquets %g for task %d", rp[i], rb[i], i)
		}
	}
	if rp[1] >= rb[1] {
		t.Fatalf("expected strict improvement for task b: petters %g vs busquets %g", rp[1], rb[1])
	}
}

func TestResponseTimesCRPDNoCRPDDelegates(t *testing.T) {
	ts := rmSet()
	rts, err := ResponseTimesCRPD(ts, NoCRPD, CRPDParams{})
	if err != nil {
		t.Fatal(err)
	}
	classic, _ := ResponseTimes(ts)
	for i := range rts {
		if rts[i] != classic[i] {
			t.Fatal("NoCRPD variant differs from classic RTA")
		}
	}
}

func TestResponseTimesCRPDBadParams(t *testing.T) {
	ts := rmSet()
	if _, err := ResponseTimesCRPD(ts, BusquetsMax, CRPDParams{MaxCRPD: []float64{1}}); err == nil {
		t.Fatal("accepted short MaxCRPD")
	}
}

func fnprFixture() FNPRAnalysis {
	ts := task.Set{
		{Name: "hi", C: 10, T: 100, Q: 10},
		{Name: "lo", C: 40, T: 200, Q: 8},
	}
	fs := []delay.Function{
		nil, // highest priority task is never preempted
		delay.Constant(2, 40),
	}
	return FNPRAnalysis{Tasks: ts, Delay: fs, Method: Algorithm1}
}

func TestEffectiveWCETs(t *testing.T) {
	a := fnprFixture()
	cp, err := a.EffectiveWCETs()
	if err != nil {
		t.Fatal(err)
	}
	if cp[0] != 10 {
		t.Fatalf("C'[hi] = %g, want 10 (nil function)", cp[0])
	}
	// lo: f=2 const, Q=8, C=40: pnext: 8,14,20,26,32,38 -> 6 preemptions
	// x 2 = 12. C' = 52.
	if cp[1] != 52 {
		t.Fatalf("C'[lo] = %g, want 52", cp[1])
	}
}

func TestEffectiveWCETsEquation4(t *testing.T) {
	a := fnprFixture()
	a.Method = Equation4
	cp, err := a.EffectiveWCETs()
	if err != nil {
		t.Fatal(err)
	}
	alg := fnprFixture()
	cpAlg, _ := alg.EffectiveWCETs()
	if cp[1] < cpAlg[1] {
		t.Fatalf("Equation 4 C' %g below Algorithm 1 C' %g", cp[1], cpAlg[1])
	}
}

func TestEffectiveWCETsValidation(t *testing.T) {
	a := fnprFixture()
	a.Delay = a.Delay[:1]
	if _, err := a.EffectiveWCETs(); err == nil {
		t.Fatal("accepted mismatched delay slice")
	}
	b := fnprFixture()
	b.Delay[1] = delay.Constant(2, 99) // domain != C
	if _, err := b.EffectiveWCETs(); err == nil {
		t.Fatal("accepted domain mismatch")
	}
	c := fnprFixture()
	c.Tasks[1].Q = 0
	if _, err := c.EffectiveWCETs(); err == nil {
		t.Fatal("accepted missing Q")
	}
	d := fnprFixture()
	d.Method = DelayMethod(9)
	if _, err := d.EffectiveWCETs(); err == nil {
		t.Fatal("accepted unknown method")
	}
}

func TestResponseTimesFP(t *testing.T) {
	a := fnprFixture()
	rts, err := a.ResponseTimesFP()
	if err != nil {
		t.Fatal(err)
	}
	// hi: C'=10 + blocking min(Q_lo, C'_lo) = min(8, 52) = 8 -> 18.
	if rts[0] != 18 {
		t.Fatalf("R[hi] = %g, want 18", rts[0])
	}
	// lo: C'=52 + ceil(r/100)*10: r=52 -> 52+10=62 -> 62. R=62.
	if rts[1] != 62 {
		t.Fatalf("R[lo] = %g, want 62", rts[1])
	}
	if !Schedulable(a.Tasks, rts) {
		t.Fatal("fixture should be schedulable")
	}
}

func TestResponseTimesFPDivergent(t *testing.T) {
	a := fnprFixture()
	a.Delay[1] = delay.Constant(8, 40) // delay == Q: diverges
	if _, err := a.ResponseTimesFP(); err == nil {
		t.Fatal("accepted divergent delay bound")
	}
}

func TestResponseTimesFPInflationUnschedulable(t *testing.T) {
	// Inflated C' exceeds the deadline: report +Inf, not an error.
	a := FNPRAnalysis{
		Tasks: task.Set{
			{Name: "hi", C: 10, T: 40, Q: 10},
			{Name: "lo", C: 30, T: 100, D: 34, Q: 5},
		},
		Delay: []delay.Function{nil, delay.Constant(1, 30)},
	}
	rts, err := a.ResponseTimesFP()
	if err != nil {
		t.Fatal(err)
	}
	// lo: C' = 30 + 6 preemptions... Algorithm on const 1, Q=5, C=30:
	// pnext 5,9,13,17,21,25,29 -> 7 preemptions -> C' = 37 > D = 34.
	if !math.IsInf(rts[1], 1) {
		t.Fatalf("R[lo] = %g, want +Inf", rts[1])
	}
}

func TestSchedulableEDF(t *testing.T) {
	a := fnprFixture()
	ok, err := a.SchedulableEDF()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("fixture should be EDF-schedulable")
	}
}

func TestSchedulableEDFOverload(t *testing.T) {
	a := FNPRAnalysis{
		Tasks: task.Set{
			{Name: "a", C: 50, T: 100, Q: 10},
			{Name: "b", C: 60, T: 100, Q: 10},
		},
		Delay: []delay.Function{nil, nil},
	}
	ok, err := a.SchedulableEDF()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("overloaded set reported schedulable")
	}
}

func TestSchedulableEDFDivergentDelay(t *testing.T) {
	a := fnprFixture()
	a.Delay[1] = delay.Constant(8, 40)
	ok, err := a.SchedulableEDF()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("divergent delay reported schedulable")
	}
}

// The paper's headline schedulability claim: Algorithm 1's tighter C' admits
// task sets that Equation 4 rejects.
func TestAlgorithm1AdmitsMoreThanEquation4(t *testing.T) {
	// A peaked delay function: high cost only in a narrow early region,
	// nothing later. Algorithm 1 sees that no reachable preemption point
	// (the first lies at Q = 5) carries any cost; Equation 4 charges the
	// global maximum for every window and blows past the deadline.
	c := 60.0
	f, err := delay.NewPiecewise([]float64{0, 2, c}, []float64{4, 0})
	if err != nil {
		t.Fatal(err)
	}
	ts := task.Set{
		{Name: "hi", C: 20, T: 100, Q: 20},
		{Name: "lo", C: c, T: 200, D: 80, Q: 5},
	}
	mk := func(m DelayMethod) FNPRAnalysis {
		return FNPRAnalysis{Tasks: ts, Delay: []delay.Function{nil, f}, Method: m}
	}
	r1, err := mk(Algorithm1).ResponseTimesFP()
	if err != nil {
		t.Fatal(err)
	}
	r4, err := mk(Equation4).ResponseTimesFP()
	if err != nil {
		t.Fatal(err)
	}
	if !Schedulable(ts, r1) {
		t.Fatalf("Algorithm 1 should admit the set (R = %v)", r1)
	}
	if Schedulable(ts, r4) {
		t.Fatalf("Equation 4 unexpectedly admits the set (R = %v)", r4)
	}
}
