package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"fnpr/internal/delay"
	"fnpr/internal/spec"
)

// request is one request of a serve workload. It is a pure function of the
// run's seed and the request's number, so the answer checks and the traced
// replay can rebuild exactly the body that was sent.
type request struct {
	// set selects /v1/analyzeset; otherwise the request is /v1/analyze.
	set bool
	// curve indexes serveInputs.curves (analyze) or serveInputs.sets.
	curve int
	// q and eq4 are the analyze request's Q and method.
	q   float64
	eq4 bool
	// delta asks /v1/analyzeset for incremental analysis; edit replaces the
	// value of piece editPiece of task editTask's curve with editValue.
	delta               bool
	edit                bool
	editTask, editPiece int
	editValue           float64
}

// curve is one delay curve of an /v1/analyze body, encoded once.
type curve struct {
	json []byte
	c    float64
}

// setTask is one task of an /v1/analyzeset body; json is its encoding, kept
// so a request that edits another task re-encodes only that one.
type setTask struct {
	task spec.Task
	json []byte
}

// serveInputs is a serve workload's input pool and request mix.
type serveInputs struct {
	curves []curve
	sets   [][]setTask
	// hot is the hot set: the requests the cache is meant to answer.
	hot []request
	// mix is the number of slots in the request mix; pick makes the request
	// for one slot, with d drawing its details.
	mix  int
	pick func(slot int, d *draw) request
	// warm lists the requests whose answers set-up puts in the cache.
	warm []request
}

// The serve workloads' inputs. Every curve stays below the smallest Q it is
// analysed at, so no bound diverges and every request does its full walk.
const (
	hotC         = 1000.0
	hotSets      = 8
	hotSetPieces = 128
	bulkC        = 10000.0
	bulkCurves   = 48
	bulkSets     = 8
	bulkSetPiece = 2048
)

// The analyzeset tasks' WCETs: 6 per serve-hot set, 4 per serve-bulk set.
var (
	hotSetCs  = []float64{300, 500, 800, 1200, 1600, 2000}
	bulkSetCs = []float64{4000, 6000, 8000, 10000}
)

// hotQs is the hot set's Q grid; every hot curve appears at each Q.
var hotQs = []float64{5, 10, 20, 40}

// hotInputs builds serve-hot: 16 curves (frontloaded, constant, 1000-piece
// gaussian, 64-piece piecewise) at 4 Qs make the 64-body hot set. Of every
// 50 requests, 36 re-send a hot body and 4 send a hot curve at a fresh Q (9
// and 1 of each curve kind), and 10 re-submit one of 8 fixed 6-task sets in
// delta mode with one task's curve edited.
func hotInputs(seed int64) (*serveInputs, error) {
	in := &serveInputs{}
	for i := 0; i < 16; i++ {
		d := newDraw(seed, 1, i)
		var sd spec.Delay
		switch i % 4 {
		case 0:
			sd = spec.Delay{Kind: "frontloaded", Peak: d.between(1, 4), Tail: d.between(0.1, 0.5)}
		case 1:
			sd = spec.Delay{Kind: "constant", Value: d.between(0.5, 4)}
		case 2:
			sd = spec.Delay{Kind: "gaussian", Amp: d.between(1, 4), Mu: d.between(100, 900),
				Sigma2: d.between(1e3, 5e4), Offset: d.between(0, 0.5), Pieces: 1000}
		default:
			xs, vs := randomSteps(d, 64, hotC, 4)
			sd = spec.Delay{Kind: "piecewise", Breakpoints: xs, Values: vs}
		}
		cv, err := newCurve(sd, hotC)
		if err != nil {
			return nil, err
		}
		in.curves = append(in.curves, cv)
	}
	for k := 0; k < 64; k++ {
		in.hot = append(in.hot, request{curve: k % 16, q: hotQs[k/16], eq4: k%10 == 9})
	}
	for s := 0; s < hotSets; s++ {
		set, err := randomSet(newDraw(seed, 2, s), hotSetCs, hotSetPieces, 10)
		if err != nil {
			return nil, err
		}
		in.sets = append(in.sets, set)
	}
	in.warm = append(in.warm, in.hot...)
	for s := range in.sets {
		in.warm = append(in.warm, request{set: true, curve: s, delta: true})
	}
	// Hot body k is curve k%16, whose kind is k%4.
	in.mix = 50
	in.pick = func(s int, d *draw) request {
		switch {
		case s < 36:
			return in.hot[4*d.intn(16)+s%4]
		case s < 40:
			r := in.hot[4*d.intn(16)+s%4]
			r.q = d.between(5, 45)
			return r
		default:
			return request{set: true, curve: d.intn(hotSets), delta: true, edit: true,
				editTask: d.intn(len(hotSetCs)), editPiece: d.intn(hotSetPieces), editValue: d.between(0, 10)}
		}
	}
	return in, nil
}

// bulkInputs builds serve-bulk: of every 10 requests, 8 analyse one of 48
// explicit piecewise curves (16 each of 2048, 4096 and 8192 pieces) at a
// fresh Q, so every one misses the cache, and 2 analyse one of 8 fixed
// 4-task sets of 2048-piece curves without delta. The 8 are 2, 4 and 2 of the
// three sizes: latency grows with size, sets slowest, so the median request
// lies well inside the 4096-piece group, not at a gap between two groups
// where a small shift in the mix moves p50 by half.
func bulkInputs(seed int64) (*serveInputs, error) {
	in := &serveInputs{}
	for i := 0; i < bulkCurves; i++ {
		xs, vs := randomSteps(newDraw(seed, 3, i), 2048<<(i%3), bulkC, 15)
		cv, err := newCurve(spec.Delay{Kind: "piecewise", Breakpoints: xs, Values: vs}, bulkC)
		if err != nil {
			return nil, err
		}
		in.curves = append(in.curves, cv)
	}
	for s := 0; s < bulkSets; s++ {
		set, err := randomSet(newDraw(seed, 4, s), bulkSetCs, bulkSetPiece, 10)
		if err != nil {
			return nil, err
		}
		in.sets = append(in.sets, set)
	}
	// Curve i has 2048<<(i%3) pieces.
	in.mix = 10
	in.pick = func(s int, d *draw) request {
		size := [10]int{0, 0, 1, 1, 1, 1, 2, 2, -1, -1}[s]
		if size < 0 {
			return request{set: true, curve: d.intn(bulkSets)}
		}
		return request{curve: 3*d.intn(bulkCurves/3) + size, q: d.between(20, 400)}
	}
	return in, nil
}

// randomSteps draws an n-piece step function over [0, c] with values in
// [0, vmax): piece widths vary by up to 3x.
func randomSteps(d *draw, n int, c, vmax float64) (xs, vs []float64) {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = 0.5 + d.float()
		sum += w[i]
	}
	xs = make([]float64, n+1)
	vs = make([]float64, n)
	x := 0.0
	for i := range w {
		xs[i] = x
		x += c * w[i] / sum
		vs[i] = d.between(0, vmax)
	}
	xs[n] = c
	return xs, vs
}

// newCurve encodes sd after checking that the server will accept it.
func newCurve(sd spec.Delay, c float64) (curve, error) {
	if _, err := sd.Build(c); err != nil {
		return curve{}, fmt.Errorf("bench: generated curve rejected: %w", err)
	}
	b, err := json.Marshal(sd)
	if err != nil {
		return curve{}, err
	}
	return curve{json: b, c: c}, nil
}

// randomSet draws a fixed-priority set with one task per WCET in cs, each
// carrying an m-piece curve with values in [0, vmax). Only the curves are
// random: every seed's sets cost the same to analyse.
func randomSet(d *draw, cs []float64, m int, vmax float64) ([]setTask, error) {
	var out []setTask
	for i, c := range cs {
		xs, vs := randomSteps(d, m, c, vmax)
		tk := spec.Task{Name: fmt.Sprintf("t%d", i), C: c, T: 10 * c, Prio: i + 1,
			Delay: &spec.Delay{Kind: "piecewise", Breakpoints: xs, Values: vs}}
		if _, err := delay.NewPiecewise(xs, vs); err != nil {
			return nil, fmt.Errorf("bench: generated task curve rejected: %w", err)
		}
		b, err := json.Marshal(tk)
		if err != nil {
			return nil, err
		}
		out = append(out, setTask{task: tk, json: b})
	}
	return out, nil
}

// body appends request r's JSON body to b and returns the endpoint path.
func (in *serveInputs) body(r request, b *bytes.Buffer) (string, error) {
	if !r.set {
		cv := in.curves[r.curve]
		b.WriteString(`{"delay":`)
		b.Write(cv.json)
		b.WriteString(`,"c":`)
		b.Write(strconv.AppendFloat(b.AvailableBuffer(), cv.c, 'g', -1, 64))
		b.WriteString(`,"q":`)
		b.Write(strconv.AppendFloat(b.AvailableBuffer(), r.q, 'g', -1, 64))
		if r.eq4 {
			b.WriteString(`,"method":"equation4"`)
		}
		b.WriteString("}")
		return "/v1/analyze", nil
	}
	b.WriteString(`{"spec":{"policy":"fp","tasks":[`)
	for i, st := range in.sets[r.curve] {
		if i > 0 {
			b.WriteString(",")
		}
		if !r.edit || i != r.editTask {
			b.Write(st.json)
			continue
		}
		tk := st.task
		sd := *tk.Delay
		sd.Values = append([]float64(nil), sd.Values...)
		sd.Values[r.editPiece] = r.editValue
		tk.Delay = &sd
		enc, err := json.Marshal(tk)
		if err != nil {
			return "", err
		}
		b.Write(enc)
	}
	b.WriteString("]}")
	if r.delta {
		b.WriteString(`,"delta":true`)
	}
	b.WriteString("}")
	return "/v1/analyzeset", nil
}
