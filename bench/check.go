package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"

	"fnpr/internal/core"
	"fnpr/internal/eval"
	"fnpr/internal/spec"
	"fnpr/internal/textplot"
)

// analyzeWire and analyzeSetWire mirror the service's request bodies
// (internal/server keeps its own unexported); the answer checks and the
// traced replay decode the bodies sent through them, strictly, as the
// server does.
type analyzeWire struct {
	Delay          *spec.Delay `json:"delay"`
	C              float64     `json:"c"`
	Q              float64     `json:"q"`
	Method         string      `json:"method,omitempty"`
	Limited        bool        `json:"limited,omitempty"`
	MaxPreemptions int         `json:"max_preemptions,omitempty"`
	Solver         string      `json:"solver,omitempty"`
}

type analyzeSetWire struct {
	Spec   spec.File `json:"spec"`
	Qs     []float64 `json:"qs,omitempty"`
	Delta  bool      `json:"delta,omitempty"`
	Solver string    `json:"solver,omitempty"`
}

// decodeStrict decodes data into v, refusing unknown fields.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// method maps the wire method name onto core's.
func (w analyzeWire) method() core.Method {
	if w.Method == "equation4" {
		return core.Equation4
	}
	return core.Algorithm1
}

// qs is the request's Q grid, defaulted as the service defaults it.
func (w analyzeSetWire) qs() []float64 {
	if len(w.Qs) == 0 {
		return eval.DefaultQGrid()
	}
	return w.Qs
}

// jsonNumber encodes v as the service writes bounds: a number, or a string
// for the non-finite values JSON cannot carry.
func jsonNumber(v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`)
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`)
	case math.IsNaN(v):
		return []byte(`"NaN"`)
	}
	b, _ := json.Marshal(v)
	return b
}

// digest is a SHA-256 of the part of a serve answer the checks compare:
// the bound, preemption count and divergence flag of /v1/analyze, the
// compacted results of /v1/analyzeset. Holding digests instead of answers
// keeps a run's memory independent of how many answers it checks.
type digest [sha256.Size]byte

// answerDigest digests a service answer to a request on path.
func answerDigest(path string, resp []byte) (digest, error) {
	switch path {
	case "/v1/analyze":
		var got struct {
			TotalDelay  json.RawMessage `json:"total_delay"`
			Preemptions int             `json:"preemptions"`
			Diverged    bool            `json:"diverged"`
		}
		if err := json.Unmarshal(resp, &got); err != nil {
			return digest{}, fmt.Errorf("analyze answer: %w", err)
		}
		return analyzeDigest(got.TotalDelay, got.Preemptions, got.Diverged), nil
	case "/v1/analyzeset":
		var got struct {
			Results json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(resp, &got); err != nil {
			return digest{}, fmt.Errorf("analyzeset answer: %w", err)
		}
		var c bytes.Buffer
		if err := json.Compact(&c, got.Results); err != nil {
			return digest{}, fmt.Errorf("analyzeset answer: %w", err)
		}
		return sha256.Sum256(c.Bytes()), nil
	}
	return digest{}, fmt.Errorf("no check for %s", path)
}

func analyzeDigest(total []byte, preemptions int, diverged bool) digest {
	return sha256.Sum256(fmt.Appendf(nil, "%s|%d|%v", total, preemptions, diverged))
}

// expectedDigest computes the answer to a request body directly, with
// core.Analyze or eval.AnalyzeSet, and digests it as answerDigest does.
func expectedDigest(path string, body []byte) (digest, error) {
	switch path {
	case "/v1/analyze":
		var w analyzeWire
		if err := decodeStrict(body, &w); err != nil {
			return digest{}, err
		}
		fn, err := w.Delay.Build(w.C)
		if err != nil {
			return digest{}, err
		}
		res, err := core.Analyze(nil, fn, w.Q, core.Options{Method: w.method()})
		if err != nil {
			return digest{}, err
		}
		return analyzeDigest(jsonNumber(res.TotalDelay), res.Preemptions, res.Diverged), nil
	case "/v1/analyzeset":
		var w analyzeSetWire
		if err := decodeStrict(body, &w); err != nil {
			return digest{}, err
		}
		prob, err := w.Spec.Build()
		if err != nil {
			return digest{}, err
		}
		res, err := eval.AnalyzeSet(nil, prob.Tasks, prob.Delay, eval.SweepOptions{Qs: w.qs()})
		if err != nil {
			return digest{}, err
		}
		want, err := json.Marshal(res)
		if err != nil {
			return digest{}, err
		}
		return sha256.Sum256(want), nil
	}
	return digest{}, fmt.Errorf("no check for %s", path)
}

// checkAnswers recomputes each kept answer directly and compares it bit for
// bit; a mismatch is a failed operation and makes the run incorrect.
func checkAnswers(rep *report, in *serveInputs, ks []kept) {
	var b bytes.Buffer
	for _, k := range ks {
		b.Reset()
		path, err := in.body(k.req, &b)
		if err == nil && k.err != nil {
			err = k.err
		}
		var want digest
		if err == nil {
			want, err = expectedDigest(path, b.Bytes())
		}
		if err == nil && want != k.answer {
			err = fmt.Errorf("%s answer differs from a direct computation on the same inputs", path)
		}
		if err != nil {
			rep.wrong(err)
		}
	}
}

// sameJSON reports whether got, once compacted, is byte-identical to want.
func sameJSON(got, want []byte) error {
	var c bytes.Buffer
	if err := json.Compact(&c, got); err != nil {
		return err
	}
	if !bytes.Equal(c.Bytes(), want) {
		return fmt.Errorf("%d bytes vs %d expected", c.Len(), len(want))
	}
	return nil
}

// checkTable decodes a campaign job's result table and runs the campaign's
// invariant checks on it.
func checkTable(raw json.RawMessage, checks func(*textplot.Table) error) error {
	var tbl textplot.Table
	if err := json.Unmarshal(raw, &tbl); err != nil {
		return fmt.Errorf("campaign table: %w", err)
	}
	if err := tbl.Validate(); err != nil {
		return err
	}
	return checks(&tbl)
}
