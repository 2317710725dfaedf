package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

type inner struct {
	Name string `json:"name"`
}

type toy struct {
	F  float64   `json:"f"`
	I  int       `json:"i"`
	I6 int64     `json:"i6"`
	B  bool      `json:"b"`
	S  string    `json:"s"`
	Fs []float64 `json:"fs"`
	P  *inner    `json:"p"`
	In []inner   `json:"in"`
}

var innerFields = Fields[inner]{
	{Name: "name", Read: func(r *Reader, v *inner) { r.String(&v.Name) }},
}

var toyFields = Fields[toy]{
	{Name: "f", Read: func(r *Reader, v *toy) { r.Float(&v.F) }},
	{Name: "i", Read: func(r *Reader, v *toy) { r.Int(&v.I) }},
	{Name: "i6", Read: func(r *Reader, v *toy) { r.Int64(&v.I6) }},
	{Name: "b", Read: func(r *Reader, v *toy) { r.Bool(&v.B) }},
	{Name: "s", Read: func(r *Reader, v *toy) { r.String(&v.S) }},
	{Name: "fs", Read: func(r *Reader, v *toy) { r.Floats(&v.Fs) }},
	{Name: "p", Read: func(r *Reader, v *toy) { innerFields.ReadPtr(r, &v.P) }},
	{Name: "in", Read: func(r *Reader, v *toy) { Slice(r, &v.In, innerFields.Read) }},
}

// base is the value every case decodes over; its slice has spare capacity
// so the reuse rules show.
func base() toy {
	return toy{F: 7, I: 7, S: "old", Fs: append(make([]float64, 0, 4), 1, 2), P: &inner{"old"}}
}

// TestDecodeMatchesEncodingJSON decodes each input with Decode and with
// encoding/json's strict Decoder: both accept with equal values or both
// reject.
func TestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, in := range []string{
		`{"f":1.5,"i":-3,"i6":9007199254740993,"b":true,"s":"x y","fs":[1,2.5e-3,-0],"p":{"name":"n"},"in":[{"name":"a"},{}]}`,
		`{"F":1,"I":2,"S":"k","FS":[3],"P":null,"IN":null}`, "{\"\u017f\":\"long s\"}", `{"f":2}`,
		`{"f":null,"i":null,"i6":null,"b":null,"s":null,"fs":null,"p":null,"in":null}`,
		`{"fs":[null,null,null,null,null,6]}`, `{"fs":[]}`, `{"in":[null,{"name":"b"}]}`, `{"p":{}}`,
		`{"f":-0}`, `{"f":1e400}`, `{"f":1e-400}`, `{"f":0.1e+2}`, `{"f":1E2}`, `{"f":01}`, `{"f":1.}`,
		`{"f":.1}`, `{"f":-}`, `{"f":+1}`, `{"f":1e}`, `{"f":1e+}`, `{"f":"1"}`, `{"f":true}`, `{"f":[1]}`,
		`{"i":1.0}`, `{"i":1e3}`, `{"i":-0}`, `{"i":9223372036854775807}`, `{"i":9223372036854775808}`,
		`{"i6":-9223372036854775808}`, `{"b":1}`, `{"b":tru}`, `{"b":false}`, `{"s":1}`,
		"{\"s\":\"a\\\"b\\\\c\\/d\u00e9\\n\"}", "{\"s\":\"\xff\"}", "{\"s\":\"\x01\"}", `{"s":"\x"}`, `{"s":"\ud800"}`,
		"{\"s\":\"\x7f\"}", `{"s":"abc`, `{"fs":[1,]}`, `{"fs":[1 2]}`, `{"fs":[,]}`, `{"fs":{}}`,
		`{"in":[1]}`, `{"in":{}}`, `{"p":[]}`, `{"p":5}`, `{"zz":1}`, `{"":1}`, `{"f":1,}`, `{"f" 1}`,
		`{f:1}`, "", "  ", "null", "nullx", "nul", "[]", "5", `"s"`, "{}", "{} tail", "\xef\xbb\xbf{}",
		"{", `{"f":1`, " \t\r\n{ \"f\" : 1 , \"i\" : 2 }",
	} {
		want, got := base(), base()
		dec := json.NewDecoder(strings.NewReader(in))
		dec.DisallowUnknownFields()
		wantErr := dec.Decode(&want)
		err := Decode([]byte(in), &got, toyFields)
		if (wantErr == nil) != (err == nil) {
			t.Errorf("%q: encoding/json error %v, wire error %v", in, wantErr, err)
			continue
		}
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(got)
		if err == nil && !bytes.Equal(wb, gb) {
			t.Errorf("%q: decoded %s, want %s", in, gb, wb)
		}
	}
}

// TestRepeatedField is the one departure from encoding/json: a key matching
// a field already read in the same object is an error.
func TestRepeatedField(t *testing.T) {
	for _, in := range []string{`{"f":1,"f":2}`, `{"f":1,"F":2}`, `{"in":[{"name":"a","NAME":"b"}]}`} {
		var v toy
		err := Decode([]byte(in), &v, toyFields)
		var we *Error
		if !errors.As(err, &we) || !strings.Contains(we.Msg, "repeated field") {
			t.Errorf("%q: error %v, want a repeated-field error", in, err)
		}
	}
	var v toy
	if err := Decode([]byte(`{"in":[{"name":"a"},{"name":"b"}]}`), &v, toyFields); err != nil {
		t.Fatalf("one key per object: %v", err)
	}
}

// TestErrorOffset reports where decoding stopped.
func TestErrorOffset(t *testing.T) {
	var v toy
	err := Decode([]byte(`{"f":1, "zz":2}`), &v, toyFields)
	var we *Error
	if !errors.As(err, &we) || we.Offset != 8 || !strings.Contains(err.Error(), `unknown field "zz"`) {
		t.Fatalf("error %v, want unknown field \"zz\" at offset 8", err)
	}
}
