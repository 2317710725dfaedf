package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fnpr/internal/wire"
)

// The spec decoder is held to encoding/json's Decoder with
// DisallowUnknownFields, the decoder it replaced, as an oracle: whatever the
// oracle rejects it rejects, whatever the oracle accepts it decodes to the
// same File, and a key matching a field already set in the same object is
// rejected where the oracle would merge.

func oracleDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// repeatedKey reports whether an object in the first JSON value of data
// holds two keys equal under strings.EqualFold, that is, two keys matching
// the same field. data must hold a valid first value.
func repeatedKey(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	type frame struct {
		obj, wantKey bool
		keys         []string
	}
	var stack []*frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if n := len(stack); n > 0 && stack[n-1].obj {
			top := stack[n-1]
			if key, ok := tok.(string); ok && top.wantKey {
				for _, k := range top.keys {
					if strings.EqualFold(k, key) {
						return true
					}
				}
				top.keys = append(top.keys, key)
				top.wantKey = false
				continue
			}
			top.wantKey = true
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, &frame{obj: true, wantKey: true})
		case json.Delim('['):
			stack = append(stack, &frame{})
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			return false
		}
	}
}

var specSeeds = []string{
	sample,
	`{"policy":"edf","assign_q":true,"tasks":[{"name":"a","c":2,"t":10,"d":8,"q":1,"prio":1,"jitter":0.5,
	  "delay":{"kind":"gaussian","amp":3,"mu":4,"sigma2":2,"offset":0.1,"pieces":10}}]}`,
	`{"policy":"fp","tasks":[{"name":"a","c":40,"t":400,"delay":{"kind":"piecewise","breakpoints":[0,10,40],"values":[3,1]}}]}`,
	`{"POLICY":"fp","Tasks":[{"NAME":"a","C":2,"T":10,"Delay":{"KIND":"constant","VALUE":1}}]}`,
	`{"policy":"fp","tasks":[{"name":"a","c":2,"t":10,"delay":{"kind":"constant","Kind":"linear"}}]}`,
	`{"policy":"fp","tasks":[{"name":"a","c":2,"t":10,"delay":{"kind":"constant"},"DELAY":null}]}`,
	`{"policy":"fp","policy":"edf","tasks":[]}`,
	`{"policy":null,"assign_q":null,"tasks":null}`,
	`{"policy":"fp","tasks":[null,{"name":"a","c":2,"t":10},null]}`,
	`{"policy":"fp","tasks":[{"name":null,"c":null,"t":null,"d":null,"q":null,"prio":null,"jitter":null,"delay":null}]}`,
	`{"policy":"fp","tasks":[{"name":"a","c":2,"t":10,"delay":{"kind":null,"value":null,"peak":null,"tail":null,"breakpoints":null,"values":null,"amp":null,"mu":null,"sigma2":null,"offset":null,"pieces":null}}]}`,
	`{"policy":"fp","tasks":[{"name":"a","c":2,"t":10,"delay":{"kind":"piecewise","breakpoints":[0,null,2],"values":[null,1]}}]}`,
	`{"policy":"fp","tasks":[{"name":"a","c":-0,"t":1e400}]}`, `{"policy":"fp","tasks":[{"c":1e-400}]}`,
	`{"policy":"fp","tasks":[{"prio":1.0}]}`, `{"policy":"fp","tasks":[{"prio":1e3}]}`, `{"policy":"fp","tasks":[{"prio":01}]}`,
	`{"policy":"fp","tasks":[{"delay":{"pieces":9223372036854775808}}]}`,
	"{\"policy\":\"f\xffp\"}", "{\"policy\":\"\\u0066p\"}", `{"\u0070olicy":"fp"}`, `{"policy":"\ud800"}`,
	`{"policy":"fp","tasks":{}}`, `{"tasks":[[]]}`, `{"tasks":[5]}`, `{"assign_q":"true"}`, `{"bogus":1}`,
	"", " ", "null", "nullx", "[]", "5", "{}", "\xef\xbb\xbf{}", "{", `{"policy"`, `{"policy":"fp",}`,
	`{"policy":"fp"} trailing`, `{"policy":"fp"}{"policy":"edf"}`,
}

func FuzzDecodeSpec(f *testing.F) {
	for _, s := range specSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want, got File
		oracleErr := oracleDecode(data, &want)
		err := wire.Decode(data, &got, fileFields)
		switch {
		case oracleErr != nil:
			if err == nil {
				t.Fatalf("%q: oracle rejects (%v), wire accepts", data, oracleErr)
			}
		case repeatedKey(data):
			if err == nil {
				t.Fatalf("%q: repeated field accepted", data)
			}
		case err != nil:
			t.Fatalf("%q: oracle accepts, wire rejects: %v", data, err)
		default:
			wb, _ := json.Marshal(want)
			gb, _ := json.Marshal(got)
			if !bytes.Equal(wb, gb) {
				t.Fatalf("%q: decoded\n%s\nwant\n%s", data, gb, wb)
			}
		}
	})
}

// sampleJSON is a non-zero JSON value for a field of type t; a struct gets
// a sample for each of its fields.
func sampleJSON(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Float64:
		return "1234.5"
	case reflect.Int:
		return "4321"
	case reflect.String:
		return `"zq"`
	case reflect.Bool:
		return "true"
	case reflect.Pointer:
		return sampleJSON(t.Elem())
	case reflect.Slice:
		return "[" + sampleJSON(t.Elem()) + "," + sampleJSON(t.Elem()) + "]"
	case reflect.Struct:
		var parts []string
		for i := 0; i < t.NumField(); i++ {
			parts = append(parts, fmt.Sprintf("%q:%s", jsonName(t.Field(i)), sampleJSON(t.Field(i).Type)))
		}
		return "{" + strings.Join(parts, ",") + "}"
	}
	panic("sampleJSON: no sample for " + t.String())
}

func jsonName(f reflect.StructField) string {
	name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	return name
}

// checkFieldTable decodes {"<name>": sample} for every field of T through
// fields and through the oracle. Both must accept, agree, and set
// something: a field missing from the table, or read into the wrong field,
// fails.
func checkFieldTable[T any](t *testing.T, fields wire.Fields[T]) {
	typ := reflect.TypeOf(*new(T))
	if typ.NumField() != len(fields) {
		t.Errorf("%s: %d fields, %d in the wire table", typ, typ.NumField(), len(fields))
	}
	empty, _ := json.Marshal(*new(T))
	for i := 0; i < typ.NumField(); i++ {
		body := []byte(fmt.Sprintf("{%q:%s}", jsonName(typ.Field(i)), sampleJSON(typ.Field(i).Type)))
		var want, got T
		if err := oracleDecode(body, &want); err != nil {
			t.Fatalf("%s: oracle: %v", body, err)
		}
		if err := wire.Decode(body, &got, fields); err != nil {
			t.Errorf("%s.%s: %v", typ, typ.Field(i).Name, err)
			continue
		}
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(got)
		if !bytes.Equal(wb, gb) || bytes.Equal(gb, empty) {
			t.Errorf("%s: decoded %s, want %s", body, gb, wb)
		}
	}
}

func TestWireFieldTables(t *testing.T) {
	checkFieldTable(t, delayFields)
	checkFieldTable(t, taskFields)
	checkFieldTable(t, fileFields)
}
