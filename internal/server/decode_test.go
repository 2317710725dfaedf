package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"fnpr/internal/spec"
	"fnpr/internal/wire"
)

// The request decoders are held to encoding/json's Decoder with
// DisallowUnknownFields, the decoder they replaced, as an oracle: whatever
// the oracle rejects they reject, whatever it accepts they decode to the
// same value, and a key matching a field already set in the same object is
// rejected where the oracle would merge.

// oracleDecode decodes data into v as the service did before package wire.
func oracleDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// checkDecoder decodes data through fields and through the oracle, both
// over a value made by fresh, and fails t where they disagree.
func checkDecoder[T any](t *testing.T, data []byte, fresh func() T, fields wire.Fields[T]) {
	t.Helper()
	want, got := fresh(), fresh()
	oracleErr := oracleDecode(data, &want)
	err := decodeBody(data, &got, fields)
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
}

// repeatedKey reports whether an object in the first JSON value of data
// holds two keys that match the same field, that is, keys equal under
// strings.EqualFold. data must hold a valid first value.
func repeatedKey(data []byte) bool {
	type frame struct {
		obj, wantKey bool
		keys         []string
	}
	dec := json.NewDecoder(bytes.NewReader(data))
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

// bulkCurve is a serve-bulk-shaped delay curve: an n-piece step function
// over [0, 10000] with values in [0, 15).
func bulkCurve(rng *rand.Rand, n int, c float64) *spec.Delay {
	xs := make([]float64, n+1)
	vs := make([]float64, n)
	for i := range vs {
		xs[i] = c * float64(i) / float64(n) * (1 + 0.3*rng.Float64()/float64(n))
		vs[i] = 15 * rng.Float64()
	}
	xs[n] = c
	return &spec.Delay{Kind: "piecewise", Breakpoints: xs, Values: vs}
}

// bulkAnalyzeBody is a serve-bulk /v1/analyze body with an n-piece curve.
func bulkAnalyzeBody(n int) []byte {
	rng := rand.New(rand.NewSource(int64(n)))
	b, err := json.Marshal(analyzeRequest{Delay: bulkCurve(rng, n, 10000), C: 10000, Q: 20 + 380*rng.Float64()})
	if err != nil {
		panic(err)
	}
	return b
}

// bulkSetBody is a serve-bulk /v1/analyzeset body: four tasks, each with an
// n-piece curve.
func bulkSetBody(n int) []byte {
	rng := rand.New(rand.NewSource(int64(n)))
	var f spec.File
	f.Policy = "fp"
	for i, c := range []float64{4000, 6000, 8000, 10000} {
		f.Tasks = append(f.Tasks, spec.Task{Name: fmt.Sprintf("t%d", i), C: c, T: 10 * c, Prio: i + 1,
			Delay: bulkCurve(rng, n, c)})
	}
	b, err := json.Marshal(analyzeSetRequest{Spec: f})
	if err != nil {
		panic(err)
	}
	return b
}

// commonSeeds are bodies every decoder must handle: degenerate documents,
// broken syntax and encodings, and trailing bytes.
var commonSeeds = []string{
	"", " ", "null", " null ", "nullx", "[]", "5", `"s"`, "true", "{}", " {} ",
	"{} trailing bytes", "{}{}", "\xef\xbb\xbf{}", "{", "{\"", `{"`, `{"c"`, `{"c":`, `{"c":1`,
	`{"c":1,}`, `{,}`, `{"c" 1}`, `{c:1}`, `{'c':1}`, "{\"\xff\":1}", `{"":1}`, `{"bogus":1}`,
	`{"c":1}]`, "\x00", "{\"c\":\"\x01\"}", `{"c":nul}`, `{"c":tru}`, `{"c":-}`, `{"c":1.}`,
	`{"c":.5}`, `{"c":1e}`, `{"c":+1}`, `{"c":0x10}`, `{"c":NaN}`, `{"c":Infinity}`,
}

var analyzeSeeds = []string{
	`{"delay":{"kind":"frontloaded","peak":3,"tail":0.5},"c":40,"q":15}`,
	`{"delay":{"kind":"constant","value":2},"c":40,"q":15,"method":"equation4","limited":true,"max_preemptions":3}`,
	`{"delay":{"kind":"gaussian","amp":3,"mu":400,"sigma2":2e4,"offset":0.2,"pieces":1000},"c":1000,"q":20}`,
	`{"delay":{"kind":"linear","breakpoints":[0,20,40],"values":[1,3,0]},"c":40,"q":15}`,
	`{"DELAY":{"KIND":"constant","Value":2},"C":40,"Q":15}`,
	`{"Delay":{"Kind":"constant","value":2},"c":40,"q":15}`,
	`{"delay":{"kind":"constant","value":2},"DELAY":{"kind":"constant","value":3},"c":40,"q":15}`,
	`{"delay":{"kind":"constant","value":2,"Value":3},"c":40,"q":15}`,
	`{"c":40,"c":41,"q":15}`,
	`{"delay":null,"c":null,"q":null,"method":null,"limited":null,"max_preemptions":null}`,
	`{"delay":{"kind":null,"value":null,"peak":null,"tail":null,"breakpoints":null,"values":null,"amp":null,"mu":null,"sigma2":null,"offset":null,"pieces":null}}`,
	`{"delay":{"kind":"piecewise","breakpoints":[0,null,40],"values":[null,2]},"c":40,"q":15}`,
	`{"delay":{"kind":"piecewise","breakpoints":[],"values":[]},"c":40,"q":15}`,
	`{"delay":{"kind":"constant","value":-0},"c":-0,"q":-0}`,
	`{"delay":{"kind":"constant","value":1e400},"c":40,"q":15}`,
	`{"c":1e-400,"q":-1e400}`,
	`{"delay":{"kind":"gaussian","sigma2":1,"pieces":1.0},"c":40,"q":15}`,
	`{"delay":{"kind":"gaussian","sigma2":1,"pieces":1e3},"c":40,"q":15}`,
	`{"delay":{"kind":"gaussian","amp":3,"mu":20,"sigma2":4,"pieces":4611686018427387904},"c":40,"q":15}`,
	`{"delay":{"kind":"gaussian","amp":3,"mu":20,"sigma2":4,"pieces":20000000},"c":40,"q":15}`,
	`{"max_preemptions":9223372036854775808}`,
	`{"max_preemptions":-9223372036854775808}`,
	`{"c":040,"q":15}`, `{"c":00}`, `{"c":-01}`,
	`{"c":"40"}`, `{"limited":1}`, `{"method":5}`, `{"delay":5}`, `{"delay":[]}`, `{"delay":"constant"}`,
	"{\"method\":\"equation\xff\"}", `{"method":"equation4"}`, `{"method":"\ud800"}`, `{"method":"a\"b\\c"}`,
	`{"method":"\x"}`, "{\"method\":\"tab\there\"}", `{"c":40}`, "{\"\u212aind\":1}",
	"{\"delay\":{\"\u212aind\":\"constant\",\"value\":2},\"c\":40,\"q\":15}",
	"{\"delay\":{\"\u212aind\":\"constant\",\"kind\":\"linear\"}}",
	`{"delay":{"\u212aind":"constant","value":2},"c":40,"q":15}`, `{"\u0064elay":{"kind":"constant"},"c":40}`,
	`{"delay":{"kind":"constant","value":2},"c":40,"q":15} {"c":1}`,
	`{"delay":{"kind":"constant","value":2},"c":40,"q":15}garbage`,
}

var analyzeSetSeeds = []string{
	`{"spec":{"policy":"fp","tasks":[{"name":"a","c":2,"t":10,"q":1,"prio":1,"delay":{"kind":"constant","value":0.5}},{"name":"b","c":4,"t":20,"prio":2}]},"qs":[1,2],"delta":false}`,
	`{"spec":{"policy":"edf","assign_q":true,"tasks":[{"name":"a","c":2,"t":10,"d":8,"jitter":1}]}}`,
	`{"SPEC":{"Policy":"fp","TASKS":[{"NAME":"a","C":2,"T":10}]},"QS":[3]}`,
	`{"spec":{"policy":"fp","tasks":[]},"spec":{"policy":"edf"}}`,
	`{"spec":{"policy":"fp","tasks":[{"c":2,"C":3,"t":10}]}}`,
	`{"spec":null,"qs":null,"delta":null}`,
	`{"spec":{"policy":null,"assign_q":null,"tasks":null}}`,
	`{"spec":{"policy":"fp","tasks":[null,{"name":"a","c":2,"t":10},null]}}`,
	`{"spec":{"policy":"fp","tasks":[{"name":null,"c":null,"t":null,"d":null,"q":null,"prio":null,"jitter":null,"delay":null}]}}`,
	`{"spec":{"policy":"fp","tasks":[{"name":"a","c":2,"t":10}]},"qs":[null,1,null]}`,
	`{"spec":{"policy":"fp","tasks":[{"name":"a","c":2,"t":10,"prio":1.0}]}}`,
	`{"spec":{"policy":"fp","tasks":[{"name":"a","c":2,"t":10,"prio":1e3}]}}`,
	`{"spec":{"policy":"fp","tasks":[{"name":"a","c":-0,"t":1e400}]}}`,
	`{"spec":{"policy":"fp","tasks":{"name":"a"}}}`, `{"spec":[]}`, `{"qs":[[1]]}`, `{"qs":1}`,
	`{"spec":{"policy":"fp","tasks":[{"name":"a","c":2,"t":10,"bogus":1}]}}`,
	`{"spec":{"policy":"fp","tasks":[{"name":"a","c":2,"t":10}]},"delta":true}`,
	`{"spec":{"policy":"fp","tasks":[{"name":"a","c":2,"t":10}]}}{"qs":[1]}`,
}

var campaignSeeds = []string{
	`{"seed":3,"sets_per_point":2,"tasks":3,"u_start":0.5,"u_end":0.6,"u_step":0.1,"delay_scale":0.1,"q_fraction":0.25,"workers":1}`,
	`{"sets_per_point":2,"journal":"a.journal","resume":true}`,
	`{"seed":3,"trials":2,"max_tasks":3,"horizon":100,"workers":1}`,
	`{"seed":3,"qs":[4,8],"funcs_per_cell":1,"c":20,"max_states":1000,"workers":1}`,
	`{"qs":[null,null,null,null,null,9],"funcs_per_cell":1}`, `{"qs":[null],"funcs_per_cell":1}`,
	`{"qs":[],"funcs_per_cell":1}`, `{"qs":null,"funcs_per_cell":1}`,
	`{"SEED":3,"Trials":2}`, `{"seed":3,"Seed":4}`, `{"trials":2,"TRIALS":3}`,
	`{"seed":null,"trials":null,"max_tasks":null,"horizon":null,"workers":null}`,
	`{"seed":null,"sets_per_point":null,"tasks":null,"u_start":null,"u_end":null,"u_step":null,"delay_scale":null,"q_fraction":null,"workers":null,"journal":null,"resume":null}`,
	`{"seed":1.0}`, `{"seed":1e3}`, `{"seed":-0}`, `{"seed":01}`, `{"horizon":1e400}`, `{"horizon":-0}`,
	`{"seed":9223372036854775807}`, `{"seed":9223372036854775808}`, `{"u_step":"0.1"}`, `{"resume":"true"}`,
	`{"journal":"../x"}`, "{\"journal\":\"\xff\"}", `{"trials":2,"bogus":1}`,
}

// addSeeds adds every body of every list to the fuzz corpus.
func addSeeds(f *testing.F, lists ...[]string) {
	for _, list := range lists {
		for _, s := range list {
			f.Add([]byte(s))
		}
	}
}

func FuzzDecodeAnalyze(f *testing.F) {
	addSeeds(f, commonSeeds, analyzeSeeds, []string{string(bulkAnalyzeBody(64))})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoder(t, data, func() analyzeRequest { return analyzeRequest{} }, analyzeFields)
	})
}

func FuzzDecodeAnalyzeSet(f *testing.F) {
	addSeeds(f, commonSeeds, analyzeSetSeeds, []string{string(bulkSetBody(16))})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoder(t, data, func() analyzeSetRequest { return analyzeSetRequest{} }, analyzeSetFields)
	})
}

// FuzzDecodeCampaign holds each input to all three campaign decoders.
func FuzzDecodeCampaign(f *testing.F) {
	addSeeds(f, commonSeeds, campaignSeeds)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoder(t, data, newAcceptanceRequest, acceptanceFields)
		checkDecoder(t, data, newMonteCarloRequest, monteCarloFields)
		checkDecoder(t, data, newAtlasRequest, atlasFields)
	})
}

// sampleJSON is a JSON value for a field of type t that differs from every
// request default: nested structs get a sample for each of their fields.
func sampleJSON(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Float64:
		return "1234.5"
	case reflect.Int, reflect.Int64:
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
			if name := jsonName(t.Field(i)); name != "" {
				parts = append(parts, fmt.Sprintf("%q:%s", name, sampleJSON(t.Field(i).Type)))
			}
		}
		return "{" + strings.Join(parts, ",") + "}"
	}
	panic("sampleJSON: no sample for " + t.String())
}

// jsonName is the JSON member name of a struct field.
func jsonName(f reflect.StructField) string {
	name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	return name
}

// checkFieldTable decodes {"<name>": sample} for every JSON member of T
// through fields and through the oracle. Both must accept, agree, and
// differ from the decoded {}: a field missing from the table, or reading
// into the wrong field, fails.
func checkFieldTable[T any](t *testing.T, fresh func() T, fields wire.Fields[T]) {
	typ := reflect.TypeOf(fresh())
	empty := fresh()
	emptyJSON, _ := json.Marshal(empty)
	if typ.NumField() != len(fields) {
		t.Errorf("%s: %d fields, %d in the wire table", typ, typ.NumField(), len(fields))
	}
	for i := 0; i < typ.NumField(); i++ {
		name := jsonName(typ.Field(i))
		body := []byte(fmt.Sprintf("{%q:%s}", name, sampleJSON(typ.Field(i).Type)))
		want, got := fresh(), fresh()
		if err := oracleDecode(body, &want); err != nil {
			t.Fatalf("%s: oracle: %v", body, err)
		}
		if err := decodeBody(body, &got, fields); err != nil {
			t.Errorf("%s.%s: %v", typ, typ.Field(i).Name, err)
			continue
		}
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(got)
		if !bytes.Equal(wb, gb) || bytes.Equal(gb, emptyJSON) {
			t.Errorf("%s: decoded %s, want %s", body, gb, wb)
		}
	}
}

func TestWireFieldTables(t *testing.T) {
	checkFieldTable(t, func() analyzeRequest { return analyzeRequest{} }, analyzeFields)
	checkFieldTable(t, func() analyzeSetRequest { return analyzeSetRequest{} }, analyzeSetFields)
	checkFieldTable(t, newAcceptanceRequest, acceptanceFields)
	checkFieldTable(t, newMonteCarloRequest, monteCarloFields)
	checkFieldTable(t, newAtlasRequest, atlasFields)
}

// postRaw posts body to url as it stands and decodes the JSON answer.
func postRaw(t *testing.T, url string, body []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s %q: status %d, answer not JSON: %v", url, body, resp.StatusCode, err)
	}
	return resp.StatusCode, out
}

var postRoutes = []string{
	"/v1/analyze", "/v1/analyzeset",
	"/v1/campaign/acceptance", "/v1/campaign/montecarlo", "/v1/campaign/atlas",
}

// TestHostileBodies posts every fuzz seed to every POST route through the
// real server: each answer is a 2xx or a typed 4xx, never a 500.
func TestHostileBodies(t *testing.T) {
	_, base := newTestServer(t, func(c *Config) {
		// Campaigns the seeds do start fail fast on the budget.
		c.CampaignBudget = 1000
		c.Workers = 1
	})
	var seeds []string
	for _, list := range [][]string{commonSeeds, analyzeSeeds, analyzeSetSeeds, campaignSeeds} {
		seeds = append(seeds, list...)
	}
	for _, route := range postRoutes {
		for _, body := range seeds {
			st, v := postRaw(t, base+route, []byte(body))
			switch {
			case st >= 200 && st < 300:
			case st >= 400 && st < 500:
				if code, _ := v["code"].(string); code == "" || code == "panic" {
					t.Errorf("POST %s %q: %d without a typed code: %v", route, body, st, v)
				}
			default:
				t.Errorf("POST %s %q: status %d: %v", route, body, st, v)
			}
		}
	}
}

// padTo pads a JSON object with spaces before its closing brace to n bytes.
func padTo(obj string, n int) []byte {
	b := []byte(obj[:len(obj)-1])
	b = append(b, bytes.Repeat([]byte(" "), n-len(obj))...)
	return append(b, '}')
}

// TestBodyLimit accepts a valid body of exactly 1 MiB and refuses one byte
// more with a 400 naming the limit, on a synchronous and a campaign route.
func TestBodyLimit(t *testing.T) {
	_, base := newTestServer(t, nil)
	for _, c := range []struct{ route, body string }{
		{"/v1/analyze", `{"delay":{"kind":"constant","value":1},"c":40,"q":15}`},
		{"/v1/campaign/montecarlo", `{"trials":2,"max_tasks":2,"horizon":50}`},
	} {
		if st, v := postRaw(t, base+c.route, padTo(c.body, maxBody)); st != http.StatusOK && st != http.StatusAccepted {
			t.Errorf("%s, 1 MiB body: status %d: %v", c.route, st, v)
		}
		st, v := postRaw(t, base+c.route, padTo(c.body, maxBody+1))
		if msg, _ := v["error"].(string); st != http.StatusBadRequest || v["code"] != "invalid" || !strings.Contains(msg, "1 MiB") {
			t.Errorf("%s, 1 MiB + 1 body: status %d: %v", c.route, st, v)
		}
	}
}

// sink keeps the benchmark's decoded requests alive.
var sink analyzeRequest

// BenchmarkDecodeRequest reads and decodes serve-bulk-shaped /v1/analyze
// bodies from an http.Request, through the wire table and through the
// encoding/json path it replaced.
func BenchmarkDecodeRequest(b *testing.B) {
	for _, n := range []int{2048, 4096, 8192} {
		body := bulkAnalyzeBody(n)
		impls := []struct {
			name   string
			decode func(r *http.Request) (analyzeRequest, error)
		}{
			{"wire", func(r *http.Request) (analyzeRequest, error) {
				var req analyzeRequest
				data, err := readBody(r)
				if err == nil {
					err = decodeBody(data, &req, analyzeFields)
				}
				return req, err
			}},
			{"encoding-json", func(r *http.Request) (analyzeRequest, error) {
				var req analyzeRequest
				dec := json.NewDecoder(io.LimitReader(r.Body, maxBody))
				dec.DisallowUnknownFields()
				return req, dec.Decode(&req)
			}},
		}
		for _, impl := range impls {
			b.Run(fmt.Sprintf("pieces=%d/impl=%s", n, impl.name), func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				rd := bytes.NewReader(body)
				req := &http.Request{Body: io.NopCloser(rd), ContentLength: int64(len(body))}
				for i := 0; i < b.N; i++ {
					rd.Reset(body)
					v, err := impl.decode(req)
					if err != nil {
						b.Fatal(err)
					}
					sink = v
				}
			})
		}
	}
}
