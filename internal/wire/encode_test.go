package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// doc is a JSON document the differential tests write twice: through a
// Writer, and as the equivalent Go value through encoding/json.
type doc struct {
	kind  byte // 'o' object, 'a' array, 'n' nil array, 'f' float, 'i' int, 'b' bool, 's' string
	f     float64
	i     int64
	b     bool
	s     string
	keys  []string // object keys, sorted and distinct
	elems []doc
}

// write writes d through w.
func (d doc) write(w *Writer) {
	switch d.kind {
	case 'o':
		w.BeginObject()
		for k, key := range d.keys {
			w.Key(key)
			d.elems[k].write(w)
		}
		w.EndObject()
	case 'a', 'n':
		Array(w, d.elems, func(w *Writer, e doc) { e.write(w) })
	case 'f':
		w.Float(d.f)
	case 'i':
		w.Int64(d.i)
	case 'b':
		w.Bool(d.b)
	case 's':
		w.String(d.s)
	}
}

// value is d as the Go value encoding/json writes the same way: a map for an
// object (encoding/json sorts its keys), a nil or non-nil slice for an array,
// and the wire strings for the non-finite floats encoding/json refuses.
func (d doc) value() any {
	switch d.kind {
	case 'o':
		m := make(map[string]any, len(d.keys))
		for k, key := range d.keys {
			m[key] = d.elems[k].value()
		}
		return m
	case 'a', 'n':
		if d.elems == nil {
			return []any(nil)
		}
		s := make([]any, len(d.elems))
		for k, e := range d.elems {
			s[k] = e.value()
		}
		return s
	case 'f':
		switch {
		case math.IsNaN(d.f):
			return "NaN"
		case math.IsInf(d.f, 1):
			return "+Inf"
		case math.IsInf(d.f, -1):
			return "-Inf"
		}
		return d.f
	case 'i':
		return d.i
	case 'b':
		return d.b
	default:
		return d.s
	}
}

// checkDoc writes d in both forms and compares each with encoding/json's.
func checkDoc(t *testing.T, d doc) {
	t.Helper()
	v := d.value()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var w Writer
	d.write(&w)
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("compact:\n got  %q\n want %q", w.Bytes(), want)
	}
	var ind bytes.Buffer
	enc := json.NewEncoder(&ind)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	w.Reset(true)
	d.write(&w)
	if got := append(w.Bytes(), '\n'); !bytes.Equal(got, ind.Bytes()) {
		t.Fatalf("indented:\n got  %q\n want %q", got, ind.Bytes())
	}
}

// edgeFloats are the values where encoding/json's number form changes or
// strconv's shortest digits are hardest.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, math.Nextafter(1e-6, 0), 1e-7, -1e-7, 1.5e-9,
	1e21, math.Nextafter(1e21, 0), 1e20, -1e21, 1e22, 123456789e13, 1e-10, 1e-100, 1e100,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308,
	math.MaxFloat64, -math.MaxFloat64, 1 << 53, 1<<53 + 2, 5e-324, 9007199254740993,
	0.30000000000000004, 6.6000000000000005, 12.345678901234567,
	1<<53 - 1, -(1<<53 - 1), -(1 << 53), 1<<53 + 1, 1 << 54, 1e15, 1e16, 1e17, 123456789012345678,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// edgeStrings cover every escape class: the short escapes, other control
// bytes, the HTML-special bytes, DEL, U+2028/2029, other non-ASCII, and
// invalid UTF-8 (a stray continuation byte, a truncated sequence, an
// overlong encoding, a surrogate half).
var edgeStrings = []string{
	"", "plain", "\"quoted\" \\ back", "\b\f\n\r\t", "\x00\x01\x1f", "<a&b>", "\x7f",
	"\u2028\u2029", "naïve ζ 日本 🎉", "\xff", "a\x80b", "\xe2\x80", "\xc0\xaf", "\xed\xa0\x80",
	"ok\u2027\u202a", "\ufffd", "</script>",
}

func TestWriterMatchesEncodingJSON(t *testing.T) {
	t.Run("floats", func(t *testing.T) {
		for _, f := range edgeFloats {
			checkDoc(t, doc{kind: 'f', f: f})
		}
		rng := rand.New(rand.NewSource(1))
		for n := 0; n < 20000; n++ {
			checkDoc(t, doc{kind: 'f', f: math.Float64frombits(rng.Uint64())})
			checkDoc(t, doc{kind: 'f', f: rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))})
			// Integers up to and past 2^53, where the writer's integer form
			// stops.
			checkDoc(t, doc{kind: 'f', f: float64(rng.Int63n(1<<(1+rng.Intn(62))) - 1<<(rng.Intn(62)))})
			checkDoc(t, doc{kind: 'f', f: -float64(rng.Int63n(1 << 54))})
		}
	})
	t.Run("strings", func(t *testing.T) {
		for _, s := range edgeStrings {
			checkDoc(t, doc{kind: 's', s: s})
			checkDoc(t, doc{kind: 'o', keys: []string{s}, elems: []doc{{kind: 's', s: s}}})
		}
		rng := rand.New(rand.NewSource(2))
		for n := 0; n < 20000; n++ {
			b := make([]byte, rng.Intn(12))
			for k := range b {
				b[k] = byte(rng.Intn(256))
			}
			checkDoc(t, doc{kind: 's', s: string(b)})
		}
	})
	t.Run("ints-bools", func(t *testing.T) {
		for _, i := range []int64{0, -1, 1, math.MaxInt64, math.MinInt64} {
			checkDoc(t, doc{kind: 'i', i: i})
		}
		checkDoc(t, doc{kind: 'b', b: true})
		checkDoc(t, doc{kind: 'b'})
	})
	t.Run("containers", func(t *testing.T) {
		checkDoc(t, doc{kind: 'n'})
		checkDoc(t, doc{kind: 'a', elems: []doc{}})
		checkDoc(t, doc{kind: 'o'})
		checkDoc(t, doc{kind: 'a', elems: []doc{{kind: 'n'}, {kind: 'a', elems: []doc{}}, {kind: 'o'}}})
		checkDoc(t, doc{kind: 'o', keys: []string{"a", "b"}, elems: []doc{{kind: 'o'}, {kind: 'a', elems: []doc{{kind: 'i', i: 1}}}}})
		var deep doc = doc{kind: 'i', i: 7}
		for n := 0; n < 40; n++ { // deeper than the indentation the writer keeps
			deep = doc{kind: 'a', elems: []doc{deep, {kind: 'o'}}}
		}
		checkDoc(t, deep)
		rng := rand.New(rand.NewSource(3))
		for n := 0; n < 3000; n++ {
			checkDoc(t, randomDoc(rng, 4))
		}
	})
	t.Run("floats-array", func(t *testing.T) {
		for _, vs := range [][]float64{nil, {}, {1, 2.5}, edgeFloats[:len(edgeFloats)-3]} {
			for _, indent := range []bool{false, true} {
				var w Writer
				w.Reset(indent)
				w.Floats(vs)
				var want []byte
				if indent {
					want, _ = json.MarshalIndent(vs, "", "  ")
				} else {
					want, _ = json.Marshal(vs)
				}
				if !bytes.Equal(w.Bytes(), want) {
					t.Fatalf("Floats(%v) indent=%v:\n got  %q\n want %q", vs, indent, w.Bytes(), want)
				}
			}
		}
	})
}

// randomDoc draws a document of at most the given depth.
func randomDoc(rng *rand.Rand, depth int) doc {
	kinds := "fibsoan"
	if depth == 0 {
		kinds = "fibs"
	}
	switch k := kinds[rng.Intn(len(kinds))]; k {
	case 'f':
		if rng.Intn(3) == 0 {
			return doc{kind: k, f: edgeFloats[rng.Intn(len(edgeFloats))]}
		}
		return doc{kind: k, f: rng.ExpFloat64() * 10}
	case 'i':
		return doc{kind: k, i: rng.Int63n(2000) - 1000}
	case 'b':
		return doc{kind: k, b: rng.Intn(2) == 0}
	case 's':
		return doc{kind: k, s: edgeStrings[rng.Intn(len(edgeStrings))]}
	case 'o':
		set := map[string]bool{}
		for n := rng.Intn(4); n > 0; n-- {
			set[edgeStrings[rng.Intn(len(edgeStrings))]] = true
		}
		d := doc{kind: k, keys: []string{}}
		for key := range set {
			d.keys = append(d.keys, key)
		}
		sort.Strings(d.keys)
		for range d.keys {
			d.elems = append(d.elems, randomDoc(rng, depth-1))
		}
		return d
	case 'a':
		d := doc{kind: k, elems: []doc{}}
		for n := rng.Intn(4); n > 0; n-- {
			d.elems = append(d.elems, randomDoc(rng, depth-1))
		}
		return d
	default:
		return doc{kind: 'n'}
	}
}

// fuzzDoc builds a document from fuzz bytes: each node takes a kind byte and
// then its payload (8 bytes of float or int bits, a length-prefixed string,
// a member or element count).
type fuzzDoc struct{ data []byte }

func (fz *fuzzDoc) byte() byte {
	if len(fz.data) == 0 {
		return 0
	}
	b := fz.data[0]
	fz.data = fz.data[1:]
	return b
}

func (fz *fuzzDoc) word() uint64 {
	var b [8]byte
	n := copy(b[:], fz.data)
	fz.data = fz.data[n:]
	return binary.LittleEndian.Uint64(b[:])
}

func (fz *fuzzDoc) str() string {
	n := min(int(fz.byte()%32), len(fz.data))
	s := string(fz.data[:n])
	fz.data = fz.data[n:]
	return s
}

func (fz *fuzzDoc) node(depth int) doc {
	switch k := fz.byte() % 7; {
	case k == 0 || depth == 0 && k >= 4:
		return doc{kind: 'f', f: math.Float64frombits(fz.word())}
	case k == 1:
		return doc{kind: 'i', i: int64(fz.word())}
	case k == 2:
		return doc{kind: 'b', b: fz.byte()&1 == 1}
	case k == 3:
		return doc{kind: 's', s: fz.str()}
	case k == 4:
		n := int(fz.byte() % 5)
		set := map[string]doc{}
		for ; n > 0; n-- {
			key := fz.str()
			set[key] = fz.node(depth - 1)
		}
		d := doc{kind: 'o', keys: []string{}}
		for key := range set {
			d.keys = append(d.keys, key)
		}
		sort.Strings(d.keys)
		for _, key := range d.keys {
			d.elems = append(d.elems, set[key])
		}
		return d
	case k == 5:
		d := doc{kind: 'a', elems: []doc{}}
		for n := int(fz.byte() % 5); n > 0; n-- {
			d.elems = append(d.elems, fz.node(depth-1))
		}
		return d
	default:
		return doc{kind: 'n'}
	}
}

// FuzzWriter checks the Writer against encoding/json, compact and indented,
// on documents built from arbitrary bytes.
func FuzzWriter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0})
	f.Add([]byte("\x03\x0a<a&b>\xe2\x80\xa8\xff"))
	f.Add([]byte("\x04\x02\x01k\x00\x01\x02\x00\x05\x00\x06"))
	f.Add(append([]byte{5, 3, 0}, append(binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e-7)),
		append([]byte{0}, binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e21))...)...)...))
	f.Add([]byte(strings.Repeat("\x05\x01", 12) + "\x03\x05\x1f\x7f\t\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fz := &fuzzDoc{data: data}
		checkDoc(t, fz.node(6))
	})
}
