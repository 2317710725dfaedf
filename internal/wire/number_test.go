package wire

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// oracleNumber is the number scanner Float used before it built the
// mantissa in the same pass: it checks the JSON number grammar and returns
// the token, with the same errors and offsets. It survives as the oracle of
// FuzzFloat and TestFloatMatchesOracle.
func oracleNumber(r *Reader) []byte {
	if r.null() || r.err != nil {
		return nil
	}
	digits := func(d []byte, i int) int {
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
		return i
	}
	d, i := r.data, r.off
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i)
	case i == r.off:
		r.unexpected("number")
		return nil
	default:
		r.off = i
		r.syntax("in number")
		return nil
	}
	if i < len(d) && d[i] == '.' {
		if i = digits(d, i+1); d[i-1] == '.' {
			r.off = i
			r.syntax("after decimal point in number")
			return nil
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if j := digits(d, i); j > i {
			i = j
		} else {
			r.off = i
			r.syntax("in exponent of number")
			return nil
		}
	}
	tok := d[r.off:i]
	r.off = i
	return tok
}

// oracleFloat is Float as it was: the grammar check, then
// strconv.ParseFloat on the whole token.
func oracleFloat(r *Reader, dst *float64) {
	tok := oracleNumber(r)
	if tok == nil {
		return
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		r.fail("number %s does not fit a float64", tok)
		return
	}
	*dst = f
}

// unset marks a destination Float has not written.
var unset = math.Float64frombits(0x7FF8_0000_DEAD_BEEF)

// compareFloat reads in with Float and with the oracle and returns a
// description of the first difference in acceptance, error text (which
// carries the offset), end offset or value bits, or "" when they agree.
func compareFloat(in []byte) string {
	got, want := &Reader{data: in}, &Reader{data: in}
	gf, wf := unset, unset
	got.Float(&gf)
	oracleFloat(want, &wf)
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	switch {
	case errText(got.err) != errText(want.err):
		return "error " + errText(got.err) + ", oracle " + errText(want.err)
	case got.off != want.off:
		return "end offset " + strconv.Itoa(got.off) + ", oracle " + strconv.Itoa(want.off)
	case math.Float64bits(gf) != math.Float64bits(wf):
		return "value " + strconv.FormatUint(math.Float64bits(gf), 16) + ", oracle " + strconv.FormatUint(math.Float64bits(wf), 16)
	}
	return ""
}

// FuzzFloat holds Float to the oracle on arbitrary bytes: the same
// acceptance, error text and offset, end offset and float64 bits.
func FuzzFloat(f *testing.F) {
	for _, s := range append(floatSyntaxSeeds, hardTokens()...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if diff := compareFloat(in); diff != "" {
			t.Fatalf("%q: %s", in, diff)
		}
	})
}

// floatSyntaxSeeds are inputs at each branch of the number grammar.
var floatSyntaxSeeds = []string{
	"", " ", "null", "nul", "nullx", "true", `"1"`, "[1]", "-", "--1", "-a", "+1", "01", "-01",
	"00.5", "1.", "1.e5", ".1", "1e", "1e+", "1e-", "1E+2", "1e+2x", "0x10", "1.5.5", "1..5",
	" \t\n1.25 ", "12345678,", "1234567.", "123456789012345678901234567890", "0.00000000e0",
}

// hardTokens lists the tokens of TestFloatHardCases.
func hardTokens() []string {
	var toks []string
	for _, c := range floatHardCases {
		toks = append(toks, c.tok)
	}
	return toks
}

// floatHardCases are tokens at the edges of the fast paths. fast is
// whether the scanner's decimal reading settles the value without
// strconv.ParseFloat: false for a truncated mantissa, an Eisel–Lemire
// refusal, overflow and subnormals.
var floatHardCases = []struct {
	tok  string
	fast bool
}{
	// 19, 20 and 25 significant digits: the 19th enters the mantissa, a
	// dropped non-zero digit truncates it, dropped zeros do not.
	{"1234567890123456789", true},
	{"12345678901234567891", false},
	{"12345678901234567890", true},
	{"1234567890123456789000000", true},
	{"1234567890123456789000001", false},
	{"1.234567890123456789012345", false},
	{"0.1234567890123456789000000", true},
	{"9999999999999999999", true},
	{"99999999999999999999", false},
	{"-0.0000000000123456789012345678901", false},
	// Classic rounding cases.
	{"9007199254740993", false},
	{"9007199254740992", true},
	{"1e23", true},
	{"8.98846567431158e307", true},
	{"1.7976931348623157e308", true},
	{"1.7976931348623159e308", false},
	{"2.2250738585072011e-308", false},
	{"2.2250738585072014e-308", true},
	{"4.9406564584124654e-324", false},
	{"2.4703282292062327e-324", false},
	{"2.4703282292062328e-324", false},
	{"0.1", true},
	{"0.3", true},
	{"123.456", true},
	{"1.0000000000000002", true},
	// Underflow reads 0; overflow is an error.
	{"1e-400", false},
	{"1e309", false},
	{"-1e309", false},
	{"1e99999999", false},
	// Zero in all spellings, and exponent and case forms.
	{"0", true},
	{"-0", true},
	{"-0.0", true},
	{"0e999", true},
	{"0.000e-5", true},
	{"1E+2", true},
	{"1e+0002", true},
	{"1e0000000000000000000001", true},
	// Exponent digits accumulate until the exponent reaches 10000, so ten
	// thousand digits can balance an exponent of five digits.
	{"1" + strings.Repeat("0", 10018) + "e-10000", true},
	{"0." + strings.Repeat("0", 10000) + "1e10001", true},
	{"0.0000000000000000000001234", true},
	{"12345678.12345678", true},
	{"0.12345678901234567", true},
	// The exact path's edges: mant below 2^52, 10^22 exact, and the
	// excess of a larger power moved into a mantissa of at most 10^15.
	{"4503599627370495e22", true},
	{"4503599627370496", true},
	{"4386022599814183e24", true},
	{"1e37", true},
	{"1e38", true},
	{"1e22", true},
	{"1e-22", true},
	{"123e-24", true},
	{"1000000000000000e22", true},
	{"1000000000000001e22", true},
}

// TestFloatHardCases pins Float on the hard cases bit for bit against
// strconv.ParseFloat, and pins which ones the fast paths settle.
func TestFloatHardCases(t *testing.T) {
	for _, c := range floatHardCases {
		want, werr := strconv.ParseFloat(c.tok, 64)
		r := &Reader{data: []byte(c.tok)}
		got := unset
		r.Float(&got)
		if werr != nil {
			if r.err == nil || !strings.Contains(r.err.Error(), "does not fit a float64") {
				t.Errorf("%s: error %v, want a does-not-fit error", c.tok, r.err)
			}
			continue
		}
		if r.err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: %v (%#x), error %v; strconv %v (%#x)", c.tok, got, math.Float64bits(got), r.err, want, math.Float64bits(want))
		}
		_, dec := (&Reader{data: []byte(c.tok)}).scanNumber()
		if f, ok := dec.float64(); ok != c.fast || ok && math.Float64bits(f) != math.Float64bits(want) {
			t.Errorf("%s: fast path %v (ok %v), want ok %v", c.tok, f, ok, c.fast)
		}
	}
}

// TestFloatMatchesOracle holds Float to the oracle on a million seeded
// tokens of four shapes, and requires the fast paths to settle most of
// them, so agreement is not only the fallback agreeing with itself.
func TestFloatMatchesOracle(t *testing.T) {
	const perShape = 1 << 18
	rng := rand.New(rand.NewSource(1))
	digits := func(b []byte, n int) []byte {
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				b = append(b, '0')
			} else {
				b = append(b, byte('0'+rng.Intn(10)))
			}
		}
		return b
	}
	shapes := []struct {
		name string
		gen  func(b []byte) []byte
	}{
		{"format-random-bits", func(b []byte) []byte {
			f := math.Float64frombits(rng.Uint64())
			if math.IsNaN(f) || math.IsInf(f, 0) {
				f = 0
			}
			return strconv.AppendFloat(b, f, "eg"[rng.Intn(2)], rng.Intn(26)-1, 64)
		}},
		{"magnitudes-1e20", func(b []byte) []byte {
			f := rng.Float64() * math.Pow(10, float64(rng.Intn(41)-20))
			if rng.Intn(2) == 0 {
				f = -f
			}
			return strconv.AppendFloat(b, f, "efg"[rng.Intn(3)], rng.Intn(21)-1, 64)
		}},
		{"digit-strings", func(b []byte) []byte {
			if rng.Intn(2) == 0 {
				b = append(b, '-')
			}
			if n := rng.Intn(26); n == 0 {
				b = append(b, '0')
			} else {
				b = append(b, byte('1'+rng.Intn(9)))
				b = digits(b, n-1)
			}
			if rng.Intn(2) == 0 {
				b = digits(append(b, '.'), 1+rng.Intn(25))
			}
			if rng.Intn(2) == 0 {
				b = append(b, "eE"[rng.Intn(2)])
				b = append(b, []string{"", "+", "-"}[rng.Intn(3)]...)
				b = strconv.AppendInt(b, int64(rng.Intn(351)), 10)
			}
			return b
		}},
		{"2^54-integers", func(b []byte) []byte {
			b = strconv.AppendUint(b, rng.Uint64()>>(10+rng.Intn(20)), 10)
			return strconv.AppendInt(append(b, 'e'), int64(rng.Intn(81)-40), 10)
		}},
	}
	var buf []byte
	for _, sh := range shapes {
		fast := 0
		for i := 0; i < perShape; i++ {
			buf = sh.gen(buf[:0])
			if diff := compareFloat(buf); diff != "" {
				t.Fatalf("%s: %q: %s", sh.name, buf, diff)
			}
			if _, dec := (&Reader{data: buf}).scanNumber(); !dec.trunc {
				if _, ok := dec.float64(); ok {
					fast++
				}
			}
		}
		if fast < perShape/4 {
			t.Errorf("%s: fast paths settled %d of %d tokens", sh.name, fast, perShape)
		}
		t.Logf("%s: fast paths settled %d of %d tokens", sh.name, fast, perShape)
	}
}

// TestEightDigits checks the eight-at-a-time step on every byte value at
// every position, and its value against strconv.
func TestEightDigits(t *testing.T) {
	for pos := 0; pos < 8; pos++ {
		for c := 0; c < 256; c++ {
			b := []byte("31415926")
			b[pos] = byte(c)
			v := uint64(0)
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			if isDigit := '0' <= c && c <= '9'; eightDigits(v) != isDigit {
				t.Fatalf("%q: eightDigits %v", b, !isDigit)
			}
			if '0' <= c && c <= '9' {
				want, _ := strconv.ParseUint(string(b), 10, 64)
				if got := eightValue(v); got != want {
					t.Fatalf("%q: eightValue %d", b, got)
				}
			}
		}
	}
}

// TestPow10Table pins the computed table to entries copied from
// detailedPowersOfTen in Go's strconv/eisel_lemire.go.
func TestPow10Table(t *testing.T) {
	if len(pow10) != 696 || pow10Min != -348 || pow10Max != 347 {
		t.Fatalf("%d entries over 1e%d..1e%d, want 696 over 1e-348..1e347", len(pow10), pow10Min, pow10Max)
	}
	for q, want := range map[int][2]uint64{
		-348: {0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		-1:   {0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		0:    {0x0000000000000000, 0x8000000000000000},
		22:   {0x0000000000000000, 0x878678326EAC9000},
		23:   {0x0000000000000000, 0xA968163F0A57B400},
		43:   {0x6D9CCD05D0000000, 0xE596B7B0C643C719},
		347:  {0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := pow10[q-pow10Min]; got != want {
			t.Errorf("1e%d: {%#016X, %#016X}, want {%#016X, %#016X}", q, got[0], got[1], want[0], want[1])
		}
	}
}
