// Package wire decodes the service's JSON request bodies and spec files in
// one pass, without reflection.
//
// A Reader walks a byte slice once. Each value is read by a typed method
// (Float, Int, Int64, Bool, String, Floats) or through a Fields table that
// names an object's members, so there is no generic skip: an unknown key is
// an error. The accepted inputs and decoded values are those of
// encoding/json's Decoder with DisallowUnknownFields, with one deliberate
// tightening: a key that matches a field already set in the same object is
// an error, where encoding/json would merge the second value into the first.
// In detail:
//
//   - Keys match field names exactly first, then by strings.EqualFold.
//   - A null leaves a number, bool, string or struct destination unchanged
//     and sets a pointer or slice to nil.
//   - Every number is read by one scanner that checks the JSON number
//     grammar and, in the same pass, builds strconv's decimal mantissa and
//     exponent. Float converts those with strconv's own fast paths (exact
//     float64 arithmetic, then Eisel–Lemire) and hands anything they
//     cannot settle to strconv.ParseFloat(tok, 64); Int64 parses the token
//     with strconv.ParseInt(tok, 10, 64). These are the calls
//     encoding/json makes, so values are bit-identical.
//   - A string of printable ASCII without escapes is taken as it stands;
//     any other string token is handed to encoding/json, so escapes and
//     UTF-8 repair have one implementation.
//   - Arrays decode into slices with encoding/json's reuse rules (see Slice).
//   - Bytes after the top-level value are ignored.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Error is a decoding failure and the byte offset where it was detected.
type Error struct {
	Offset int
	Msg    string
}

func (e *Error) Error() string { return fmt.Sprintf("%s (offset %d)", e.Msg, e.Offset) }

// Reader decodes one JSON document held in memory. Its error is sticky:
// after the first failure every method is a no-op, and Decode returns it.
type Reader struct {
	data []byte
	off  int
	err  error
}

// fail records a decoding error at the current offset unless one is already
// recorded.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = &Error{Offset: r.off, Msg: fmt.Sprintf(format, args...)}
	}
}

// peek skips whitespace and returns the next byte, or 0 at the end of input.
func (r *Reader) peek() byte {
	for r.off < len(r.data) {
		switch c := r.data[r.off]; c {
		case ' ', '\t', '\n', '\r':
			r.off++
		default:
			return c
		}
	}
	return 0
}

// syntax fails on the byte at the current offset, which breaks the JSON
// grammar at the place named by where.
func (r *Reader) syntax(where string) {
	if r.off >= len(r.data) {
		r.fail("unexpected end of JSON input")
		return
	}
	r.fail("invalid character %q %s", r.data[r.off], where)
}

// unexpected fails on the value at the current offset, which is not of the
// JSON type the destination wants.
func (r *Reader) unexpected(want string) {
	if r.off >= len(r.data) {
		r.fail("unexpected end of JSON input")
		return
	}
	var got string
	switch c := r.data[r.off]; {
	case c == '{':
		got = "object"
	case c == '[':
		got = "array"
	case c == '"':
		got = "string"
	case c == 't' || c == 'f':
		got = "bool"
	case c == '-' || '0' <= c && c <= '9':
		got = "number"
	default:
		r.fail("invalid character %q looking for %s", c, want)
		return
	}
	r.fail("cannot decode %s into %s", got, want)
}

// literal consumes the keyword lit, which the next byte already starts.
func (r *Reader) literal(lit string) bool {
	if len(r.data)-r.off >= len(lit) && string(r.data[r.off:r.off+len(lit)]) == lit {
		r.off += len(lit)
		return true
	}
	r.fail("invalid literal, want %s", lit)
	return false
}

// null consumes a null and reports true; it reports false, consuming
// nothing, when the next value is something else or an error is recorded.
func (r *Reader) null() bool {
	if r.err != nil || r.peek() != 'n' {
		return false
	}
	r.literal("null")
	return true
}

// Float reads a number into *dst. The scanner's decimal reading goes
// through strconv's own fast paths (decimal.float64); a value they cannot
// settle, and a number that does not fit, is handed to strconv.ParseFloat,
// so every value is bit-identical to it.
func (r *Reader) Float(dst *float64) {
	tok, dec := r.scanNumber()
	if tok == nil {
		return
	}
	if f, ok := dec.float64(); ok {
		*dst = f
		return
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		r.fail("number %s does not fit a float64", tok)
		return
	}
	*dst = f
}

// Int64 reads an integer into *dst; a fraction or exponent is an error.
func (r *Reader) Int64(dst *int64) {
	tok, _ := r.scanNumber()
	if tok == nil {
		return
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		r.fail("number %s is not a 64-bit integer", tok)
		return
	}
	*dst = n
}

// Int reads an integer into *dst; a fraction or exponent is an error.
func (r *Reader) Int(dst *int) {
	n := int64(*dst)
	r.Int64(&n)
	if int64(int(n)) != n {
		r.fail("number %d overflows int", n)
		return
	}
	*dst = int(n)
}

// decimal is strconv's reading of a number token (readFloat in
// strconv/atof.go): its value is ±mant × 10^exp, exactly unless trunc
// reports that non-zero digits past the 19th significant one were dropped.
type decimal struct {
	mant  uint64
	exp   int
	neg   bool
	trunc bool
}

// maxMantDigits is the number of significant decimal digits a uint64
// mantissa always holds (10^19 < 2^64).
const maxMantDigits = 19

// scanNumber consumes a number token and returns it with its decimal reading,
// built in the same pass that checks the JSON number grammar. It returns a
// nil token, consuming a null, when the value is null, and a nil token with
// an error recorded when it is not a number or breaks the grammar.
//
// The reading is strconv's: leading zeros are skipped, at most 19
// significant digits enter the mantissa, a dropped digit sets trunc only
// when it is non-zero, and exponent digits stop accumulating once the
// exponent reaches 10000.
func (r *Reader) scanNumber() ([]byte, decimal) {
	var dec decimal
	if r.null() || r.err != nil {
		return nil, dec
	}
	d, i := r.data, r.off
	if i < len(d) && d[i] == '-' {
		dec.neg = true
		i++
	}
	nd := 0 // significant digits read, kept in mant or dropped
	dp := 0 // position of the decimal point relative to the first of them
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i, nd = dec.digits(d, i, 0)
		dp = nd
	case i == r.off:
		r.unexpected("number")
		return nil, dec
	default:
		r.off = i
		r.syntax("in number")
		return nil, dec
	}
	if i < len(d) && d[i] == '.' {
		i++
		frac := i
		if nd == 0 {
			for i < len(d) && d[i] == '0' {
				i++
			}
			dp = frac - i
		}
		if i, nd = dec.digits(d, i, nd); i == frac {
			r.off = i
			r.syntax("after decimal point in number")
			return nil, dec
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		eneg := false
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			eneg = d[i] == '-'
			i++
		}
		start, e := i, 0
		for ; i < len(d) && '0' <= d[i] && d[i] <= '9'; i++ {
			if e < 10000 {
				e = e*10 + int(d[i]-'0')
			}
		}
		if i == start {
			r.off = i
			r.syntax("in exponent of number")
			return nil, dec
		}
		if eneg {
			e = -e
		}
		dp += e
	}
	if dec.mant != 0 {
		dec.exp = dp - min(nd, maxMantDigits)
	}
	tok := d[r.off:i]
	r.off = i
	return tok, dec
}

// digits reads the digits at d[i:] into dec, whose mantissa already holds
// the first nd significant digits, and returns the index of the first
// non-digit and the new count. Every digit is significant: the caller has
// skipped leading zeros. While the mantissa has room for eight more digits
// they are taken eight at a time.
func (dec *decimal) digits(d []byte, i, nd int) (int, int) {
	for nd <= maxMantDigits-8 && len(d)-i >= 8 {
		v := binary.LittleEndian.Uint64(d[i:])
		if !eightDigits(v) {
			break
		}
		dec.mant = dec.mant*1e8 + eightValue(v)
		i += 8
		nd += 8
	}
	for ; i < len(d) && '0' <= d[i] && d[i] <= '9'; i++ {
		if nd < maxMantDigits {
			dec.mant = dec.mant*10 + uint64(d[i]-'0')
		} else if d[i] != '0' {
			dec.trunc = true
		}
		nd++
	}
	return i, nd
}

// eightDigits reports whether all eight bytes of v are ASCII digits: each
// byte's high nibble is 3, and adding 6 leaves it 3. A byte whose addition
// carries into the next one fails its own high-nibble test.
func eightDigits(v uint64) bool {
	return (v&0xF0F0F0F0F0F0F0F0)|((v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0)>>4 == 0x3333333333333333
}

// eightValue is the value of the eight ASCII digits in v, the first digit
// in the lowest byte, in three multiplies: one joins adjacent digits into
// two-digit values, and two more weigh and add the four of them.
func eightValue(v uint64) uint64 {
	const mask = 0x000000FF000000FF
	v -= 0x3030303030303030
	v = v*10 + v>>8
	return ((v&mask)*(100+1000000<<32) + (v>>16&mask)*(1+10000<<32)) >> 32
}

// Bool reads true or false into *dst.
func (r *Reader) Bool(dst *bool) {
	if r.null() || r.err != nil {
		return
	}
	switch r.peek() {
	case 't':
		if r.literal("true") {
			*dst = true
		}
	case 'f':
		if r.literal("false") {
			*dst = false
		}
	default:
		r.unexpected("bool")
	}
}

// String reads a string into *dst.
func (r *Reader) String(dst *string) {
	if r.null() || r.err != nil {
		return
	}
	if r.peek() != '"' {
		r.unexpected("string")
		return
	}
	if s, ok := r.str(); ok {
		*dst = s
	}
}

// str consumes the string token at the current offset.
func (r *Reader) str() (string, bool) {
	d, start := r.data, r.off
	for i := start + 1; i < len(d); i++ {
		c := d[i]
		if c == '"' {
			r.off = i + 1
			return string(d[start+1 : i]), true
		}
		if c < 0x20 || c > 0x7e || c == '\\' {
			return r.escapedStr(start)
		}
	}
	r.off = len(d)
	r.fail("unexpected end of JSON input")
	return "", false
}

// escapedStr hands a string token with escapes, control bytes or non-ASCII
// bytes to encoding/json, which validates and unquotes it.
func (r *Reader) escapedStr(start int) (string, bool) {
	d := r.data
	for i := start + 1; i < len(d); i++ {
		switch d[i] {
		case '\\':
			i++
		case '"':
			var s string
			if err := json.Unmarshal(d[start:i+1], &s); err != nil {
				r.fail("invalid string: %v", err)
				return "", false
			}
			r.off = i + 1
			return s, true
		}
	}
	r.off = len(d)
	r.fail("unexpected end of JSON input")
	return "", false
}

// Floats reads an array of numbers into *dst (see Slice). A destination
// without capacity is first sized from the commas before the next ']', so a
// long array is allocated once instead of regrown by append.
func (r *Reader) Floats(dst *[]float64) {
	if cap(*dst) == 0 && r.err == nil && r.peek() == '[' {
		rest := r.data[r.off:]
		if end := bytes.IndexByte(rest, ']'); end > 0 {
			*dst = make([]float64, 0, bytes.Count(rest[:end], []byte{','})+1)
		}
	}
	Slice(r, dst, (*Reader).Float)
}

// Slice reads an array into *dst, reading each element with elem. It reuses
// *dst as encoding/json does: null sets *dst to nil, [] to an empty slice,
// and otherwise element i is decoded over the value already at index i of
// the backing array (the zero value past its capacity), so a null element
// keeps that value.
func Slice[E any](r *Reader, dst *[]E, elem func(*Reader, *E)) {
	if r.err != nil {
		return
	}
	if r.null() {
		*dst = nil
		return
	}
	if r.peek() != '[' {
		r.unexpected("array")
		return
	}
	r.off++
	if r.peek() == ']' {
		r.off++
		*dst = []E{}
		return
	}
	s := *dst
	for i := 0; r.err == nil; i++ {
		if i < cap(s) {
			s = s[:i+1]
		} else {
			var zero E
			s = append(s, zero)
		}
		elem(r, &s[i])
		switch r.peek() {
		case ',':
			r.off++
		case ']':
			r.off++
			*dst = s
			return
		default:
			r.syntax("after array element")
		}
	}
}

// Object reads an object, calling member once per key with the reader at
// that key's value. member reads the value and returns true, or returns
// false without reading when it does not know the key, which fails the
// decode. A null reads as an object with no members.
func (r *Reader) Object(member func(key string) bool) {
	if r.null() || r.err != nil {
		return
	}
	if r.peek() != '{' {
		r.unexpected("object")
		return
	}
	r.off++
	if r.peek() == '}' {
		r.off++
		return
	}
	for r.err == nil {
		if r.peek() != '"' {
			r.syntax("looking for object key")
			return
		}
		keyOff := r.off
		key, ok := r.str()
		if !ok {
			return
		}
		if r.peek() != ':' {
			r.syntax("after object key")
			return
		}
		r.off++
		if !member(key) {
			r.off = keyOff
			r.fail("unknown field %q", key)
			return
		}
		switch r.peek() {
		case ',':
			r.off++
		case '}':
			r.off++
			return
		default:
			r.syntax("after object member")
		}
	}
}

// Field names one member of a JSON object and reads its value into a T.
type Field[T any] struct {
	Name string
	Read func(r *Reader, v *T)
}

// Fields is the member table of an object decoded into a T; it holds at
// most 64 fields.
type Fields[T any] []Field[T]

// Read reads an object into *v. A key naming a field already read in the
// same object is an error.
func (fs Fields[T]) Read(r *Reader, v *T) {
	if len(fs) > 64 {
		panic("wire: a Fields table holds at most 64 fields")
	}
	var seen uint64
	r.Object(func(key string) bool {
		i := fs.index(key)
		if i < 0 {
			return false
		}
		if seen&(1<<i) != 0 {
			r.fail("repeated field %q", fs[i].Name)
			return true
		}
		seen |= 1 << i
		fs[i].Read(r, v)
		return true
	})
}

// ReadPtr reads an object into **p, allocating it when *p is nil; null sets
// *p to nil.
func (fs Fields[T]) ReadPtr(r *Reader, p **T) {
	if r.null() {
		*p = nil
		return
	}
	if r.err != nil {
		return
	}
	if *p == nil {
		*p = new(T)
	}
	fs.Read(r, *p)
}

// index finds the field a key names: an exact match first, then a
// case-insensitive one, as encoding/json matches.
func (fs Fields[T]) index(key string) int {
	for i := range fs {
		if fs[i].Name == key {
			return i
		}
	}
	for i := range fs {
		if strings.EqualFold(fs[i].Name, key) {
			return i
		}
	}
	return -1
}

// Decode reads the JSON document data into *v through fs: leading
// whitespace, then an object or null; anything after that value is ignored.
func Decode[T any](data []byte, v *T, fs Fields[T]) error {
	r := &Reader{data: data}
	fs.Read(r, v)
	return r.err
}
