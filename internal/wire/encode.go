package wire

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// Writer appends one JSON document to a byte slice. Members and elements are
// written in the order the caller gives them, so a body written with keys in
// sorted order is the document encoding/json writes for the same map.
//
// A compact Writer writes json.Marshal's bytes; an indented one writes
// json.Encoder's with SetIndent("", "  "), without the Encoder's trailing
// newline. Values are written as encoding/json writes them: strings
// HTML-safe, with U+2028/U+2029 escaped and invalid UTF-8 replaced by
// U+FFFD; floats in its 'f'/'e' form. The non-finite floats it refuses are
// written as the strings "+Inf", "-Inf" and "NaN".
//
// The zero Writer is a compact Writer with no buffer.
type Writer struct {
	buf    []byte
	indent bool
	depth  int
	more   bool // the open container already holds a value
	keyed  bool // a key was just written: its value comes next
}

// Reset empties w, keeping its buffer, and selects the indented or the
// compact form.
func (w *Writer) Reset(indent bool) {
	*w = Writer{buf: w.buf[:0], indent: indent}
}

// Bytes returns the document written so far. It aliases w's buffer until
// the next Reset.
func (w *Writer) Bytes() []byte { return w.buf }

// spaces is the indentation a newline copies from; deeper levels loop.
const spaces = "                                "

// newline starts a line at the current depth.
func (w *Writer) newline() {
	w.buf = append(w.buf, '\n')
	for n := 2 * w.depth; n > 0; n -= len(spaces) {
		w.buf = append(w.buf, spaces[:min(n, len(spaces))]...)
	}
}

// value places the next value: straight after its key, or after the
// separator and, indented, on a line of its own.
func (w *Writer) value() {
	if w.keyed {
		w.keyed = false
		return
	}
	if w.more {
		w.buf = append(w.buf, ',')
	}
	if w.indent && w.depth > 0 {
		w.newline()
	}
	w.more = true
}

// BeginObject opens an object; EndObject closes it.
func (w *Writer) BeginObject() { w.open('{') }

// EndObject closes the object BeginObject opened.
func (w *Writer) EndObject() { w.close('}') }

// BeginArray opens an array; EndArray closes it.
func (w *Writer) BeginArray() { w.open('[') }

// EndArray closes the array BeginArray opened.
func (w *Writer) EndArray() { w.close(']') }

func (w *Writer) open(c byte) {
	w.value()
	w.buf = append(w.buf, c)
	w.depth++
	w.more = false
}

// close ends a container; an empty one stays "{}" or "[]" in both forms.
func (w *Writer) close(c byte) {
	w.depth--
	if w.more && w.indent {
		w.newline()
	}
	w.buf = append(w.buf, c)
	w.more = true
}

// Key writes an object member's key; the member's value is written next.
func (w *Writer) Key(k string) {
	w.value()
	w.buf = appendString(w.buf, k)
	if w.indent {
		w.buf = append(w.buf, ':', ' ')
	} else {
		w.buf = append(w.buf, ':')
	}
	w.keyed = true
}

// String writes s as a JSON string.
func (w *Writer) String(s string) {
	w.value()
	w.buf = appendString(w.buf, s)
}

// Bool writes true or false.
func (w *Writer) Bool(v bool) {
	w.value()
	w.buf = strconv.AppendBool(w.buf, v)
}

// Int writes an integer.
func (w *Writer) Int(v int) { w.Int64(int64(v)) }

// Int64 writes an integer.
func (w *Writer) Int64(v int64) {
	w.value()
	w.buf = strconv.AppendInt(w.buf, v, 10)
}

// Float writes a float64 as encoding/json does: the shortest decimal that
// reads back to v, in exponent form below 1e-6 and from 1e21 in magnitude,
// with a one-digit exponent written without its leading zero ("1e-7").
// ±Inf and NaN are written as the strings "+Inf", "-Inf" and "NaN".
func (w *Writer) Float(v float64) {
	w.value()
	switch {
	case math.IsNaN(v):
		w.buf = append(w.buf, `"NaN"`...)
		return
	case math.IsInf(v, 1):
		w.buf = append(w.buf, `"+Inf"`...)
		return
	case math.IsInf(v, -1):
		w.buf = append(w.buf, `"-Inf"`...)
		return
	}
	abs := math.Abs(v)
	if abs < 1<<53 && v == math.Trunc(v) && !(v == 0 && math.Signbit(v)) {
		// Below 2^53 every integer is a float64, so no shorter decimal reads
		// back to v: the shortest form is the integer's own digits.
		w.buf = strconv.AppendInt(w.buf, int64(v), 10)
		return
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.buf = strconv.AppendFloat(w.buf, v, format, -1, 64)
	if n := len(w.buf); format == 'e' && w.buf[n-4] == 'e' && w.buf[n-3] == '-' && w.buf[n-2] == '0' {
		w.buf[n-2] = w.buf[n-1]
		w.buf = w.buf[:n-1]
	}
}

// Floats writes vs as an array of numbers (see Array).
func (w *Writer) Floats(vs []float64) { Array(w, vs, (*Writer).Float) }

// Array writes s as an array, writing each element with elem. A nil s is
// written as null and an empty one as [], as encoding/json writes them.
func Array[E any](w *Writer, s []E, elem func(*Writer, E)) {
	if s == nil {
		w.value()
		w.buf = append(w.buf, "null"...)
		return
	}
	w.BeginArray()
	for _, e := range s {
		elem(w, e)
	}
	w.EndArray()
}

// htmlSafe marks the ASCII bytes a string holds as they stand: everything
// from the space up except '"', '\\' and the HTML-special '<', '>', '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hex = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json's
// appendString does with HTML escaping on.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
