package server

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	cogra "repro"
)

// JSON ingest: the body of POST /v1/{tenant}/events,
//
//	{"events":[{"time":1,"type":"Stock","id":7,"sym":{..},"num":{..}}, …]}
//
// decoded by one hand-written tokenizer into the same interned strings
// and attribute maps a Decoder builds from binary frames. It accepts
// exactly the bodies encoding/json accepts when decoding into
// struct{Events []WireEvent} with DisallowUnknownFields, and decodes
// each to the same events, quirks included:
//
//   - field names match exactly or else by bytes.EqualFold ("ſym" is sym);
//   - a repeated field overwrites a scalar and merges into a map, and a
//     repeated "events" array decodes over the elements already there;
//   - null leaves a scalar or an event unchanged, resets a map or the
//     events, and stores "" or 0 as a map value;
//   - escapes, surrogate pairs included, are decoded and invalid UTF-8
//     becomes U+FFFD;
//   - "time" and "id" take integers only: no fraction, no exponent, no
//     int64 overflow.
//
// The one difference: anything but whitespace after the object is
// rejected, where encoding/json stops reading after the first value.

// jsonReader walks one JSON body. The first violation records what and
// where, then parks the offset at the end so every later read fails too.
type jsonReader struct {
	buf []byte
	off int
	err string
	at  int
	unq []byte // unquoting scratch for strings with escapes or non-ASCII
	// owned marks the maps merge built for this body: they alone may be
	// written to again.
	owned map[unsafe.Pointer]bool
}

func (r *jsonReader) fail(what string) {
	if r.err == "" {
		r.err, r.at = what, r.off
	}
	r.off = len(r.buf)
}

// peek skips whitespace and returns the next byte (0 at the end).
func (r *jsonReader) peek() byte {
	for ; r.off < len(r.buf); r.off++ {
		switch c := r.buf[r.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// null consumes the literal null.
func (r *jsonReader) null() {
	if !bytes.HasPrefix(r.buf[r.off:], []byte("null")) {
		r.fail("invalid literal")
		return
	}
	r.off += len("null")
}

// more advances through a container: it consumes the ',' before every
// member but the first, or the closing byte, reporting whether a member
// follows.
func (r *jsonReader) more(closing byte, first *bool) bool {
	if r.err != "" {
		return false
	}
	switch c := r.peek(); {
	case c == closing:
		r.off++
		return false
	case *first:
		*first = false
		return true
	case c == ',':
		r.off++
		return true
	}
	r.fail("expected ',' or '" + string(closing) + "'")
	return false
}

// key reads an object key through its ':'.
func (r *jsonReader) key() []byte {
	if r.peek() != '"' {
		r.fail("expected a string key")
		return nil
	}
	k := r.str()
	if r.peek() != ':' {
		r.fail("expected ':'")
		return nil
	}
	r.off++
	return k
}

// str reads the string at r.off and returns its decoded bytes: a slice
// of the body when nothing needs decoding, else of r.unq, valid until
// the next str.
func (r *jsonReader) str() []byte {
	start := r.off + 1
	for i := start; i < len(r.buf); i++ {
		switch c := r.buf[i]; {
		case c == '"':
			r.off = i + 1
			return r.buf[start:i]
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return r.unquote(start)
		}
	}
	r.fail("unterminated string")
	return nil
}

// unquote is str's slow path, decoding the way encoding/json does.
func (r *jsonReader) unquote(start int) []byte {
	b := r.unq[:0]
	s := r.buf
	for i := start; i < len(s); {
		switch c := s[i]; {
		case c == '"':
			r.off = i + 1
			r.unq = b
			return b
		case c < ' ':
			r.off = i
			r.fail("control character in string")
			return nil
		case c == '\\':
			if i+1 == len(s) {
				r.fail("unterminated string")
				return nil
			}
			switch e := s[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := getu4(s[i:])
				if rr < 0 {
					r.off = i
					r.fail("invalid \\u escape")
					return nil
				}
				i += 6
				if utf16.IsSurrogate(rr) {
					// A pair only when the next escape completes it; a
					// lone half is U+FFFD and the next escape stands alone.
					if dec := utf16.DecodeRune(rr, getu4(s[i:])); dec != utf8.RuneError {
						i += 6
						rr = dec
					} else {
						rr = utf8.RuneError
					}
				}
				b = utf8.AppendRune(b, rr)
				continue
			default:
				r.off = i
				r.fail("invalid escape")
				return nil
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			rr, size := utf8.DecodeRune(s[i:])
			if rr == utf8.RuneError && size == 1 {
				b = utf8.AppendRune(b, rr)
			} else {
				b = append(b, s[i:i+size]...)
			}
			i += size
		}
	}
	r.fail("unterminated string")
	return nil
}

// getu4 decodes the \uXXXX escape s starts with, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var v rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		v = v<<4 | rune(c)
	}
	return v
}

// number reads one JSON number token and returns its bytes.
func (r *jsonReader) number() []byte {
	s, start := r.buf, r.off
	i := start
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && '1' <= s[i] && s[i] <= '9':
		i = digits(s, i)
	default:
		r.fail("invalid number")
		return nil
	}
	if i < len(s) && s[i] == '.' {
		j := digits(s, i+1)
		if j == i+1 {
			r.off = j
			r.fail("invalid number")
			return nil
		}
		i = j
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		j := digits(s, i)
		if j == i {
			r.off = i
			r.fail("invalid number")
			return nil
		}
		i = j
	}
	r.off = i
	return s[start:i]
}

func digits(s []byte, i int) int {
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return i
}

// int64Field decodes "time" or "id" into dst: an integer in range, as
// strconv.ParseInt reads it, or null, which leaves dst as it was.
func (r *jsonReader) int64Field(dst *int64) {
	switch c := r.peek(); {
	case c == 'n':
		r.null()
	case c == '-' || '0' <= c && c <= '9':
		start := r.off
		if v, ok := parseInt64(r.number()); ok {
			*dst = v
		} else if r.err == "" {
			r.off = start
			r.fail("not an int64")
		}
	default:
		r.fail("not an int64")
	}
}

// parseInt64 parses a JSON number token that must be an integer.
func parseInt64(tok []byte) (int64, bool) {
	neg := len(tok) > 0 && tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	if len(tok) == 0 {
		return 0, false
	}
	var u uint64
	for _, c := range tok {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if u > (1<<63-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	if neg {
		return -int64(u), true // u == 1<<63 wraps to MinInt64, as it should
	}
	if u > 1<<63-1 {
		return 0, false
	}
	return int64(u), true
}

// objectEnd returns the offset just past the '}' matching the '{' at
// r.off, or -1 when there is none within limit bytes. It does not
// validate: it only delimits the intern key of a section, and a hit on
// a key that decoded cleanly is the proof.
func (r *jsonReader) objectEnd(limit int) int {
	s, depth := r.buf[:min(len(r.buf), r.off+limit)], 0
	for i := r.off; i < len(s); i++ {
		switch s[i] {
		case '"':
			i = stringEnd(s, i)
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return i + 1
			}
		}
	}
	return -1
}

// stringEnd returns the offset of the quote closing the string opened at
// s[i], or len(s).
func stringEnd(s []byte, i int) int {
	for i++; i < len(s) && s[i] != '"'; i++ {
		if s[i] == '\\' {
			i++
		}
	}
	return i
}

// field names the member key holds: names[i] exactly, else the first
// name equal under bytes.EqualFold, else -1.
func field(key []byte, names []string) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

var (
	batchFields = []string{"events"}
	eventFields = []string{"time", "type", "id", "sym", "num"}
)

const (
	fieldTime = iota
	fieldType
	fieldID
	fieldSym
	fieldNum
)

// DecodeJSONIngest decodes a JSON ingest body (see the top of this file
// for the accepted language). Events come from one arena, grown by
// append as elements decode, so a body allocates in proportion to what
// it validly holds; they share their interned attribute maps, exactly
// like frame-decoded ones. Sections are interned apart from frame
// sections, so the two syntaxes never collide in one Decoder's tables.
func (d *Decoder) DecodeJSONIngest(body []byte) ([]*cogra.Event, error) {
	r := jsonReader{buf: body}
	var arena []cogra.Event // every element materialized since the last reset
	n := 0                  // the events array's current length
	switch r.peek() {
	case 'n':
		r.null()
	case '{':
		r.off++
		for first := true; r.more('}', &first); {
			if field(r.key(), batchFields) < 0 {
				r.fail("unknown field")
				break
			}
			switch r.peek() {
			case 'n':
				r.null()
				arena, n = arena[:0], 0
			case '[':
				r.off++
				i := 0
				for firstEvent := true; r.more(']', &firstEvent); i++ {
					// encoding/json decodes over an element an earlier
					// "events" array left, so elements stay until a reset.
					if i == len(arena) {
						arena = append(arena, cogra.Event{})
					}
					d.jsonEvent(&r, &arena[i])
				}
				if n = i; n == 0 {
					arena = arena[:0]
				}
			default:
				r.fail("events is not an array")
			}
		}
	default:
		r.fail("body is not an object")
	}
	if r.peek(); r.off < len(body) {
		r.fail("trailing bytes after the object")
	}
	if r.err != "" {
		return nil, fmt.Errorf("bad request body: %s at offset %d", r.err, r.at)
	}
	events := make([]*cogra.Event, n)
	for i := range events {
		events[i] = &arena[i]
	}
	return events, nil
}

// jsonEvent decodes one element of the events array into e.
func (d *Decoder) jsonEvent(r *jsonReader, e *cogra.Event) {
	switch r.peek() {
	case 'n':
		r.null()
		return
	case '{':
		r.off++
	default:
		r.fail("event is not an object")
		return
	}
	for first := true; r.more('}', &first); {
		f := field(r.key(), eventFields)
		switch c := r.peek(); {
		case f == fieldTime:
			r.int64Field(&e.Time)
		case f == fieldID:
			r.int64Field(&e.ID)
		case f < 0:
			r.fail("unknown field")
		case c == 'n':
			r.null()
			if f == fieldSym {
				e.Sym = nil
			} else if f == fieldNum {
				e.Num = nil
			}
		case f == fieldType && c == '"':
			e.Type = d.str(r.str())
		case f == fieldSym && c == '{':
			e.Sym = merge(r, e.Sym, jsonSection(d, r, &d.jsonSym))
		case f == fieldNum && c == '{':
			e.Num = merge(r, e.Num, jsonSection(d, r, &d.jsonNum))
		default:
			r.fail("wrong type for " + eventFields[f])
		}
	}
}

// merge is a repeated sym/num field: encoding/json decodes the later
// object into the map the earlier one made. Interned maps are shared,
// so the first merge into one copies it; the copy is the body's own,
// and later merges write to it in place, which keeps a body of many
// repeats linear.
func merge[V any](r *jsonReader, dst, src map[string]V) map[string]V {
	if dst == nil {
		return src
	}
	if len(src) == 0 {
		return dst
	}
	if !r.owned[reflect.ValueOf(dst).UnsafePointer()] {
		dst = maps.Clone(dst)
		if r.owned == nil {
			r.owned = make(map[unsafe.Pointer]bool)
		}
		r.owned[reflect.ValueOf(dst).UnsafePointer()] = true
	}
	maps.Copy(dst, src)
	return dst
}

// jsonSection decodes one "sym" or "num" object, interned in t by its
// raw bytes the way frameSection interns a frame section.
func jsonSection[V string | float64](d *Decoder, r *jsonReader, t *internTable[map[string]V]) map[string]V {
	start := r.off
	if end := r.objectEnd(maxInternKey); end > 0 {
		if m, ok := t.get(d, r.buf[start:end]); ok {
			r.off = end
			return m
		}
	}
	var m map[string]V
	r.off++
	for first := true; r.more('}', &first); {
		k := d.str(r.key())
		var v V
		switch p := any(&v).(type) {
		case *string:
			*p = d.symValue(r)
		case *float64:
			*p = numValue(r)
		}
		if m == nil {
			m = make(map[string]V)
		}
		m[k] = v
	}
	if r.err == "" && r.off-start <= maxInternKey {
		t.put(d, string(r.buf[start:r.off]), m)
	}
	return m
}

// symValue reads the value of a "sym" member: a string, or null for "".
func (d *Decoder) symValue(r *jsonReader) string {
	switch r.peek() {
	case '"':
		return d.str(r.str())
	case 'n':
		r.null()
	default:
		r.fail("sym value is not a string")
	}
	return ""
}

// numValue reads the value of a "num" member: a float64, or null for 0.
func numValue(r *jsonReader) float64 {
	switch c := r.peek(); {
	case c == '-' || '0' <= c && c <= '9':
		at := r.off
		f, err := strconv.ParseFloat(string(r.number()), 64)
		if err != nil && r.err == "" {
			r.off = at
			r.fail("number out of float64 range")
		}
		return f
	case c == 'n':
		r.null()
	default:
		r.fail("num value is not a number")
	}
	return 0
}
