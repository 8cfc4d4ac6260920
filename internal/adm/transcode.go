package adm

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// Transcode reads one textual ADM value (the syntax Parse documents) from src
// and appends its binary encoding to dst. On failure it returns dst at its
// original length. No Value is built: the bytes are written as the text is
// read, so a feed adaptor transcoding into a reused buffer allocates nothing
// per line. src is only read and never retained.
//
// It is the one reader of textual ADM: Parse is DecodeOne of what it writes.
// FuzzTranscode holds it to a frozen recursive-descent parser kept in the
// tests: the same verdict, the same bytes as encoding that parser's Value, and
// the same error, offsets included.
//
// The binary format puts counts and lengths before what they count, so each
// list, record and escaped string reserves one byte, writes its content, then
// patches the byte (patchLen).
func Transcode(dst, src []byte) ([]byte, error) {
	t := transcoder{src: src, out: dst}
	if err := t.document(); err != nil {
		return dst, err
	}
	return t.out, nil
}

// transcoder is a cursor over the text that writes the encoding as it reads.
type transcoder struct {
	src   []byte
	pos   int
	out   []byte
	depth int // lists and records open around pos
}

func (t *transcoder) errf(format string, args ...any) error {
	return fmt.Errorf("adm: offset %d: %s", t.pos, fmt.Sprintf(format, args...))
}

func (t *transcoder) skipSpace() {
	for t.pos < len(t.src) {
		switch t.src[t.pos] {
		case ' ', '\t', '\n', '\r':
			t.pos++
		default:
			return
		}
	}
}

func (t *transcoder) peek() byte {
	if t.pos >= len(t.src) {
		return 0
	}
	return t.src[t.pos]
}

// at reports whether the input at the cursor starts with word.
func (t *transcoder) at(word string) bool {
	rest := t.src[t.pos:]
	return len(rest) >= len(word) && string(rest[:len(word)]) == word
}

func (t *transcoder) expect(c byte) error {
	t.skipSpace()
	if t.peek() != c {
		return t.errf("expected %q", c)
	}
	t.pos++
	return nil
}

func (t *transcoder) document() error {
	t.skipSpace()
	if err := t.value(); err != nil {
		return err
	}
	t.skipSpace()
	if t.pos != len(t.src) {
		return fmt.Errorf("adm: trailing input at offset %d", t.pos)
	}
	return nil
}

func (t *transcoder) value() error {
	t.skipSpace()
	switch c := t.peek(); {
	case c == '{' || c == '[':
		return t.nested()
	case c == '"':
		t.out = append(t.out, byte(TagString))
		_, _, err := t.stringLit()
		return err
	case c == 't' || c == 'f':
		switch {
		case t.at("true"):
			t.pos += 4
			t.out = append(t.out, byte(TagBoolean), 1)
		case t.at("false"):
			t.pos += 5
			t.out = append(t.out, byte(TagBoolean), 0)
		default:
			return t.errf("invalid boolean literal")
		}
		return nil
	case c == 'n':
		return t.keyword("null", TagNull)
	case c == 'm':
		return t.keyword("missing", TagMissing)
	case c == 'd':
		return t.constructor("datetime")
	case c == 'p':
		return t.constructor("point")
	case c == 'r':
		return t.constructor("rectangle")
	case c == '-' || (c >= '0' && c <= '9'):
		return t.number()
	case c == 0:
		return t.errf("unexpected end of input")
	default:
		return t.errf("unexpected character %q", c)
	}
}

func (t *transcoder) keyword(word string, tag TypeTag) error {
	if !t.at(word) {
		return t.errf("unexpected token")
	}
	t.pos += len(word)
	t.out = append(t.out, byte(tag))
	return nil
}

// nested transcodes the list or record opening at the cursor, one level down.
func (t *transcoder) nested() (err error) {
	if t.depth == maxNesting {
		return t.errf("nesting deeper than %d levels", maxNesting)
	}
	t.depth++
	switch {
	case t.peek() == '[':
		t.pos++
		err = t.list(TagOrderedList)
	case t.at("{{"):
		t.pos += 2
		err = t.list(TagUnorderedList)
	default:
		t.pos++
		err = t.record()
	}
	t.depth--
	return err
}

// patchLen stores n as the uvarint whose first byte was reserved at t.out[at].
// A second byte is needed from 128 up, which is rare; only then is everything
// written since shifted to make room.
func (t *transcoder) patchLen(at, n int) {
	if n < 0x80 {
		t.out[at] = byte(n)
		return
	}
	var enc [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(enc[:], uint64(n))
	end := len(t.out)
	t.out = append(t.out, enc[1:k]...)
	copy(t.out[at+k:], t.out[at+1:end])
	copy(t.out[at:], enc[:k])
}

// list transcodes the items of a list whose opening bracket has been
// consumed, up to and including its closing one.
func (t *transcoder) list(tag TypeTag) error {
	closing, kind := "]", "list"
	if tag == TagUnorderedList {
		closing, kind = "}}", "bag"
	}
	t.out = append(t.out, byte(tag), 0)
	at := len(t.out) - 1
	t.skipSpace()
	if t.at(closing) {
		t.pos += len(closing)
		return nil
	}
	for n := 1; ; n++ {
		if err := t.value(); err != nil {
			return err
		}
		t.skipSpace()
		switch {
		case t.at(closing):
			t.pos += len(closing)
			t.patchLen(at, n)
			return nil
		case t.peek() == ',':
			t.pos++
		default:
			return t.errf("expected ',' or '%s' in %s", closing, kind)
		}
	}
}

// span is where a field name sits in t.out.
type span struct{ off, n int }

// record transcodes the fields of a record whose "{" has been consumed. A
// repeated name is reported where NewRecord reports it: the first one, at the
// closing brace, after any syntax error further on has had its say.
//
// Nothing written after a name moves it (a patchLen inside a field's value
// shifts only bytes of that value), so the names are spans of t.out. The
// first 64 are compared pairwise from an array on the stack; a wider record
// indexes its names in a map from the 65th on, NewRecord's O(n) check, so no
// line costs O(n²).
func (t *transcoder) record() error {
	t.out = append(t.out, byte(TagRecord), 0)
	at := len(t.out) - 1
	t.skipSpace()
	if t.peek() == '}' {
		t.pos++
		return nil
	}
	var names [64]span
	var wide map[string]struct{}
	dup := span{off: -1}
	for n := 0; ; n++ {
		t.skipSpace()
		off, ln, err := t.stringLit()
		if err != nil {
			return err
		}
		name := t.out[off : off+ln]
		switch {
		case dup.off >= 0:
			// Only the first repeat is reported.
		case n < len(names):
			for _, s := range names[:n] {
				if string(t.out[s.off:s.off+s.n]) == string(name) {
					dup = span{off, ln}
					break
				}
			}
			names[n] = span{off, ln}
		default:
			if wide == nil {
				wide = make(map[string]struct{}, 2*len(names))
				for _, s := range names {
					wide[string(t.out[s.off:s.off+s.n])] = struct{}{}
				}
			}
			if _, seen := wide[string(name)]; seen {
				dup = span{off, ln}
			} else {
				wide[string(name)] = struct{}{}
			}
		}
		if err := t.expect(':'); err != nil {
			return err
		}
		if err := t.value(); err != nil {
			return err
		}
		t.skipSpace()
		switch t.peek() {
		case ',':
			t.pos++
		case '}':
			t.pos++
			if dup.off >= 0 {
				return fmt.Errorf("adm: duplicate field %q in record", t.out[dup.off:dup.off+dup.n])
			}
			t.patchLen(at, n+1)
			return nil
		default:
			return t.errf("expected ',' or '}' in record")
		}
	}
}

func (t *transcoder) number() error {
	start := t.pos
	if t.peek() == '-' {
		t.pos++
	}
	isDouble := false
	for t.pos < len(t.src) {
		c := t.src[t.pos]
		if c >= '0' && c <= '9' {
			t.pos++
			continue
		}
		if c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-' {
			// '+'/'-' only valid after exponent marker, but the strconv
			// parse below catches malformed forms.
			if c == '-' && t.pos > start && t.src[t.pos-1] != 'e' && t.src[t.pos-1] != 'E' {
				break
			}
			if c == '+' && t.src[t.pos-1] != 'e' && t.src[t.pos-1] != 'E' {
				break
			}
			isDouble = true
			t.pos++
			continue
		}
		break
	}
	// strconv does not retain its argument, so the conversion of a literal
	// of up to 32 bytes stays on the stack.
	lit := t.src[start:t.pos]
	if !isDouble {
		i, err := strconv.ParseInt(string(lit), 10, 64)
		if err == nil {
			t.out = append(t.out, byte(TagInt64))
			t.out = binary.AppendVarint(t.out, i)
			return nil
		}
		// fall through to double for out-of-range integers
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return t.errf("invalid number %q", lit)
	}
	t.out = append(t.out, byte(TagDouble))
	t.out = binary.LittleEndian.AppendUint64(t.out, math.Float64bits(f))
	return nil
}

// stringLit transcodes the string literal at the cursor to its uvarint length
// and bytes, and reports where in t.out the bytes ended up. A literal with no
// backslash before its closing quote has a known length and is one append.
func (t *transcoder) stringLit() (off, n int, err error) {
	if t.peek() != '"' {
		return 0, 0, t.errf("expected string")
	}
	t.pos++
	src, i := t.src, t.pos
	for i < len(src) && src[i] != '"' && src[i] != '\\' {
		i++
	}
	if i == len(src) {
		t.pos = i
		return 0, 0, t.errf("unterminated string")
	}
	if t.src[i] == '"' {
		n = i - t.pos
		t.out = binary.AppendUvarint(t.out, uint64(n))
		off = len(t.out)
		t.out = append(t.out, t.src[t.pos:i]...)
		t.pos = i + 1
		return off, n, nil
	}
	t.out = append(t.out, 0)
	at := len(t.out) - 1
	t.out = append(t.out, t.src[t.pos:i]...)
	t.pos = i
	for t.pos < len(t.src) {
		c := t.src[t.pos]
		switch c {
		case '"':
			t.pos++
			n = len(t.out) - at - 1
			t.patchLen(at, n)
			return len(t.out) - n, n, nil
		case '\\':
			t.pos++
			if t.pos >= len(t.src) {
				return 0, 0, t.errf("unterminated escape")
			}
			e := t.src[t.pos]
			t.pos++
			switch e {
			case '"', '\\', '/':
				t.out = append(t.out, e)
			case 'n':
				t.out = append(t.out, '\n')
			case 't':
				t.out = append(t.out, '\t')
			case 'r':
				t.out = append(t.out, '\r')
			case 'b':
				t.out = append(t.out, '\b')
			case 'f':
				t.out = append(t.out, '\f')
			case 'u':
				if t.pos+4 > len(t.src) {
					return 0, 0, t.errf("truncated \\u escape")
				}
				u, err := strconv.ParseUint(string(t.src[t.pos:t.pos+4]), 16, 32)
				if err != nil {
					return 0, 0, t.errf("invalid \\u escape")
				}
				t.pos += 4
				r := rune(u)
				// Handle surrogate pairs.
				if utf16.IsSurrogate(r) && t.pos+6 <= len(t.src) && t.src[t.pos] == '\\' && t.src[t.pos+1] == 'u' {
					u2, err := strconv.ParseUint(string(t.src[t.pos+2:t.pos+6]), 16, 32)
					if err == nil {
						if dec := utf16.DecodeRune(r, rune(u2)); dec != 0xFFFD {
							t.pos += 6
							t.out = utf8.AppendRune(t.out, dec)
							continue
						}
					}
				}
				// A lone surrogate becomes U+FFFD, as WriteRune makes it.
				t.out = utf8.AppendRune(t.out, r)
			default:
				return 0, 0, t.errf("invalid escape \\%c", e)
			}
		default:
			t.out = append(t.out, c)
			t.pos++
		}
	}
	return 0, 0, t.errf("unterminated string")
}

// constructor transcodes datetime("…"), point("…") or rectangle("…") through
// ParseDatetime, ParsePoint or ParseRectangle. The argument is unescaped into the tail of t.out,
// read back from there, and the tail dropped again.
func (t *transcoder) constructor(keyword string) error {
	if !t.at(keyword) {
		return t.errf("unexpected token")
	}
	t.pos += len(keyword)
	if err := t.expect('('); err != nil {
		return err
	}
	t.skipSpace()
	mark := len(t.out)
	off, n, err := t.stringLit()
	if err != nil {
		return err
	}
	arg := string(t.out[off : off+n])
	t.out = t.out[:mark]
	if err := t.expect(')'); err != nil {
		return err
	}
	var v Value
	switch keyword {
	case "datetime":
		v, err = ParseDatetime(arg)
	case "point":
		v, err = ParsePoint(arg)
	default:
		v, err = ParseRectangle(arg)
	}
	if err != nil {
		return err
	}
	t.out = AppendValue(t.out, v)
	return nil
}
