package adm

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode/utf16"
)

// Parse parses a textual ADM value. The syntax is JSON extended with the ADM
// constructors the paper's listings use:
//
//	datetime("2014-01-01T00:00:00.000Z")
//	point("33.13,-124.27")
//	{{ ... }}            (unordered lists)
//
// Numbers without a fractional part or exponent parse as int64, otherwise as
// double, matching AsterixDB's literal rules.
func Parse(text string) (Value, error) {
	p := &parser{src: text}
	p.skipSpace()
	v, err := p.value()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("adm: trailing input at offset %d", p.pos)
	}
	return v, nil
}

// ParsePrefix parses one textual ADM value from the front of text and
// returns it along with the number of bytes consumed. It is used by
// record-stream parsers that read concatenated or newline-separated records.
func ParsePrefix(text string) (Value, int, error) {
	p := &parser{src: text}
	p.skipSpace()
	v, err := p.value()
	if err != nil {
		return nil, 0, err
	}
	return v, p.pos, nil
}

// maxNesting bounds how deeply lists and records may nest in textual ADM.
// Parse and Transcode both recurse once per level, and a feed line may be
// megabytes of '[': without a bound one hostile line overflows the goroutine
// stack, which no recover catches. Both readers enforce it with the same
// error, so nothing deeper ever reaches Decode or SkipValue from a feed.
const maxNesting = 128

type parser struct {
	src   string
	pos   int
	depth int // lists and records open around pos
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("adm: offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *parser) peek() byte {
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) value() (Value, error) {
	p.skipSpace()
	switch c := p.peek(); {
	case c == '{' || c == '[':
		return p.nested()
	case c == '"':
		s, err := p.stringLit()
		if err != nil {
			return nil, err
		}
		return String(s), nil
	case c == 't' || c == 'f':
		return p.boolLit()
	case c == 'n':
		if strings.HasPrefix(p.src[p.pos:], "null") {
			p.pos += 4
			return Null{}, nil
		}
		return nil, p.errf("unexpected token")
	case c == 'm':
		if strings.HasPrefix(p.src[p.pos:], "missing") {
			p.pos += 7
			return Missing{}, nil
		}
		return nil, p.errf("unexpected token")
	case c == 'd':
		if strings.HasPrefix(p.src[p.pos:], "datetime") {
			return p.datetimeCtor()
		}
		return nil, p.errf("unexpected token")
	case c == 'p':
		if strings.HasPrefix(p.src[p.pos:], "point") {
			return p.pointCtor()
		}
		return nil, p.errf("unexpected token")
	case c == 'r':
		if strings.HasPrefix(p.src[p.pos:], "rectangle") {
			return p.rectangleCtor()
		}
		return nil, p.errf("unexpected token")
	case c == '-' || (c >= '0' && c <= '9'):
		return p.number()
	case c == 0:
		return nil, p.errf("unexpected end of input")
	default:
		return nil, p.errf("unexpected character %q", c)
	}
}

// nested parses the list or record opening at the cursor, one level down.
func (p *parser) nested() (v Value, err error) {
	if p.depth == maxNesting {
		return nil, p.errf("nesting deeper than %d levels", maxNesting)
	}
	p.depth++
	switch {
	case p.peek() == '[':
		v, err = p.orderedList()
	case strings.HasPrefix(p.src[p.pos:], "{{"):
		v, err = p.unorderedList()
	default:
		v, err = p.record()
	}
	p.depth--
	return v, err
}

func (p *parser) expect(c byte) error {
	p.skipSpace()
	if p.peek() != c {
		return p.errf("expected %q", c)
	}
	p.pos++
	return nil
}

func (p *parser) record() (Value, error) {
	if err := p.expect('{'); err != nil {
		return nil, err
	}
	var b RecordBuilder
	p.skipSpace()
	if p.peek() == '}' {
		p.pos++
		return b.Build()
	}
	for {
		p.skipSpace()
		name, err := p.stringLit()
		if err != nil {
			return nil, err
		}
		if err := p.expect(':'); err != nil {
			return nil, err
		}
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		b.Add(name, v)
		p.skipSpace()
		switch p.peek() {
		case ',':
			p.pos++
		case '}':
			p.pos++
			return b.Build()
		default:
			return nil, p.errf("expected ',' or '}' in record")
		}
	}
}

func (p *parser) orderedList() (Value, error) {
	if err := p.expect('['); err != nil {
		return nil, err
	}
	items, err := p.items(']')
	if err != nil {
		return nil, err
	}
	return &OrderedList{Items: items}, nil
}

func (p *parser) unorderedList() (Value, error) {
	p.pos += 2 // consume "{{"
	var items []Value
	p.skipSpace()
	if strings.HasPrefix(p.src[p.pos:], "}}") {
		p.pos += 2
		return &UnorderedList{}, nil
	}
	for {
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		items = append(items, v)
		p.skipSpace()
		if strings.HasPrefix(p.src[p.pos:], "}}") {
			p.pos += 2
			return &UnorderedList{Items: items}, nil
		}
		if p.peek() != ',' {
			return nil, p.errf("expected ',' or '}}' in bag")
		}
		p.pos++
	}
}

func (p *parser) items(close byte) ([]Value, error) {
	var items []Value
	p.skipSpace()
	if p.peek() == close {
		p.pos++
		return items, nil
	}
	for {
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		items = append(items, v)
		p.skipSpace()
		switch p.peek() {
		case ',':
			p.pos++
		case close:
			p.pos++
			return items, nil
		default:
			return nil, p.errf("expected ',' or %q in list", close)
		}
	}
}

func (p *parser) boolLit() (Value, error) {
	if strings.HasPrefix(p.src[p.pos:], "true") {
		p.pos += 4
		return Boolean(true), nil
	}
	if strings.HasPrefix(p.src[p.pos:], "false") {
		p.pos += 5
		return Boolean(false), nil
	}
	return nil, p.errf("invalid boolean literal")
}

func (p *parser) number() (Value, error) {
	start := p.pos
	if p.peek() == '-' {
		p.pos++
	}
	isDouble := false
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c >= '0' && c <= '9' {
			p.pos++
			continue
		}
		if c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-' {
			// '+'/'-' only valid after exponent marker, but the strconv
			// parse below catches malformed forms.
			if c == '-' && p.pos > start && p.src[p.pos-1] != 'e' && p.src[p.pos-1] != 'E' {
				break
			}
			if c == '+' && p.src[p.pos-1] != 'e' && p.src[p.pos-1] != 'E' {
				break
			}
			isDouble = true
			p.pos++
			continue
		}
		break
	}
	lit := p.src[start:p.pos]
	if !isDouble {
		i, err := strconv.ParseInt(lit, 10, 64)
		if err == nil {
			return Int64(i), nil
		}
		// fall through to double for out-of-range integers
	}
	f, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		return nil, p.errf("invalid number %q", lit)
	}
	return Double(f), nil
}

func (p *parser) stringLit() (string, error) {
	if p.peek() != '"' {
		return "", p.errf("expected string")
	}
	p.pos++
	var b strings.Builder
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch c {
		case '"':
			p.pos++
			return b.String(), nil
		case '\\':
			p.pos++
			if p.pos >= len(p.src) {
				return "", p.errf("unterminated escape")
			}
			e := p.src[p.pos]
			p.pos++
			switch e {
			case '"', '\\', '/':
				b.WriteByte(e)
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case 'b':
				b.WriteByte('\b')
			case 'f':
				b.WriteByte('\f')
			case 'u':
				if p.pos+4 > len(p.src) {
					return "", p.errf("truncated \\u escape")
				}
				u, err := strconv.ParseUint(p.src[p.pos:p.pos+4], 16, 32)
				if err != nil {
					return "", p.errf("invalid \\u escape")
				}
				p.pos += 4
				r := rune(u)
				// Handle surrogate pairs.
				if utf16.IsSurrogate(r) && p.pos+6 <= len(p.src) && p.src[p.pos] == '\\' && p.src[p.pos+1] == 'u' {
					u2, err := strconv.ParseUint(p.src[p.pos+2:p.pos+6], 16, 32)
					if err == nil {
						if dec := utf16.DecodeRune(r, rune(u2)); dec != 0xFFFD {
							p.pos += 6
							b.WriteRune(dec)
							continue
						}
					}
				}
				b.WriteRune(r)
			default:
				return "", p.errf("invalid escape \\%c", e)
			}
		default:
			b.WriteByte(c)
			p.pos++
		}
	}
	return "", p.errf("unterminated string")
}

func (p *parser) ctorArg(keyword string) (string, error) {
	p.pos += len(keyword)
	if err := p.expect('('); err != nil {
		return "", err
	}
	p.skipSpace()
	s, err := p.stringLit()
	if err != nil {
		return "", err
	}
	if err := p.expect(')'); err != nil {
		return "", err
	}
	return s, nil
}

func (p *parser) datetimeCtor() (Value, error) {
	s, err := p.ctorArg("datetime")
	if err != nil {
		return nil, err
	}
	return ParseDatetime(s)
}

func (p *parser) pointCtor() (Value, error) {
	s, err := p.ctorArg("point")
	if err != nil {
		return nil, err
	}
	return ParsePoint(s)
}

func (p *parser) rectangleCtor() (Value, error) {
	s, err := p.ctorArg("rectangle")
	if err != nil {
		return nil, err
	}
	return ParseRectangle(s)
}

// ParseDatetime parses an ISO-8601 datetime string into a Datetime.
func ParseDatetime(s string) (Datetime, error) {
	for _, layout := range []string{
		"2006-01-02T15:04:05.000Z07:00",
		time.RFC3339Nano,
		time.RFC3339,
		"2006-01-02T15:04:05",
		"2006-01-02",
	} {
		if t, err := time.Parse(layout, s); err == nil {
			return DatetimeOf(t), nil
		}
	}
	return 0, fmt.Errorf("adm: invalid datetime %q", s)
}

// ParseRectangle parses a "x1,y1 x2,y2" string into a Rectangle.
func ParseRectangle(s string) (Rectangle, error) {
	parts := strings.Fields(s)
	if len(parts) != 2 {
		return Rectangle{}, fmt.Errorf("adm: invalid rectangle %q", s)
	}
	low, err := ParsePoint(parts[0])
	if err != nil {
		return Rectangle{}, err
	}
	high, err := ParsePoint(parts[1])
	if err != nil {
		return Rectangle{}, err
	}
	return Rectangle{Low: low, High: high}, nil
}

// ParsePoint parses a "x,y" string into a Point.
func ParsePoint(s string) (Point, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return Point{}, fmt.Errorf("adm: invalid point %q", s)
	}
	x, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return Point{}, fmt.Errorf("adm: invalid point %q: %v", s, err)
	}
	y, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return Point{}, fmt.Errorf("adm: invalid point %q: %v", s, err)
	}
	return Point{x, y}, nil
}
