package aql

import (
	"fmt"
	"strings"
)

// lexer converts AQL source into tokens. Identifiers may contain hyphens
// (word-tokens, starts-with); this never conflicts with subtraction because
// AQL values are always $-prefixed variables or literals.
type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func (l *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("aql: line %d: %s", l.line, fmt.Sprintf(format, args...))
}

func (l *lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.peekAt(1) == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.peekAt(1) == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return l.errf("unterminated comment")
			}
			l.line += strings.Count(l.src[l.pos:l.pos+2+end+2], "\n")
			l.pos += 2 + end + 2
		default:
			return nil
		}
	}
	return nil
}

func isAlpha(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// next produces the next token.
func (l *lexer) next() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	start, line := l.pos, l.line
	mk := func(kind tokenKind, text string) token {
		return token{kind: kind, text: text, pos: start, line: line}
	}
	if l.pos >= len(l.src) {
		return mk(tokEOF, ""), nil
	}
	c := l.src[l.pos]
	switch {
	case c == '$':
		l.pos++
		for l.pos < len(l.src) && (isAlpha(l.src[l.pos]) || isDigit(l.src[l.pos])) {
			l.pos++
		}
		if l.pos == start+1 {
			return token{}, l.errf("bare '$'")
		}
		return mk(tokVariable, l.src[start:l.pos]), nil
	case isAlpha(c):
		l.pos++
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if isAlpha(ch) || isDigit(ch) {
				l.pos++
				continue
			}
			// Hyphenated identifiers: '-' followed by a letter.
			if ch == '-' && l.pos+1 < len(l.src) && isAlpha(l.src[l.pos+1]) {
				l.pos += 2
				continue
			}
			break
		}
		return mk(tokIdent, l.src[start:l.pos]), nil
	case isDigit(c):
		isDouble := false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if isDigit(ch) {
				l.pos++
				continue
			}
			if ch == '.' && isDigit(l.peekAt(1)) {
				isDouble = true
				l.pos++
				continue
			}
			if (ch == 'e' || ch == 'E') && (isDigit(l.peekAt(1)) || l.peekAt(1) == '-' || l.peekAt(1) == '+') {
				isDouble = true
				l.pos += 2
				continue
			}
			break
		}
		if isDouble {
			return mk(tokDouble, l.src[start:l.pos]), nil
		}
		return mk(tokInt, l.src[start:l.pos]), nil
	case c == '"' || c == '\'':
		quote := c
		l.pos++
		var b strings.Builder
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch == quote {
				l.pos++
				return mk(tokString, b.String()), nil
			}
			if ch == '\\' && l.pos+1 < len(l.src) {
				l.pos++
				switch e := l.src[l.pos]; e {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				case '\\', '"', '\'':
					b.WriteByte(e)
				default:
					return token{}, l.errf("invalid escape \\%c", e)
				}
				l.pos++
				continue
			}
			if ch == '\n' {
				l.line++
			}
			b.WriteByte(ch)
			l.pos++
		}
		return token{}, l.errf("unterminated string")
	}

	two := func(kind tokenKind, text string) (token, error) {
		l.pos += 2
		return mk(kind, text), nil
	}
	one := func(kind tokenKind) (token, error) {
		l.pos++
		return mk(kind, string(c)), nil
	}
	switch c {
	case '(':
		return one(tokLParen)
	case ')':
		return one(tokRParen)
	case '{':
		if l.peekAt(1) == '{' {
			return two(tokLBraceBrace, "{{")
		}
		return one(tokLBrace)
	case '}':
		if l.peekAt(1) == '}' {
			return two(tokRBraceBrace, "}}")
		}
		return one(tokRBrace)
	case '[':
		return one(tokLBracket)
	case ']':
		return one(tokRBracket)
	case ',':
		return one(tokComma)
	case ';':
		return one(tokSemicolon)
	case ':':
		if l.peekAt(1) == '=' {
			return two(tokAssign, ":=")
		}
		return one(tokColon)
	case '.':
		return one(tokDot)
	case '#':
		return one(tokHash)
	case '=':
		return one(tokEq)
	case '!':
		if l.peekAt(1) == '=' {
			return two(tokNeq, "!=")
		}
		return token{}, l.errf("unexpected '!'")
	case '<':
		if l.peekAt(1) == '=' {
			return two(tokLte, "<=")
		}
		return one(tokLt)
	case '>':
		if l.peekAt(1) == '=' {
			return two(tokGte, ">=")
		}
		return one(tokGt)
	case '+':
		return one(tokPlus)
	case '-':
		return one(tokMinus)
	case '*':
		return one(tokStar)
	case '/':
		return one(tokSlash)
	case '?':
		return one(tokQmark)
	}
	return token{}, l.errf("unexpected character %q", c)
}

// lexAll tokenizes the whole input.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
