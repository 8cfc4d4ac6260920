package core

import (
	"bytes"
	"encoding/binary"
	"unicode"
	"unicode/utf8"

	"asterixfeeds/internal/adm"
)

// The built-in UDFs' AppendEncoded halves read message_text in place and
// compute their field's encoding from its bytes. Each mirrors the string
// code of its Apply exactly — FuzzBuiltinsEncoded and
// TestBuiltinsEncodedOnTweetGenPool compare the two.

// stringField returns the bytes of rec's top-level string field name, in
// place; ok is false when the field is absent, holds something else, or the
// walk up to it meets malformed bytes.
func stringField(rec []byte, name string) (s []byte, ok bool) {
	_, err := adm.ScanRecordFields(rec, func(n, encValue []byte) bool {
		if string(n) != name {
			return true
		}
		if adm.TypeTag(encValue[0]) == adm.TagString {
			// The walk has checked the value's structure: the length fits.
			ln, k := binary.Uvarint(encValue[1:])
			s, ok = encValue[1+k:1+k+int(ln)], true
		}
		return false
	})
	return s, ok && err == nil
}

// nextField returns the bounds of the first run of non-space runes in b at
// or after i — strings.Fields' tokens, one at a time — or len(b), len(b).
func nextField(b []byte, i int) (start, end int) {
	start = skipRunes(b, i, true)
	return start, skipRunes(b, start, false)
}

// skipRunes returns the offset of the first rune at or after i for which
// unicode.IsSpace is not space. A byte that is not UTF-8 is a one-byte
// non-space, as in strings.Fields.
func skipRunes(b []byte, i int, space bool) int {
	for i < len(b) {
		c, w := b[i], 1
		isSpace := c == ' ' || '\t' <= c && c <= '\r'
		if c >= utf8.RuneSelf {
			var r rune
			r, w = utf8.DecodeRune(b[i:])
			isSpace = unicode.IsSpace(r)
		}
		if isSpace != space {
			break
		}
		i += w
	}
	return i
}

// appendHashTags appends the encoding of AddHashTags' topics for text: the
// ordered list of its tokens that start with "#" and are longer than it.
func appendHashTags(dst, text []byte) []byte {
	isTag := func(tok []byte) bool { return len(tok) > 1 && tok[0] == '#' }
	n := 0
	for s, e := nextField(text, 0); s < e; s, e = nextField(text, e) {
		if isTag(text[s:e]) {
			n++
		}
	}
	dst = binary.AppendUvarint(append(dst, byte(adm.TagOrderedList)), uint64(n))
	for s, e := nextField(text, 0); s < e; s, e = nextField(text, e) {
		if tok := text[s:e]; isTag(tok) {
			dst = binary.AppendUvarint(append(dst, byte(adm.TagString)), uint64(len(tok)))
			dst = append(dst, tok...)
		}
	}
	return dst
}

// encodedSentiment is SentimentAnalysis' score for text. Apply lowers the
// whole text and then splits it; lowering never turns a space into a
// non-space or back, so lowering each token, rune by rune as strings.ToLower
// does (a byte that is not UTF-8 becomes U+FFFD), yields the same tokens.
func encodedSentiment(text []byte) float64 {
	pos, neg := 0, 0
	var scratch [64]byte
	for s, e := nextField(text, 0); s < e; s, e = nextField(text, e) {
		tok := scratch[:0]
		for i := s; i < e; {
			r, w := rune(text[i]), 1
			if r >= utf8.RuneSelf {
				r, w = utf8.DecodeRune(text[i:e])
			}
			tok = utf8.AppendRune(tok, unicode.ToLower(r))
			i += w
		}
		tok = bytes.Trim(tok, ".,!?#@")
		if positiveWords[string(tok)] {
			pos++
		}
		if negativeWords[string(tok)] {
			neg++
		}
	}
	return sentimentScore(pos, neg)
}
