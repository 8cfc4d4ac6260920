package adm

import (
	"encoding/binary"
	"fmt"
)

// AppendWithField appends to dst the encoding of the record at the front of
// rec with field name set to the value encValue encodes: byte for byte what
// AppendValue(dst, r.WithField(name, v)) appends, where r is the record
// Decode(rec) yields and encValue is AppendValue's encoding of v. A field
// already present keeps its place and takes the new value; otherwise the
// field goes last and the count is rewritten. Like Decode, it ignores bytes
// after the record. It fails, with dst unchanged, exactly when Decode fails —
// with Decode's error — or decodes something other than a record; rec is
// never modified.
//
// The output is spliced from rec's own bytes and encValue is copied
// verbatim, growing dst at most once, so rec must be in the form
// AppendValue writes: minimal varints, booleans 0 or 1. One walk checks that
// together with everything Decode checks, and finds the field. Input that is
// not canonical, or nests deeper or spreads wider than the walk tracks,
// takes the definition instead: decode, WithField, encode.
func AppendWithField(dst, rec []byte, name string, encValue []byte) ([]byte, error) {
	n, err := 0, errValidateFallback
	field := fieldSpan{name: name}
	if len(rec) > 0 && TypeTag(rec[0]) == TagRecord {
		n, err = canonicalRecordLen(rec, 0, &field)
	}
	if err == errValidateFallback {
		return appendWithFieldDecoded(dst, rec, name, encValue)
	}
	if err != nil {
		return dst, err
	}
	if field.end > 0 {
		dst = grow(dst, n-(field.end-field.at)+len(encValue))
		dst = append(dst, rec[:field.at]...)
		dst = append(dst, encValue...)
		return append(dst, rec[field.end:n]...), nil
	}
	cnt, body, _ := containerHeader(rec)
	dst = grow(dst, 1+uvarintLen(cnt+1)+n-body+uvarintLen(uint64(len(name)))+len(name)+len(encValue))
	dst = append(dst, byte(TagRecord))
	dst = binary.AppendUvarint(dst, cnt+1)
	dst = append(dst, rec[body:n]...)
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	dst = append(dst, name...)
	return append(dst, encValue...), nil
}

// grow returns dst with room for n more bytes, in one allocation when it
// must reallocate. (slices.Grow takes two under the race detector, which
// turns off the compiler's append-of-make rewrite.)
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	out := make([]byte, len(dst), len(dst)+n)
	copy(out, dst)
	return out
}

// appendWithFieldDecoded is AppendWithField by its definition.
func appendWithFieldDecoded(dst, rec []byte, name string, encValue []byte) ([]byte, error) {
	v, _, err := Decode(rec)
	if err != nil {
		return dst, err
	}
	r, ok := v.(*Record)
	if !ok {
		return dst, fmt.Errorf("adm: %s value is not a record", v.Tag())
	}
	fv, err := DecodeOne(encValue)
	if err != nil {
		return dst, fmt.Errorf("adm: value of field %q: %w", name, err)
	}
	return AppendValue(dst, r.WithField(name, fv)), nil
}

// fieldSpan is where the value of the top-level field name lies in a record,
// [at, end); end is 0 while it has not been found.
type fieldSpan struct {
	name    string
	at, end int
}

// canonicalLen returns the length of the value at the front of buf when
// Decode accepts it and AppendValue would write those same bytes back.
// Otherwise it returns Decode's error, found in Decode's order, or
// errValidateFallback when the value is not canonical, holds a record wider
// than validateEncodedMaxFields, or nests deeper than validateEncodedMaxDepth
// — the caller decodes instead.
func canonicalLen(buf []byte, depth int) (int, error) {
	if depth > validateEncodedMaxDepth {
		return 0, errValidateFallback
	}
	if len(buf) == 0 {
		return 0, fmt.Errorf("adm: decode of empty buffer")
	}
	tag := TypeTag(buf[0])
	switch tag {
	case TagBoolean:
		if len(buf) < 2 {
			return 0, errTruncated(tag)
		}
		if buf[1] > 1 {
			return 0, errValidateFallback
		}
		return 2, nil
	case TagInt64, TagDatetime:
		// A zig-zag varint is a uvarint underneath.
		_, n, err := readCanonicalUvarint(buf[1:], tag)
		if err != nil {
			return 0, err
		}
		return 1 + n, nil
	case TagString:
		ln, n, err := readCanonicalUvarint(buf[1:], tag)
		if err != nil {
			return 0, err
		}
		pos := 1 + n
		if uint64(len(buf)-pos) < ln {
			return 0, errTruncated(tag)
		}
		return pos + int(ln), nil
	case TagOrderedList, TagUnorderedList:
		cnt, pos, err := canonicalHeader(buf)
		if err != nil {
			return 0, err
		}
		for i := uint64(0); i < cnt; i++ {
			n, err := canonicalLen(buf[pos:], depth+1)
			if err != nil {
				return 0, err
			}
			pos += n
		}
		return pos, nil
	case TagRecord:
		return canonicalRecordLen(buf, depth, nil)
	}
	// Missing, null and the fixed-width payloads have one encoding each.
	return SkipValue(buf)
}

// canonicalRecordLen is canonicalLen's record case, in a frame of its own so
// that only records pay for the name array. A non-nil field is located among
// the record's fields on the way.
func canonicalRecordLen(buf []byte, depth int, field *fieldSpan) (int, error) {
	cnt, pos, err := canonicalHeader(buf)
	if err != nil {
		return 0, err
	}
	if cnt > validateEncodedMaxFields {
		return 0, errValidateFallback
	}
	var names [validateEncodedMaxFields][]byte
	for i := range names[:cnt] {
		ln, n, err := readCanonicalUvarint(buf[pos:], TagRecord)
		if err != nil {
			return 0, err
		}
		pos += n
		if uint64(len(buf)-pos) < ln {
			return 0, errTruncated(TagRecord)
		}
		names[i] = buf[pos : pos+int(ln)]
		pos += int(ln)
		if n, err = canonicalLen(buf[pos:], depth+1); err != nil {
			return 0, err
		}
		if field != nil && string(names[i]) == field.name {
			field.at, field.end = pos, pos+n
		}
		pos += n
	}
	// Decode compares names once every field has decoded, and reports the
	// first repeat.
	for i, name := range names[:cnt] {
		for _, prev := range names[:i] {
			if string(prev) == string(name) {
				return 0, fmt.Errorf("adm: duplicate field %q in record", name)
			}
		}
	}
	return pos, nil
}

// canonicalHeader is containerHeader for a count in minimal form.
func canonicalHeader(buf []byte) (cnt uint64, pos int, err error) {
	cnt, pos, err = containerHeader(buf)
	if err == nil && pos-1 != uvarintLen(cnt) {
		err = errValidateFallback
	}
	return cnt, pos, err
}

// readCanonicalUvarint reads the uvarint at the front of buf, refusing a
// truncated one as Decode does for a value of type tag, and a non-minimal one
// with errValidateFallback.
func readCanonicalUvarint(buf []byte, tag TypeTag) (uint64, int, error) {
	u, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, errTruncated(tag)
	}
	if n != uvarintLen(u) {
		return 0, 0, errValidateFallback
	}
	return u, n, nil
}
