package adm

import (
	"encoding/binary"
	"fmt"
)

// This file provides byte-level access to encoded values: checking and
// skipping them, walking record fields, and validating against a RecordType
// — all without materializing Values. The storage write path uses these to
// validate records and extract index keys straight from the serialized
// bytes, avoiding a decode→re-encode round trip.

// SkipValue returns the encoded length of the single value at the front of
// buf when Decode accepts it, and Decode's error when it does not. It is the
// one check of the binary format: the bytes must be those AppendValue writes
// — whole payloads, known tags, minimal varints, booleans 0 or 1 — and no
// record at any depth may repeat a field name. Decode, DecodeOne,
// HashEncoded, AppendWithField and ValidateFields take its verdict.
func SkipValue(buf []byte) (int, error) {
	n, err, _ := skip(buf, nil, nil)
	return n, err
}

// sizes counts what Decode cuts from its slabs: the records of a value, and
// the fields and list items in all of them; and the strings and field names,
// which it cuts from one copy of the value's bytes, made only when there are
// any.
type sizes struct{ records, fields, items, strings int }

// skip is SkipValue applying the rules of t, when t is not nil, in the same
// descent: typeErr is t.Validate's verdict on the value, and counts only
// when err is nil. Once a value breaks a rule, the rest of it gets the byte
// checks alone. Each record and list the walk enters is counted in z, when z
// is not nil. (A shape type parameter, with a no-op instantiation for the
// other walks, would call the counter through the generic dictionary: the
// calls cost the other walks time, and z would move to the heap.)
func skip(buf []byte, t Type, z *sizes) (n int, err, typeErr error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("adm: decode of empty buffer"), nil
	}
	tag := TypeTag(buf[0])
	if t != nil && tag != t.Tag() && !(tag == TagInt64 && t.Tag() == TagDouble) {
		if n, err, _ = skip(buf, nil, z); err != nil {
			return 0, err, nil
		}
		what := ""
		if t.Tag() == TagRecord {
			what = "record type "
		}
		return n, nil, fmt.Errorf("adm: value of type %s does not conform to %s%s", tag, what, t.Name())
	}
	pos := 1
	switch tag {
	case TagMissing, TagNull:
		return pos, nil, nil
	case TagBoolean:
		if len(buf) < 2 {
			return 0, errTruncated(tag), nil
		}
		if buf[1] > 1 {
			return 0, fmt.Errorf("adm: boolean byte 0x%02x is neither 0 nor 1", buf[1]), nil
		}
		return 2, nil, nil
	case TagInt64, TagDatetime:
		// A zig-zag varint is a uvarint underneath.
		_, n, err := uvarint(buf[pos:], tag)
		if err != nil {
			return 0, err, nil
		}
		return pos + n, nil, nil
	case TagDouble:
		pos += 8
	case TagPoint:
		pos += 16
	case TagRectangle:
		pos += 32
	case TagString:
		ln, n, err := uvarint(buf[pos:], tag)
		if err != nil {
			return 0, err, nil
		}
		pos += n
		if uint64(len(buf)-pos) < ln {
			return 0, errTruncated(tag), nil
		}
		if z != nil {
			z.strings++
		}
		return pos + int(ln), nil, nil
	case TagOrderedList, TagUnorderedList:
		cnt, pos, err := containerHeader(buf)
		if err != nil {
			return 0, err, nil
		}
		if z != nil {
			z.items += int(cnt)
		}
		var item Type
		what := "list item"
		switch lt := t.(type) {
		case *OrderedListType:
			item = lt.Item
		case *UnorderedListType:
			item, what = lt.Item, "bag item"
		}
		for i := uint64(0); i < cnt; i++ {
			used, err, itemErr := skip(buf[pos:], item, z)
			if err != nil {
				return 0, err, nil
			}
			if itemErr != nil {
				typeErr, item = fmt.Errorf("adm: %s %d: %w", what, i, itemErr), nil
			}
			pos += used
		}
		return pos, nil, typeErr
	case TagRecord:
		rt, _ := t.(*RecordType)
		return scanRecord(buf, rt, nil, z)
	default:
		return 0, fmt.Errorf("adm: unknown tag 0x%02x", buf[0]), nil
	}
	if len(buf) < pos {
		return 0, errTruncated(tag), nil
	}
	return pos, nil, nil
}

// checkOne is DecodeOne's verdict on buf: SkipValue's, and no trailing bytes.
func checkOne(buf []byte) error {
	n, err := SkipValue(buf)
	if err == nil {
		err = trailing(buf, n)
	}
	return err
}

// trailing refuses what follows the n-byte value at the front of buf.
func trailing(buf []byte, n int) error {
	if n != len(buf) {
		return fmt.Errorf("adm: %d trailing bytes after value", len(buf)-n)
	}
	return nil
}

// ScanRecordFields walks the top-level fields of the encoded record at the
// front of buf, invoking fn with each field's name and encoded value — both
// sub-slices of buf, valid only until buf is modified, each value one that
// SkipValue accepts. fn returning false stops the walk early (without
// error). Returns the total encoded length of the record, or, on an early
// stop, the bytes consumed up to and including the last visited field. A
// walk that reaches the end fails exactly when SkipValue fails, a repeated
// field name included; one that fn stops leaves the rest unchecked and
// reports no repeat.
func ScanRecordFields(buf []byte, fn func(name, encValue []byte) bool) (int, error) {
	if len(buf) == 0 || TypeTag(buf[0]) != TagRecord {
		return 0, fmt.Errorf("adm: scan of non-record value")
	}
	n, err, _ := scanRecord(buf, nil, fn, nil)
	return n, err
}

// scanRecord is the one record walk, on a record whose tag is checked:
// SkipValue's record case when r and fn are nil, ScanRecordFields with fn,
// and with r it applies r's rules to each field in the descent that checks
// its bytes, as skip does. Field names go in a stack array and, past it, in
// a map built on the first overflow; like Decode, it reports the first
// repeat only once every field has passed.
func scanRecord(buf []byte, r *RecordType, fn func(name, encValue []byte) bool, z *sizes) (n int, err, typeErr error) {
	cnt, pos, err := containerHeader(buf)
	if err != nil {
		return 0, err, nil
	}
	if z != nil {
		z.records++
		z.fields += int(cnt)
		z.strings += int(cnt)
	}
	var names [16][]byte
	var wide map[string]struct{}
	var dup []byte
	repeated := false
	var small [16]bool
	seen := small[:]
	if r != nil && len(r.fields) > len(small) {
		seen = make([]bool, len(r.fields))
	}
	for i := 0; i < int(cnt); i++ {
		ln, n, err := uvarint(buf[pos:], TagRecord)
		if err != nil {
			return 0, err, nil
		}
		pos += n
		if uint64(len(buf)-pos) < ln {
			return 0, errTruncated(TagRecord), nil
		}
		name := buf[pos : pos+int(ln)]
		pos += int(ln)
		var t Type
		if r != nil && typeErr == nil {
			t, typeErr = r.field(i, name, buf[pos:], seen)
		}
		used, err, valueErr := skip(buf[pos:], t, z)
		if err != nil {
			return 0, err, nil
		}
		if valueErr != nil {
			typeErr = fmt.Errorf("adm: field %q: %w", name, valueErr)
		}
		pos += used
		switch {
		case repeated:
			// Only the first repeat is reported.
		case i < len(names):
			for _, prev := range names[:i] {
				if string(prev) == string(name) {
					dup, repeated = name, true
					break
				}
			}
			names[i] = name
		default:
			if wide == nil {
				wide = make(map[string]struct{}, 2*len(names))
				for _, n := range names {
					wide[string(n)] = struct{}{}
				}
			}
			if _, seen := wide[string(name)]; seen {
				dup, repeated = name, true
			} else {
				wide[string(name)] = struct{}{}
			}
		}
		if fn != nil && !fn(name, buf[pos-used:pos]) {
			return pos, nil, typeErr
		}
	}
	if repeated {
		return 0, fmt.Errorf("adm: duplicate field %q in record", dup), nil
	}
	for i := 0; r != nil && typeErr == nil && i < len(r.fields); i++ {
		if f := &r.fields[i]; !seen[i] && !f.Optional {
			typeErr = fmt.Errorf("adm: missing required field %q of type %s", f.Name, r.Name())
		}
	}
	return pos, nil, typeErr
}

// field is r's rule for the field name, the i-th of its record, whose value
// enc begins: the type the value must have, or nil when any value passes, or
// the rule the field breaks. It marks a declared field in seen, looking for
// it first at its own position.
func (r *RecordType) field(i int, name, enc []byte, seen []bool) (Type, error) {
	if i >= len(r.fields) || r.fields[i].Name != string(name) {
		var declared bool
		if i, declared = r.index[string(name)]; !declared {
			if !r.open {
				return nil, fmt.Errorf("adm: undeclared field %q in closed type %s", name, r.Name())
			}
			return nil, nil
		}
	}
	seen[i] = true
	f := &r.fields[i]
	switch {
	case len(enc) == 0 || TypeTag(enc[0]) > TagNull:
		return f.Type, nil // the walk refuses an empty enc
	case f.Optional:
		return nil, nil
	case TypeTag(enc[0]) == TagMissing:
		return nil, fmt.Errorf("adm: missing required field %q of type %s", f.Name, r.Name())
	}
	return nil, fmt.Errorf("adm: null value for non-optional field %q of type %s", f.Name, r.Name())
}

// containerHeader reads the count of the encoded list or record at the front
// of buf and returns it with the offset of the first item or field.
func containerHeader(buf []byte) (cnt uint64, pos int, err error) {
	tag := TypeTag(buf[0])
	cnt, n, err := uvarint(buf[1:], tag)
	if err != nil {
		return 0, 0, err
	}
	pos = 1 + n
	// Each item needs at least one byte.
	if cnt > uint64(len(buf)-pos) {
		return 0, 0, errTruncated(tag)
	}
	return cnt, pos, nil
}

// uvarint reads the uvarint at the front of buf — a count, a length or the
// zig-zag number of a value of type tag — in the minimal form AppendValue
// writes: any longer form ends in a zero byte.
func uvarint(buf []byte, tag TypeTag) (uint64, int, error) {
	if len(buf) > 0 && buf[0] < 0x80 {
		return uint64(buf[0]), 1, nil // the common case, without binary.Uvarint's loop
	}
	u, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, errTruncated(tag)
	}
	if n > 1 && buf[n-1] == 0 {
		return 0, 0, fmt.Errorf("adm: overlong varint in %s value", tag)
	}
	return u, n, nil
}

// ValidateEncoded reports whether the single encoded value in buf conforms
// to the record type, with the same outcome as DecodeOne followed by
// Validate, but on the bytes, without materializing anything. It is
// ValidateFields without a callback.
func (r *RecordType) ValidateEncoded(buf []byte) error {
	return r.ValidateFields(buf, nil)
}

// ValidateFields is ValidateEncoded handing each top-level field of the
// record to fn, when fn is not nil, as ScanRecordFields does; the fields are
// whole only when it returns nil. One walk gives DecodeOne's verdict and
// applies the type rules, whose verdict counts only once the bytes have
// passed, to each nested value in the descent that checks its bytes.
func (r *RecordType) ValidateFields(buf []byte, fn func(name, enc []byte)) error {
	var n int
	var err, typeErr error
	if len(buf) > 0 && TypeTag(buf[0]) == TagRecord {
		var visit func(name, enc []byte) bool
		if fn != nil {
			visit = func(name, enc []byte) bool { fn(name, enc); return true }
		}
		n, err, typeErr = scanRecord(buf, r, visit, nil)
	} else {
		n, err, typeErr = skip(buf, r, nil)
	}
	if err == nil {
		err = trailing(buf, n)
	}
	if err != nil {
		return err
	}
	return typeErr
}
