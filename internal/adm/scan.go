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
// HashEncoded, AppendWithField and ValidateEncoded take its verdict.
func SkipValue(buf []byte) (int, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("adm: decode of empty buffer")
	}
	tag := TypeTag(buf[0])
	pos := 1
	switch tag {
	case TagMissing, TagNull:
		return pos, nil
	case TagBoolean:
		if len(buf) < 2 {
			return 0, errTruncated(tag)
		}
		if buf[1] > 1 {
			return 0, fmt.Errorf("adm: boolean byte 0x%02x is neither 0 nor 1", buf[1])
		}
		return 2, nil
	case TagInt64, TagDatetime:
		// A zig-zag varint is a uvarint underneath.
		_, n, err := uvarint(buf[pos:], tag)
		if err != nil {
			return 0, err
		}
		return pos + n, nil
	case TagDouble:
		pos += 8
	case TagPoint:
		pos += 16
	case TagRectangle:
		pos += 32
	case TagString:
		ln, n, err := uvarint(buf[pos:], tag)
		if err != nil {
			return 0, err
		}
		pos += n
		if uint64(len(buf)-pos) < ln {
			return 0, errTruncated(tag)
		}
		return pos + int(ln), nil
	case TagOrderedList, TagUnorderedList:
		cnt, pos, err := containerHeader(buf)
		if err != nil {
			return 0, err
		}
		for i := uint64(0); i < cnt; i++ {
			used, err := SkipValue(buf[pos:])
			if err != nil {
				return 0, err
			}
			pos += used
		}
		return pos, nil
	case TagRecord:
		return scanRecord(buf, nil)
	default:
		return 0, fmt.Errorf("adm: unknown tag 0x%02x", buf[0])
	}
	if len(buf) < pos {
		return 0, errTruncated(tag)
	}
	return pos, nil
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
	return scanRecord(buf, fn)
}

// scanRecord is ScanRecordFields on a record whose tag is checked, and
// SkipValue's record case when fn is nil. Field names go in a stack array
// and, past it, in a map built on the first overflow; like Decode, it
// reports the first repeat only once every field has passed.
func scanRecord(buf []byte, fn func(name, encValue []byte) bool) (int, error) {
	cnt, pos, err := containerHeader(buf)
	if err != nil {
		return 0, err
	}
	var names [16][]byte
	var wide map[string]struct{}
	var dup []byte
	repeated := false
	for i := 0; i < int(cnt); i++ {
		ln, n, err := uvarint(buf[pos:], TagRecord)
		if err != nil {
			return 0, err
		}
		pos += n
		if uint64(len(buf)-pos) < ln {
			return 0, errTruncated(TagRecord)
		}
		name := buf[pos : pos+int(ln)]
		pos += int(ln)
		used, err := SkipValue(buf[pos:])
		if err != nil {
			return 0, err
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
			return pos, nil
		}
	}
	if repeated {
		return 0, fmt.Errorf("adm: duplicate field %q in record", dup)
	}
	return pos, nil
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
// Validate, but on the bytes, without materializing anything. SkipValue's
// walk of the record gives DecodeOne's verdict and hands each field on the
// way to the type rules, whose verdict counts only once the bytes have
// passed: declared nested record types run the same rules the top level
// runs, declared list types check each item against the item type, and
// values the type does not describe (undeclared fields of open records) need
// nothing more.
func (r *RecordType) ValidateEncoded(buf []byte) error {
	if len(buf) == 0 || TypeTag(buf[0]) != TagRecord {
		if err := checkOne(buf); err != nil {
			return err
		}
		return conforms(r, buf)
	}
	n, err, typeErr := r.scanConforming(buf)
	if err == nil {
		err = trailing(buf, n)
	}
	if err != nil {
		return err
	}
	return typeErr
}

// conforms is t.Validate on enc, a value SkipValue accepted, without
// decoding it.
func conforms(t Type, enc []byte) error {
	tag := TypeTag(enc[0])
	var item Type
	var listTag TypeTag
	var what string
	switch tt := t.(type) {
	case *PrimitiveType:
		if tag != tt.tag && !(tt.tag == TagDouble && tag == TagInt64) {
			return fmt.Errorf("adm: value of type %s does not conform to %s", tag, tt.Name())
		}
		return nil
	case *RecordType:
		if tag != TagRecord {
			return fmt.Errorf("adm: value of type %s does not conform to record type %s", tag, tt.Name())
		}
		_, _, typeErr := tt.scanConforming(enc) // enc is checked: no other error
		return typeErr
	case *OrderedListType:
		item, listTag, what = tt.Item, TagOrderedList, "list item"
	case *UnorderedListType:
		item, listTag, what = tt.Item, TagUnorderedList, "bag item"
	}
	// Type is sealed: t is one of the two list types.
	if tag != listTag {
		return fmt.Errorf("adm: value of type %s does not conform to %s", tag, t.Name())
	}
	// enc is checked, so neither the header nor an item can fail.
	cnt, pos, _ := containerHeader(enc)
	for i := uint64(0); i < cnt; i++ {
		used, _ := SkipValue(enc[pos:])
		if err := conforms(item, enc[pos:pos+used]); err != nil {
			return fmt.Errorf("adm: %s %d: %w", what, i, err)
		}
		pos += used
	}
	return nil
}

// scanConforming is scanRecord on the record enc, returning its length and
// error, with r.Validate's verdict on each field it hands over: typeErr is
// the first field that does not conform, or else the first required field
// that is absent.
func (r *RecordType) scanConforming(enc []byte) (n int, err, typeErr error) {
	var small [16]bool
	seen := small[:]
	if len(r.fields) > len(small) {
		seen = make([]bool, len(r.fields))
	}
	n, err = scanRecord(enc, func(name, encValue []byte) bool {
		if typeErr == nil {
			typeErr = r.conformsField(name, encValue, seen)
		}
		return true
	})
	for i := 0; typeErr == nil && i < len(r.fields); i++ {
		if f := &r.fields[i]; !seen[i] && !f.Optional {
			typeErr = fmt.Errorf("adm: missing required field %q of type %s", f.Name, r.Name())
		}
	}
	return n, err, typeErr
}

// conformsField is r.Validate's rule for one field of a record, marking in
// seen the declared field it is.
func (r *RecordType) conformsField(name, encValue []byte, seen []bool) error {
	idx, declared := r.index[string(name)]
	if !declared {
		if !r.open {
			return fmt.Errorf("adm: undeclared field %q in closed type %s", name, r.Name())
		}
		return nil
	}
	seen[idx] = true
	f := &r.fields[idx]
	switch TypeTag(encValue[0]) {
	case TagMissing:
		if !f.Optional {
			return fmt.Errorf("adm: missing required field %q of type %s", f.Name, r.Name())
		}
		return nil
	case TagNull:
		if !f.Optional {
			return fmt.Errorf("adm: null value for non-optional field %q of type %s", f.Name, r.Name())
		}
		return nil
	}
	if err := conforms(f.Type, encValue); err != nil {
		return fmt.Errorf("adm: field %q: %w", f.Name, err)
	}
	return nil
}
