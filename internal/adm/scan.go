package adm

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file provides byte-level access to encoded values: skipping, walking
// record fields, and validating against a RecordType — all without
// materializing Values. The storage write path uses these to validate
// records and extract index keys straight from the serialized bytes,
// avoiding a decode→re-encode round trip.

// SkipValue returns the encoded length of the single value at the front of
// buf, verifying that the encoding is structurally well-formed (no truncated
// payloads, no unknown tags).
func SkipValue(buf []byte) (int, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("adm: skip of empty buffer")
	}
	tag := TypeTag(buf[0])
	pos := 1
	switch tag {
	case TagMissing, TagNull:
		return pos, nil
	case TagBoolean:
		pos++
		if len(buf) < pos {
			return 0, errTruncated(tag)
		}
		return pos, nil
	case TagInt64, TagDatetime:
		_, n := binary.Varint(buf[pos:])
		if n <= 0 {
			return 0, errTruncated(tag)
		}
		return pos + n, nil
	case TagDouble:
		pos += 8
	case TagPoint:
		pos += 16
	case TagRectangle:
		pos += 32
	case TagString:
		ln, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return 0, errTruncated(tag)
		}
		pos += n
		if uint64(len(buf)-pos) < ln {
			return 0, errTruncated(tag)
		}
		pos += int(ln)
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
		cnt, pos, err := containerHeader(buf)
		if err != nil {
			return 0, err
		}
		for i := uint64(0); i < cnt; i++ {
			if _, _, pos, err = fieldAt(buf, pos); err != nil {
				return 0, err
			}
		}
		return pos, nil
	default:
		return 0, fmt.Errorf("adm: unknown tag 0x%02x", buf[0])
	}
	if len(buf) < pos {
		return 0, errTruncated(tag)
	}
	return pos, nil
}

// ScanRecordFields walks the top-level fields of the encoded record at the
// front of buf, invoking fn with each field's name and encoded value — both
// sub-slices of buf, valid only until buf is modified. fn returning false
// stops the walk early (without error). Returns the total encoded length of
// the record, or, on an early stop, the bytes consumed up to and including
// the last visited field.
func ScanRecordFields(buf []byte, fn func(name, encValue []byte) bool) (int, error) {
	if len(buf) == 0 || TypeTag(buf[0]) != TagRecord {
		return 0, fmt.Errorf("adm: scan of non-record value")
	}
	cnt, pos, err := containerHeader(buf)
	if err != nil {
		return 0, err
	}
	for i := uint64(0); i < cnt; i++ {
		name, encValue, next, err := fieldAt(buf, pos)
		if err != nil {
			return 0, err
		}
		pos = next
		if !fn(name, encValue) {
			break
		}
	}
	return pos, nil
}

// containerHeader reads the count of the encoded list or record at the front
// of buf and returns it with the offset of the first item or field.
func containerHeader(buf []byte) (cnt uint64, pos int, err error) {
	tag := TypeTag(buf[0])
	cnt, n := binary.Uvarint(buf[1:])
	if n <= 0 {
		return 0, 0, errTruncated(tag)
	}
	pos = 1 + n
	// Each item needs at least one byte.
	if cnt > uint64(len(buf)-pos) {
		return 0, 0, errTruncated(tag)
	}
	return cnt, pos, nil
}

// fieldAt splits the record field encoded at buf[pos:] into its name and its
// structurally verified value, and returns the offset of the next field.
func fieldAt(buf []byte, pos int) (name, encValue []byte, next int, err error) {
	ln, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return nil, nil, 0, errTruncated(TagRecord)
	}
	pos += n
	if uint64(len(buf)-pos) < ln {
		return nil, nil, 0, errTruncated(TagRecord)
	}
	name = buf[pos : pos+int(ln)]
	pos += int(ln)
	used, err := SkipValue(buf[pos:])
	if err != nil {
		return nil, nil, 0, err
	}
	return name, buf[pos : pos+used], pos + used, nil
}

// The allocation-free walk of ValidateEncoded tracks a record's field names
// in a fixed array per nesting level; a record wider than
// validateEncodedMaxFields, or values nested deeper than
// validateEncodedMaxDepth (each level costs a stack frame holding that
// array), fall back to a full decode.
const (
	validateEncodedMaxFields = 64
	validateEncodedMaxDepth  = 32
)

// ValidateEncoded reports whether the single encoded value in buf conforms
// to the record type, with the same outcome as DecodeOne followed by
// Validate — literally: trailing bytes, malformed encodings, undeclared
// fields of closed types, and a repeated field name in any record at any
// depth, declared or not, are rejected as the decoder and Validate reject
// them — but on the bytes, without materializing anything. Declared nested
// record types run the same field walk the top level runs, declared list
// types check each item against the item type, and values the type does not
// describe (undeclared fields of open records) are walked for what DecodeOne
// would refuse. Only what exceeds the fixed-size tracking (see
// validateEncodedMaxFields) or a Type this file does not know is handed to
// the decoding path, whose verdict is then the reference's by construction.
func (r *RecordType) ValidateEncoded(buf []byte) error {
	if len(buf) == 0 {
		return fmt.Errorf("adm: decode of empty buffer")
	}
	if TypeTag(buf[0]) != TagRecord {
		return fmt.Errorf("adm: value of type %s does not conform to record type %s", TypeTag(buf[0]), r.Name())
	}
	consumed, err := r.validateEncodedFields(buf, 0)
	if errors.Is(err, errValidateFallback) {
		return r.validateDecoded(buf)
	}
	if err != nil {
		return err
	}
	if consumed != len(buf) {
		return fmt.Errorf("adm: %d trailing bytes after value", len(buf)-consumed)
	}
	return nil
}

// validateEncodedFields validates the encoded record at the front of buf
// (its tag already checked) against r, depth levels below the top, and
// returns the record's encoded length.
func (r *RecordType) validateEncodedFields(buf []byte, depth int) (int, error) {
	if len(r.fields) > validateEncodedMaxFields {
		return 0, errValidateFallback
	}
	cnt, pos, err := containerHeader(buf)
	if err != nil {
		return 0, err
	}
	if cnt > validateEncodedMaxFields {
		return 0, errValidateFallback
	}
	var seen [validateEncodedMaxFields]bool
	var names [validateEncodedMaxFields][]byte
	for i := 0; i < int(cnt); i++ {
		name, encValue, next, err := fieldAt(buf, pos)
		if err != nil {
			return 0, err
		}
		pos = next
		// Duplicate field names are invalid regardless of the type; the
		// decode path rejects them in NewRecord.
		for _, prev := range names[:i] {
			if string(prev) == string(name) {
				return 0, fmt.Errorf("adm: duplicate field %q in record", name)
			}
		}
		names[i] = name
		idx, declared := r.index[string(name)]
		if !declared {
			if !r.open {
				return 0, fmt.Errorf("adm: undeclared field %q in closed type %s", name, r.Name())
			}
			if err := validateEncodedValue(nil, encValue, depth+1); err != nil {
				return 0, err
			}
			continue
		}
		seen[idx] = true
		f := &r.fields[idx]
		switch TypeTag(encValue[0]) {
		case TagMissing:
			if !f.Optional {
				return 0, fmt.Errorf("adm: missing required field %q of type %s", f.Name, r.Name())
			}
			continue
		case TagNull:
			if !f.Optional {
				return 0, fmt.Errorf("adm: null value for non-optional field %q of type %s", f.Name, r.Name())
			}
			continue
		}
		if err := validateEncodedValue(f.Type, encValue, depth+1); err != nil {
			return 0, fmt.Errorf("adm: field %q: %w", f.Name, err)
		}
	}
	for i := range r.fields {
		if f := &r.fields[i]; !seen[i] && !f.Optional {
			return 0, fmt.Errorf("adm: missing required field %q of type %s", f.Name, r.Name())
		}
	}
	return pos, nil
}

// validateEncodedValue is t.Validate on the structurally verified encoded
// value enc, without decoding it. A nil t is an undeclared value: anything
// Decode accepts conforms.
func validateEncodedValue(t Type, enc []byte, depth int) error {
	if depth > validateEncodedMaxDepth {
		return errValidateFallback
	}
	tag := TypeTag(enc[0])
	switch t := t.(type) {
	case nil:
		// What Decode checks beyond structure — that no name repeats, at
		// any depth — canonicalLen checks too (a value not in canonical
		// form sends the whole record to the decoding path).
		_, err := canonicalLen(enc, depth)
		return err
	case *PrimitiveType:
		if tag != t.tag && !(t.tag == TagDouble && tag == TagInt64) {
			return fmt.Errorf("adm: value of type %s does not conform to %s", tag, t.Name())
		}
		return nil
	case *RecordType:
		if tag != TagRecord {
			return fmt.Errorf("adm: value of type %s does not conform to record type %s", tag, t.Name())
		}
		_, err := t.validateEncodedFields(enc, depth)
		return err
	case *OrderedListType:
		if tag != TagOrderedList {
			return fmt.Errorf("adm: value of type %s does not conform to %s", tag, t.Name())
		}
		return validateEncodedItems(t.Item, "list item", enc, depth)
	case *UnorderedListType:
		if tag != TagUnorderedList {
			return fmt.Errorf("adm: value of type %s does not conform to %s", tag, t.Name())
		}
		return validateEncodedItems(t.Item, "bag item", enc, depth)
	}
	return errValidateFallback
}

// validateEncodedItems validates each item of the encoded list enc against
// the item type.
func validateEncodedItems(item Type, what string, enc []byte, depth int) error {
	cnt, pos, err := containerHeader(enc)
	if err != nil {
		return err
	}
	for i := uint64(0); i < cnt; i++ {
		used, err := SkipValue(enc[pos:])
		if err != nil {
			return err
		}
		if err := validateEncodedValue(item, enc[pos:pos+used], depth+1); err != nil {
			return fmt.Errorf("adm: %s %d: %w", what, i, err)
		}
		pos += used
	}
	return nil
}

// errValidateFallback is an internal sentinel: the byte-level walk met
// something beyond its fixed-size tracking and the caller should decode.
var errValidateFallback = errors.New("adm: validate fallback")

func (r *RecordType) validateDecoded(buf []byte) error {
	v, err := DecodeOne(buf)
	if err != nil {
		return err
	}
	return r.Validate(v)
}
