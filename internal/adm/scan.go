package adm

import (
	"encoding/binary"
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
		cnt, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return 0, errTruncated(tag)
		}
		pos += n
		if cnt > uint64(len(buf)-pos) {
			return 0, errTruncated(tag)
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
		cnt, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return 0, errTruncated(tag)
		}
		pos += n
		if cnt > uint64(len(buf)-pos) {
			return 0, errTruncated(tag)
		}
		for i := uint64(0); i < cnt; i++ {
			ln, n := binary.Uvarint(buf[pos:])
			if n <= 0 {
				return 0, errTruncated(tag)
			}
			pos += n
			if uint64(len(buf)-pos) < ln {
				return 0, errTruncated(tag)
			}
			pos += int(ln)
			used, err := SkipValue(buf[pos:])
			if err != nil {
				return 0, err
			}
			pos += used
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
	pos := 1
	cnt, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return 0, errTruncated(TagRecord)
	}
	pos += n
	if cnt > uint64(len(buf)-pos) {
		return 0, errTruncated(TagRecord)
	}
	for i := uint64(0); i < cnt; i++ {
		ln, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return 0, errTruncated(TagRecord)
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
		if !fn(name, buf[pos:pos+used]) {
			return pos + used, nil
		}
		pos += used
	}
	return pos, nil
}

// validateEncodedMaxFields bounds the allocation-free duplicate/seen
// tracking in ValidateEncoded; larger records fall back to a full decode.
const validateEncodedMaxFields = 64

// ValidateEncoded reports whether the single encoded value in buf conforms
// to the record type, with the same outcome as DecodeOne followed by
// Validate — including rejection of trailing bytes, duplicate field names,
// and (for closed types) undeclared fields — but without materializing the
// record for the common case of primitive-typed fields. Records wider than
// an internal bound, or with declared fields of nested record/list types,
// transparently fall back to the decoding path.
func (r *RecordType) ValidateEncoded(buf []byte) error {
	if len(buf) == 0 {
		return fmt.Errorf("adm: decode of empty buffer")
	}
	if TypeTag(buf[0]) != TagRecord {
		return fmt.Errorf("adm: value of type %s does not conform to record type %s", TypeTag(buf[0]), r.Name())
	}
	if len(r.fields) > validateEncodedMaxFields {
		return r.validateDecoded(buf)
	}
	var seen [validateEncodedMaxFields]bool
	var names [validateEncodedMaxFields][]byte
	nNames := 0
	var walkErr error
	consumed, err := ScanRecordFields(buf, func(name, encValue []byte) bool {
		// Duplicate field names are invalid regardless of the type; the
		// decode path rejects them in NewRecord.
		for i := 0; i < nNames; i++ {
			if string(names[i]) == string(name) {
				walkErr = fmt.Errorf("adm: duplicate field %q in record", name)
				return false
			}
		}
		if nNames < len(names) {
			names[nNames] = name
			nNames++
		} else {
			walkErr = errValidateFallback
			return false
		}
		idx, declared := r.index[string(name)]
		if !declared {
			if !r.open {
				walkErr = fmt.Errorf("adm: undeclared field %q in closed type %s", name, r.Name())
				return false
			}
			return true
		}
		seen[idx] = true
		f := r.fields[idx]
		tag := TypeTag(encValue[0])
		switch tag {
		case TagMissing:
			if !f.Optional {
				walkErr = fmt.Errorf("adm: missing required field %q of type %s", f.Name, r.Name())
				return false
			}
			return true
		case TagNull:
			if !f.Optional {
				walkErr = fmt.Errorf("adm: null value for non-optional field %q of type %s", f.Name, r.Name())
				return false
			}
			return true
		}
		pt, isPrim := f.Type.(*PrimitiveType)
		if !isPrim {
			// Nested record/list types keep their full structural
			// validation: decode just this field.
			v, _, err := Decode(encValue)
			if err != nil {
				walkErr = err
				return false
			}
			if err := f.Type.Validate(v); err != nil {
				walkErr = fmt.Errorf("adm: field %q: %w", f.Name, err)
				return false
			}
			return true
		}
		if tag != pt.tag && !(pt.tag == TagDouble && tag == TagInt64) {
			walkErr = fmt.Errorf("adm: field %q: value of type %s does not conform to %s", f.Name, tag, pt.Name())
			return false
		}
		return true
	})
	if walkErr == errValidateFallback {
		return r.validateDecoded(buf)
	}
	if walkErr != nil {
		return walkErr
	}
	if err != nil {
		return err
	}
	if consumed != len(buf) {
		return fmt.Errorf("adm: %d trailing bytes after value", len(buf)-consumed)
	}
	for i, f := range r.fields {
		if !seen[i] && !f.Optional {
			return fmt.Errorf("adm: missing required field %q of type %s", f.Name, r.Name())
		}
	}
	return nil
}

// errValidateFallback is an internal sentinel: the byte-level walk hit a
// record too wide for its fixed-size tracking and the caller should decode.
var errValidateFallback = fmt.Errorf("adm: validate fallback")

func (r *RecordType) validateDecoded(buf []byte) error {
	v, err := DecodeOne(buf)
	if err != nil {
		return err
	}
	return r.Validate(v)
}
