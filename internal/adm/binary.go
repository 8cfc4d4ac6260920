package adm

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// The binary format is a compact tagged encoding used for frames moving
// between Hyracks operators and for persisted LSM entries:
//
//	value   := tag payload
//	boolean := 0x00 | 0x01
//	int64   := zig-zag varint
//	double  := 8-byte little-endian IEEE bits
//	string  := uvarint length, bytes
//	datetime:= zig-zag varint millis
//	point   := two doubles
//	rect    := four doubles
//	list    := uvarint count, values...
//	record  := uvarint count, (string name, value)...
//
// The encoding is self-describing: no schema is needed to decode. Each value
// has one encoding, the one AppendValue writes: every varint in minimal form,
// a boolean byte 0 or 1, and no field name twice in any record. SkipValue
// checks this rule, and no reader accepts other bytes, so a key read off a
// record's bytes is the key AppendValue builds from its decoded value.

// AppendValue appends the binary encoding of v to dst and returns the
// extended slice.
func AppendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.Tag()))
	switch t := v.(type) {
	case Missing, Null:
		// tag only
	case Boolean:
		if t {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case Int64:
		dst = binary.AppendVarint(dst, int64(t))
	case Double:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(float64(t)))
	case String:
		dst = binary.AppendUvarint(dst, uint64(len(t)))
		dst = append(dst, t...)
	case Datetime:
		dst = binary.AppendVarint(dst, int64(t))
	case Point:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t.X))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t.Y))
	case Rectangle:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t.Low.X))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t.Low.Y))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t.High.X))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t.High.Y))
	case *OrderedList:
		dst = binary.AppendUvarint(dst, uint64(len(t.Items)))
		for _, it := range t.Items {
			dst = AppendValue(dst, it)
		}
	case *UnorderedList:
		dst = binary.AppendUvarint(dst, uint64(len(t.Items)))
		for _, it := range t.Items {
			dst = AppendValue(dst, it)
		}
	case *Record:
		dst = binary.AppendUvarint(dst, uint64(len(t.fields)))
		for _, f := range t.fields {
			dst = binary.AppendUvarint(dst, uint64(len(f.name)))
			dst = append(dst, f.name...)
			dst = AppendValue(dst, f.value)
		}
	default:
		panic(fmt.Sprintf("adm: unencodable value %T", v))
	}
	return dst
}

// Encode returns the binary encoding of v, in a slice of exactly its size.
func Encode(v Value) []byte { return AppendValue(make([]byte, 0, encodedLen(v)), v) }

// encodedLen is the number of bytes AppendValue appends for v: its mirror,
// case for case.
func encodedLen(v Value) int {
	n := 1 // tag
	switch t := v.(type) {
	case Missing, Null:
	case Boolean:
		n++
	case Int64:
		n += varintLen(int64(t))
	case Double:
		n += 8
	case String:
		n += uvarintLen(uint64(len(t))) + len(t)
	case Datetime:
		n += varintLen(int64(t))
	case Point:
		n += 16
	case Rectangle:
		n += 32
	case *OrderedList:
		n += uvarintLen(uint64(len(t.Items)))
		for _, it := range t.Items {
			n += encodedLen(it)
		}
	case *UnorderedList:
		n += uvarintLen(uint64(len(t.Items)))
		for _, it := range t.Items {
			n += encodedLen(it)
		}
	case *Record:
		n += uvarintLen(uint64(len(t.fields)))
		for _, f := range t.fields {
			n += uvarintLen(uint64(len(f.name))) + len(f.name) + encodedLen(f.value)
		}
	default:
		panic(fmt.Sprintf("adm: unencodable value %T", v))
	}
	return n
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the zig-zag length binary.AppendVarint writes for x.
func varintLen(x int64) int { return uvarintLen(uint64(x)<<1 ^ uint64(x>>63)) }

// Decode decodes a single value from the front of buf, returning the value
// and the number of bytes consumed. It accepts exactly the values SkipValue
// accepts, and fails with its error. The value shares one copy of exactly its
// own bytes — not of buf, nor of what follows the value in it: every field
// name and String inside the value is a substring of that copy, so retaining
// any one of them keeps the whole copy alive. Its records, fields and list
// items are cut from three slabs, so a retained nested record or list keeps
// the slabs alive too.
func Decode(buf []byte) (Value, int, error) {
	var z sizes
	n, err, _ := skip(buf, nil, &z)
	if err != nil {
		return nil, 0, err
	}
	return build(buf[:n], &z), n, nil
}

// DecodeOne decodes exactly one value from buf, rejecting trailing bytes.
// The value shares one copy of buf, and slabs, as Decode's does.
func DecodeOne(buf []byte) (Value, error) {
	var z sizes
	n, err, _ := skip(buf, nil, &z)
	if err == nil {
		err = trailing(buf, n)
	}
	if err != nil {
		return nil, err
	}
	return build(buf, &z), nil
}

// build is the value buf holds, bytes SkipValue accepted whose records,
// fields, items and strings z counted. A value with no string and no field
// name has nothing to cut from a copy of its bytes, so it makes none.
func build(buf []byte, z *sizes) Value {
	b := builder{
		records: make([]Record, z.records),
		fields:  make([]field, z.fields),
		items:   make([]Value, z.items),
	}
	if z.strings > 0 {
		b.s = string(buf)
	}
	v, _ := b.value(buf, 0)
	return v
}

// builder cuts a checked value's strings from s, a copy of its bytes, and
// its records, fields and list items from slabs the check walk sized. Each
// record's fields and each list's items are cut with a full slice
// expression, so appending to them never writes into a sibling's slots.
type builder struct {
	s       string
	records []Record
	fields  []field
	items   []Value
}

// value builds the value at buf[off:] and returns it with its length.
func (b *builder) value(buf []byte, off int) (Value, int) {
	f64 := func(at int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(buf[off+at:])) }
	switch tag := TypeTag(buf[off]); tag {
	case TagMissing:
		return Missing{}, 1
	case TagNull:
		return Null{}, 1
	case TagBoolean:
		return Boolean(buf[off+1] == 1), 2
	case TagInt64:
		v, n := binary.Varint(buf[off+1:])
		return Int64(v), 1 + n
	case TagDatetime:
		v, n := binary.Varint(buf[off+1:])
		return Datetime(v), 1 + n
	case TagDouble:
		return Double(f64(1)), 9
	case TagString:
		ln, n := binary.Uvarint(buf[off+1:])
		pos := off + 1 + n
		return String(b.s[pos : pos+int(ln)]), pos + int(ln) - off
	case TagPoint:
		return Point{f64(1), f64(9)}, 17
	case TagRectangle:
		return Rectangle{Point{f64(1), f64(9)}, Point{f64(17), f64(25)}}, 33
	case TagOrderedList, TagUnorderedList:
		cnt, n := binary.Uvarint(buf[off+1:])
		pos := off + 1 + n
		items := b.items[:cnt:cnt]
		b.items = b.items[cnt:]
		for i := range items {
			var used int
			items[i], used = b.value(buf, pos)
			pos += used
		}
		if tag == TagOrderedList {
			return &OrderedList{Items: items}, pos - off
		}
		return &UnorderedList{Items: items}, pos - off
	case TagRecord:
		cnt, n := binary.Uvarint(buf[off+1:])
		pos := off + 1 + n
		r := &b.records[0]
		b.records = b.records[1:]
		r.fields = b.fields[:cnt:cnt]
		b.fields = b.fields[cnt:]
		for i := range r.fields {
			f := &r.fields[i]
			ln, n := binary.Uvarint(buf[pos:])
			pos += n
			f.name = b.s[pos : pos+int(ln)]
			pos += int(ln)
			var used int
			f.value, used = b.value(buf, pos)
			pos += used
		}
		if cnt > maxUnindexedFields {
			r.index = make(map[string]int, cnt)
			for i, f := range r.fields {
				r.index[f.name] = i
			}
		}
		return r, pos - off
	}
	panic(fmt.Sprintf("adm: build of unchecked tag 0x%02x", buf[off]))
}

func errTruncated(tag TypeTag) error {
	return fmt.Errorf("adm: truncated %s value", tag)
}
