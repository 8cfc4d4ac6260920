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
// The encoding is self-describing: no schema is needed to decode.

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
		dst = binary.AppendUvarint(dst, uint64(len(t.names)))
		for i, n := range t.names {
			dst = binary.AppendUvarint(dst, uint64(len(n)))
			dst = append(dst, n...)
			dst = AppendValue(dst, t.values[i])
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
		n += uvarintLen(uint64(len(t.names)))
		for i, name := range t.names {
			n += uvarintLen(uint64(len(name))) + len(name) + encodedLen(t.values[i])
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
// and the number of bytes consumed. The value shares one copy of exactly its
// own bytes — not of buf, nor of what follows the value in it: every field
// name and String inside the value is a substring of that copy, so retaining
// any one of them keeps the whole copy alive.
func Decode(buf []byte) (Value, int, error) {
	n, err := SkipValue(buf)
	if err != nil {
		// Not one well-formed value: let the decoder find what is wrong, where
		// it finds it, so that the error is its own.
		n = len(buf)
	}
	return decode(buf[:n], string(buf[:n]))
}

// DecodeOne decodes exactly one value from buf, rejecting trailing bytes.
// The value shares one copy of buf, as Decode's shares one of its span.
func DecodeOne(buf []byte) (Value, error) {
	v, n, err := decode(buf, string(buf))
	if err != nil {
		return nil, err
	}
	if n != len(buf) {
		return nil, fmt.Errorf("adm: %d trailing bytes after value", len(buf)-n)
	}
	return v, nil
}

// decode is Decode on buf, cutting the value's strings from s, a copy of buf.
func decode(buf []byte, s string) (Value, int, error) {
	if len(buf) == 0 {
		return nil, 0, fmt.Errorf("adm: decode of empty buffer")
	}
	tag := TypeTag(buf[0])
	pos := 1
	switch tag {
	case TagMissing:
		return Missing{}, pos, nil
	case TagNull:
		return Null{}, pos, nil
	case TagBoolean:
		if len(buf) < pos+1 {
			return nil, 0, errTruncated(tag)
		}
		return Boolean(buf[pos] != 0), pos + 1, nil
	case TagInt64:
		v, n := binary.Varint(buf[pos:])
		if n <= 0 {
			return nil, 0, errTruncated(tag)
		}
		return Int64(v), pos + n, nil
	case TagDouble:
		if len(buf) < pos+8 {
			return nil, 0, errTruncated(tag)
		}
		bits := binary.LittleEndian.Uint64(buf[pos:])
		return Double(math.Float64frombits(bits)), pos + 8, nil
	case TagString:
		ln, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return nil, 0, errTruncated(tag)
		}
		pos += n
		if uint64(len(buf)-pos) < ln {
			return nil, 0, errTruncated(tag)
		}
		return String(s[pos : pos+int(ln)]), pos + int(ln), nil
	case TagDatetime:
		v, n := binary.Varint(buf[pos:])
		if n <= 0 {
			return nil, 0, errTruncated(tag)
		}
		return Datetime(v), pos + n, nil
	case TagPoint:
		if len(buf) < pos+16 {
			return nil, 0, errTruncated(tag)
		}
		x := math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:]))
		y := math.Float64frombits(binary.LittleEndian.Uint64(buf[pos+8:]))
		return Point{x, y}, pos + 16, nil
	case TagRectangle:
		if len(buf) < pos+32 {
			return nil, 0, errTruncated(tag)
		}
		f := func(off int) float64 {
			return math.Float64frombits(binary.LittleEndian.Uint64(buf[pos+off:]))
		}
		return Rectangle{Point{f(0), f(8)}, Point{f(16), f(24)}}, pos + 32, nil
	case TagOrderedList, TagUnorderedList:
		cnt, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return nil, 0, errTruncated(tag)
		}
		pos += n
		// Each item needs at least one byte; reject counts the buffer
		// cannot possibly hold (and cap the pre-allocation regardless).
		if cnt > uint64(len(buf)-pos) {
			return nil, 0, errTruncated(tag)
		}
		items := make([]Value, 0, capHint(cnt))
		for i := uint64(0); i < cnt; i++ {
			it, used, err := decode(buf[pos:], s[pos:])
			if err != nil {
				return nil, 0, err
			}
			items = append(items, it)
			pos += used
		}
		if tag == TagOrderedList {
			return &OrderedList{Items: items}, pos, nil
		}
		return &UnorderedList{Items: items}, pos, nil
	case TagRecord:
		cnt, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return nil, 0, errTruncated(tag)
		}
		pos += n
		if cnt > uint64(len(buf)-pos) {
			return nil, 0, errTruncated(tag)
		}
		names := make([]string, 0, capHint(cnt))
		values := make([]Value, 0, capHint(cnt))
		for i := uint64(0); i < cnt; i++ {
			ln, n := binary.Uvarint(buf[pos:])
			if n <= 0 {
				return nil, 0, errTruncated(tag)
			}
			pos += n
			if uint64(len(buf)-pos) < ln {
				return nil, 0, errTruncated(tag)
			}
			names = append(names, s[pos:pos+int(ln)])
			pos += int(ln)
			fv, used, err := decode(buf[pos:], s[pos:])
			if err != nil {
				return nil, 0, err
			}
			values = append(values, fv)
			pos += used
		}
		rec, err := NewRecord(names, values)
		if err != nil {
			return nil, 0, err
		}
		return rec, pos, nil
	}
	return nil, 0, fmt.Errorf("adm: unknown tag 0x%02x", buf[0])
}

func errTruncated(tag TypeTag) error {
	return fmt.Errorf("adm: truncated %s value", tag)
}

// capHint bounds decode-time pre-allocation so a corrupt count in a small
// buffer cannot demand a huge allocation.
func capHint(cnt uint64) int {
	const max = 4096
	if cnt > max {
		return max
	}
	return int(cnt)
}
