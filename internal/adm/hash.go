package adm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Hash computes a 64-bit hash of the value, consistent with Equal: equal
// values hash identically. Int64 and double values that are numerically
// equal hash identically too. The values are persisted placement — a
// dataset's records sit on the partition their key hashed to — so the byte
// stream hashed here must never change (TestHashGolden pins it).
func Hash(v Value) uint64 {
	h := fnvOffset64
	h.value(v)
	return uint64(h)
}

// HashEncoded is Hash(DecodeOne(enc)), bit for bit, read off the bytes: it
// fails exactly when DecodeOne fails, with DecodeOne's error. Scalars and
// ordered lists hash in place without allocating; records and unordered
// lists, which hash over their sorted names or items, are decoded first.
func HashEncoded(enc []byte) (uint64, error) {
	h := fnvOffset64
	n, err := h.encoded(enc)
	if err != nil {
		return 0, err
	}
	if n != len(enc) {
		return 0, fmt.Errorf("adm: %d trailing bytes after value", len(enc)-n)
	}
	return uint64(h), nil
}

// fnv64a is a 64-bit FNV-1a state, held by value so that nothing escapes
// and nothing allocates. Hash and HashEncoded feed it the same bytes for
// equal values.
type fnv64a uint64

const (
	fnvOffset64 fnv64a = 14695981039346656037
	fnvPrime64  fnv64a = 1099511628211
	// numberTag stands in for both numeric tags, so Int64(1) and Double(1)
	// hash alike, matching Compare.
	numberTag = 0xFE
)

func (h *fnv64a) add(b byte) { *h = (*h ^ fnv64a(b)) * fnvPrime64 }

func (h *fnv64a) addBytes(p []byte) {
	for _, b := range p {
		h.add(b)
	}
}

func (h *fnv64a) addString(s string) {
	for i := 0; i < len(s); i++ {
		h.add(s[i])
	}
}

// add64 hashes u as 8 little-endian bytes.
func (h *fnv64a) add64(u uint64) {
	for i := 0; i < 64; i += 8 {
		h.add(byte(u >> i))
	}
}

func (h *fnv64a) boolean(b bool) {
	h.add(byte(TagBoolean))
	if b {
		h.add(1)
	} else {
		h.add(0)
	}
}

// number hashes an int64 or a double through its float64 bits.
func (h *fnv64a) number(f float64) {
	h.add(numberTag)
	h.add64(math.Float64bits(canonicalFloat(f)))
}

func (h *fnv64a) point(x, y float64) {
	h.add(byte(TagPoint))
	h.add64(math.Float64bits(canonicalFloat(x)))
	h.add64(math.Float64bits(canonicalFloat(y)))
}

func (h *fnv64a) value(v Value) {
	switch t := v.(type) {
	case Missing:
		h.add(byte(TagMissing))
	case Null:
		h.add(byte(TagNull))
	case Boolean:
		h.boolean(bool(t))
	case Int64:
		h.number(float64(t))
	case Double:
		h.number(float64(t))
	case String:
		h.add(byte(TagString))
		h.addString(string(t))
	case Datetime:
		h.add(byte(TagDatetime))
		h.add64(uint64(t))
	case Point:
		h.point(t.X, t.Y)
	case Rectangle:
		h.add(byte(TagRectangle))
		h.point(t.Low.X, t.Low.Y)
		h.point(t.High.X, t.High.Y)
	case *OrderedList:
		h.add(byte(TagOrderedList))
		for _, it := range t.Items {
			h.value(it)
		}
	case *UnorderedList:
		h.add(byte(TagUnorderedList))
		for _, it := range sortedItems(t.Items) {
			h.value(it)
		}
	case *Record:
		h.add(byte(TagRecord))
		names := append([]string(nil), t.names...)
		sort.Strings(names)
		for _, n := range names {
			h.addString(n)
			h.add(0)
			fv, _ := t.Field(n)
			h.value(fv)
		}
	}
}

// encoded hashes the value at the front of buf as value would hash its
// decoding, and returns its length. Its checks are Decode's, in Decode's
// order, with Decode's errors.
func (h *fnv64a) encoded(buf []byte) (int, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("adm: decode of empty buffer")
	}
	tag := TypeTag(buf[0])
	f64 := func(off int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])) }
	switch tag {
	case TagMissing, TagNull:
		h.add(byte(tag))
		return 1, nil
	case TagBoolean:
		if len(buf) < 2 {
			return 0, errTruncated(tag)
		}
		h.boolean(buf[1] != 0)
		return 2, nil
	case TagInt64, TagDatetime:
		v, n := binary.Varint(buf[1:])
		if n <= 0 {
			return 0, errTruncated(tag)
		}
		if tag == TagInt64 {
			h.number(float64(v))
		} else {
			h.add(byte(TagDatetime))
			h.add64(uint64(v))
		}
		return 1 + n, nil
	case TagDouble:
		if len(buf) < 9 {
			return 0, errTruncated(tag)
		}
		h.number(f64(1))
		return 9, nil
	case TagString:
		ln, n := binary.Uvarint(buf[1:])
		if n <= 0 {
			return 0, errTruncated(tag)
		}
		pos := 1 + n
		if uint64(len(buf)-pos) < ln {
			return 0, errTruncated(tag)
		}
		h.add(byte(TagString))
		h.addBytes(buf[pos : pos+int(ln)])
		return pos + int(ln), nil
	case TagPoint:
		if len(buf) < 17 {
			return 0, errTruncated(tag)
		}
		h.point(f64(1), f64(9))
		return 17, nil
	case TagRectangle:
		if len(buf) < 33 {
			return 0, errTruncated(tag)
		}
		h.add(byte(TagRectangle))
		h.point(f64(1), f64(9))
		h.point(f64(17), f64(25))
		return 33, nil
	case TagOrderedList:
		cnt, pos, err := containerHeader(buf)
		if err != nil {
			return 0, err
		}
		h.add(byte(TagOrderedList))
		for i := uint64(0); i < cnt; i++ {
			n, err := h.encoded(buf[pos:])
			if err != nil {
				return 0, err
			}
			pos += n
		}
		return pos, nil
	case TagUnorderedList, TagRecord:
		v, n, err := Decode(buf)
		if err != nil {
			return 0, err
		}
		h.value(v)
		return n, nil
	}
	return 0, fmt.Errorf("adm: unknown tag 0x%02x", buf[0])
}

// canonicalFloat maps -0 to +0 so that equal floats hash identically.
func canonicalFloat(f float64) float64 {
	if f == 0 {
		return 0
	}
	return f
}
