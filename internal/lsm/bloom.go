package lsm

import (
	"encoding/binary"
	"math"
)

// bloomFilter is a classic Bloom filter sized for a target false-positive
// rate, used to skip runs that cannot contain a key. Its bitmap is kept in
// the serialized layout — bit i is bit i%8 of byte i/8, which is what the
// little-endian 64-bit words on disk amount to — so a filter loaded from a
// run aliases the bytes the run read instead of copying them.
type bloomFilter struct {
	bits  []byte // a whole number of 64-bit words
	nbits uint64
	k     int
}

// newBloomFilter sizes a filter for n keys at roughly 1% false positives.
func newBloomFilter(n int) *bloomFilter {
	if n < 1 {
		n = 1
	}
	// m = -n ln p / (ln 2)^2 with p = 0.01.
	m := uint64(math.Ceil(-float64(n) * math.Log(0.01) / (math.Ln2 * math.Ln2)))
	if m < 64 {
		m = 64
	}
	words := (m + 63) / 64
	return &bloomFilter{bits: make([]byte, 8*words), nbits: words * 64, k: 7}
}

// bloomHashes returns the two hashes a filter derives its k probes from:
// 64-bit FNV-1a of key, and of key followed by the byte 0x9e. The values are
// part of the run format — filters on disk were built with them — and are
// computed inline so a lookup hashes its key once, without allocating, for
// every run it probes.
func bloomHashes(key []byte) (h1, h2 uint64) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range key {
		h = (h ^ uint64(c)) * prime64
	}
	return h, (h ^ 0x9e) * prime64
}

// memFilter is a memtable's key filter: a Bloom filter blocked to cache
// lines. A key's 7 bits all lie in one 512-bit line, so asking the filter
// costs one cache miss, not seven. It never leaves memory, so it derives its
// probes its own way: line and bits come from the splitmix64 finalizer of the
// key's first bloomHash. They cannot come from the hashes directly: FNV-1a
// multiplies, so a hash's low bits depend only on the low bits of the key's
// bytes, and the second hash is the first times one multiply — probes taken
// from them let 4–9 % of absent keys through a filter sized for 0.1 %. A
// filter that holds more keys than it was sized for only answers "maybe" more
// often.
type memFilter struct {
	words []uint64 // 8 a line
	shift uint     // 64 - log2(line count)
}

// memFilterFloor is the fewest keys a memtable's filter is sized for.
const memFilterFloor = 1024

// newMemFilter sizes a filter for n keys, at least memFilterFloor: the
// largest power of two of bits not above 10n, so 5 to 10 bits a key. A
// memtable's filter is sized for twice the keys its predecessor took; while
// it holds no more than those, that is 10 or more bits a key.
func newMemFilter(n int) memFilter {
	bits, shift := uint64(512), uint(64)
	for 2*bits <= 10*uint64(max(n, memFilterFloor)) {
		bits <<= 1
		shift--
	}
	return memFilter{words: make([]uint64, bits/64), shift: shift}
}

// line returns the line of the key whose first bloomHash is h, and the mixed
// hash whose 9-bit fields at 7-bit steps, i = 0..6, are its bits in the line.
// The line number is the hash's top bits, above every field but in filters
// of more than 8 192 lines.
func (f *memFilter) line(h uint64) ([]uint64, uint64) {
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	h ^= h >> 31
	at := h >> f.shift * 8
	return f.words[at : at+8 : at+8], h
}

// add inserts the key whose first bloomHash is h.
func (f *memFilter) add(h uint64) {
	line, g := f.line(h)
	for i := uint64(0); i < 7; i++ {
		bit := g >> (7 * i) & 511
		line[bit/64] |= 1 << (bit % 64)
	}
}

// mayContain reports whether the key whose first bloomHash is h may have been
// added (no false negatives).
func (f *memFilter) mayContain(h uint64) bool {
	line, g := f.line(h)
	for i := uint64(0); i < 7; i++ {
		bit := g >> (7 * i) & 511
		if line[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// add inserts key into the filter.
func (b *bloomFilter) add(key []byte) {
	h1, h2 := bloomHashes(key)
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) % b.nbits
		b.bits[pos/8] |= 1 << (pos % 8)
	}
}

// mayContain reports whether the key whose bloomHashes are h1 and h2 may be
// in the set (no false negatives).
func (b *bloomFilter) mayContain(h1, h2 uint64) bool {
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) % b.nbits
		if b.bits[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
	}
	return true
}

// appendTo appends the serialized filter to dst: the probe count, then the
// bitmap.
func (b *bloomFilter) appendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.k))
	return append(dst, b.bits...)
}

// unmarshalBloom reconstructs a filter from appendTo's output, aliasing buf,
// or returns nil for bytes appendTo cannot have written: a filter has at least
// one word (a probe is taken modulo the bit count) and a sane number of
// probes.
func unmarshalBloom(buf []byte) *bloomFilter {
	if len(buf) < 4+8 || (len(buf)-4)%8 != 0 {
		return nil
	}
	k := int(binary.LittleEndian.Uint32(buf))
	if k < 1 || k > 32 {
		return nil
	}
	bits := buf[4:len(buf):len(buf)]
	return &bloomFilter{bits: bits, nbits: uint64(len(bits)) * 8, k: k}
}
