package lsm

import (
	"encoding/binary"
	"math"
)

// bloomFilter is a classic Bloom filter sized for a target false-positive
// rate, used to skip runs that cannot contain a key.
type bloomFilter struct {
	bits  []uint64
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
	return &bloomFilter{bits: make([]uint64, words), nbits: words * 64, k: 7}
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

// add inserts key into the filter.
func (b *bloomFilter) add(key []byte) {
	h1, h2 := bloomHashes(key)
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) % b.nbits
		b.bits[pos/64] |= 1 << (pos % 64)
	}
}

// mayContain reports whether the key whose bloomHashes are h1 and h2 may be
// in the set (no false negatives).
func (b *bloomFilter) mayContain(h1, h2 uint64) bool {
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) % b.nbits
		if b.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// marshal serializes the filter.
func (b *bloomFilter) marshal() []byte {
	out := make([]byte, 4+8*len(b.bits))
	binary.LittleEndian.PutUint32(out, uint32(b.k))
	for i, w := range b.bits {
		binary.LittleEndian.PutUint64(out[4+8*i:], w)
	}
	return out
}

// unmarshalBloom reconstructs a filter from marshal's output, or returns nil
// for bytes marshal cannot have written: a filter has at least one word (a
// probe is taken modulo the bit count) and a sane number of probes.
func unmarshalBloom(buf []byte) *bloomFilter {
	if len(buf) < 4+8 || (len(buf)-4)%8 != 0 {
		return nil
	}
	k := int(binary.LittleEndian.Uint32(buf))
	if k < 1 || k > 32 {
		return nil
	}
	words := (len(buf) - 4) / 8
	bits := make([]uint64, words)
	for i := range bits {
		bits[i] = binary.LittleEndian.Uint64(buf[4+8*i:])
	}
	return &bloomFilter{bits: bits, nbits: uint64(words) * 64, k: k}
}
