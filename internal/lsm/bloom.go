package lsm

// keyFilter is the tree's one key filter, a memtable's and a run segment's
// alike: a Bloom filter blocked to cache lines. A key's 7 bits all lie in one
// 512-bit line, so asking the filter costs one cache miss, not seven. Line
// and bits come from the key's keyHash, which a read computes once for every
// filter it asks.
//
// The bitmap is kept as a segment stores it, its 64-bit words little-endian:
// bit b of a line is bit b%8 of the line's byte b/8. So a segment writes the
// bitmap as it is, and a filter loaded from a segment aliases the bytes the
// load read. The zero filter has no bitmap and answers "maybe" to every key:
// it is the filter of a segment written before format 04, whose bitmap was
// built another way and is not read.
type keyFilter struct {
	bits  []byte // a power of two of filterLine-byte lines; nil: the zero filter
	shift uint   // 64 - log2(line count)
}

// filterLine is the bytes of one line: 512 bits.
const filterLine = 64

// newKeyFilter sizes a filter for n keys: the smallest power of two of bits
// not below 10n, and at least one line, so 10 to 20 bits a key. A filter
// that holds more keys than it was sized for only answers "maybe" more often.
func newKeyFilter(n int) keyFilter {
	bits, shift := uint64(8*filterLine), uint(64)
	for bits < 10*uint64(max(n, 0)) {
		bits <<= 1
		shift--
	}
	return keyFilter{bits: make([]byte, bits/8), shift: shift}
}

// loadKeyFilter returns the filter whose stored bitmap is b, aliasing it. ok
// is false for bytes newKeyFilter cannot have made: a length that is not a
// power of two of whole lines.
func loadKeyFilter(b []byte) (f keyFilter, ok bool) {
	lines := len(b) / filterLine
	if lines == 0 || len(b)%filterLine != 0 || lines&(lines-1) != 0 {
		return keyFilter{}, false
	}
	f = keyFilter{bits: b, shift: 64}
	for ; lines > 1; lines >>= 1 {
		f.shift--
	}
	return f, true
}

// keyHash is the hash every key filter takes: 64-bit FNV-1a of key, finished
// by the splitmix64 finalizer. FNV-1a alone will not do: it multiplies, so
// its low bits depend only on the low bits of the key's bytes, and probes
// taken from them let 4–9 % of absent keys through a filter sized for 0.1 %.
// The value is part of the run format — format-04 filters on disk were built
// with it — and is computed inline so a read hashes its key once, without
// allocating.
func keyHash(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range key {
		h = (h ^ uint64(c)) * prime64
	}
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// line returns the line of the key whose keyHash is h: the hash's top bits.
// The key's bits in the line are the hash's 9-bit fields at 7-bit steps,
// i = 0..6, which the line number lies above but in filters of more than
// 8 192 lines.
func (f *keyFilter) line(h uint64) []byte {
	at := h >> f.shift * filterLine
	return f.bits[at : at+filterLine : at+filterLine]
}

// add inserts the key whose keyHash is h.
func (f *keyFilter) add(h uint64) {
	line := f.line(h)
	for i := uint64(0); i < 7; i++ {
		bit := h >> (7 * i) & 511
		line[bit/8] |= 1 << (bit % 8)
	}
}

// mayContain reports whether the key whose keyHash is h may have been added
// (no false negatives).
func (f *keyFilter) mayContain(h uint64) bool {
	if f.bits == nil {
		return true
	}
	line := f.line(h)
	for i := uint64(0); i < 7; i++ {
		bit := h >> (7 * i) & 511
		if line[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}
