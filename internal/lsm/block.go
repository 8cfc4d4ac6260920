package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
)

// Run files are block-structured: entries are packed into fixed-target-size
// blocks (~8 KiB by default), each independently checksummed, so the read
// path touches one block — not one entry — per disk read, and a block is the
// unit the shared BlockCache holds.
//
// Block wire format:
//
//	entry*     flags(1) | klen uvarint | vlen uvarint | key | value
//	offsets    n × uint32 LE — byte offset of each entry from block start,
//	           ascending (no prefix compression, so in-block binary search
//	           needs no restart points)
//	count      uint32 LE
//	crc        uint32 LE, IEEE CRC32 over everything before it
//
// The CRC covers entries, offsets, and count: any single bit flip anywhere
// in a block surfaces as ErrChecksum, never as a silently wrong record
// (FuzzRunBlock and TestBlockEveryBitFlipDetected hold this line). Offsets
// and lengths are additionally validated against the block bound before any
// slice is taken, so even a block crafted with a matching CRC cannot trigger
// an out-of-bounds read or an unbounded allocation.

// ErrChecksum reports a block whose CRC32 does not match its contents —
// on-disk corruption (or an injected bit flip; see ErrCorruptRead).
var ErrChecksum = errors.New("lsm: block checksum mismatch")

// blockFooterLen is the fixed part of the block footer: count + crc.
const blockFooterLen = 8

// blockBuilder packs entries into one block's wire format. It is reused
// across blocks via reset, so the steady-state writer allocates only when a
// block outgrows every previous one.
type blockBuilder struct {
	buf      []byte
	offs     []uint32
	firstKey []byte // copy of the first appended key
	scratch  [2 * binary.MaxVarintLen32]byte
}

// add appends one entry; keys must arrive in strictly ascending order.
func (b *blockBuilder) add(e entry) {
	if len(b.offs) == 0 {
		b.firstKey = append(b.firstKey[:0], e.key...)
	}
	b.offs = append(b.offs, uint32(len(b.buf)))
	flags := byte(0)
	if e.tombstone {
		flags = 1
	}
	b.buf = append(b.buf, flags)
	n := binary.PutUvarint(b.scratch[:], uint64(len(e.key)))
	n += binary.PutUvarint(b.scratch[n:], uint64(len(e.value)))
	b.buf = append(b.buf, b.scratch[:n]...)
	b.buf = append(b.buf, e.key...)
	b.buf = append(b.buf, e.value...)
}

// count reports the number of entries added since the last reset.
func (b *blockBuilder) count() int { return len(b.offs) }

// size reports the encoded size of the block as finish would emit it.
func (b *blockBuilder) size() int { return len(b.buf) + 4*len(b.offs) + blockFooterLen }

// finish appends the offset table, count, and CRC, returning the complete
// block. The returned slice aliases the builder's buffer — it is invalid
// after the next add or reset.
func (b *blockBuilder) finish() []byte {
	var word [4]byte
	for _, off := range b.offs {
		binary.LittleEndian.PutUint32(word[:], off)
		b.buf = append(b.buf, word[:]...)
	}
	binary.LittleEndian.PutUint32(word[:], uint32(len(b.offs)))
	b.buf = append(b.buf, word[:]...)
	binary.LittleEndian.PutUint32(word[:], crc32.ChecksumIEEE(b.buf))
	b.buf = append(b.buf, word[:]...)
	return b.buf
}

// reset clears the builder for the next block, keeping capacity.
func (b *blockBuilder) reset() {
	b.buf = b.buf[:0]
	b.offs = b.offs[:0]
}

// blockView is a parsed handle on one block's bytes. Entry access re-reads
// the offset table in place (no materialized slice), so a view is free to
// construct from cached bytes: a cache hit costs zero allocations.
type blockView struct {
	data []byte
	n    int
}

// parseBlock validates buf as a block — CRC first, then the structural
// bounds of the offset table — and returns a view over it.
func parseBlock(buf []byte) (blockView, error) {
	v, err := checkBlockStructure(buf)
	if err != nil {
		return blockView{}, err
	}
	stored := binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.ChecksumIEEE(buf[:len(buf)-4]) != stored {
		return blockView{}, fmt.Errorf("lsm: %w", ErrChecksum)
	}
	return v, nil
}

// trustedBlock builds a view over bytes that already passed parseBlock
// (cached blocks are validated before insertion, and blocks are immutable),
// skipping the CRC recomputation that would otherwise tax every cache hit.
func trustedBlock(buf []byte) blockView {
	return blockView{data: buf, n: int(binary.LittleEndian.Uint32(buf[len(buf)-blockFooterLen:]))}
}

// checkBlockStructure validates the footer and offset table bounds without
// touching the CRC: count must fit, and every offset must point inside the
// entry section in ascending order.
func checkBlockStructure(buf []byte) (blockView, error) {
	if len(buf) < blockFooterLen {
		return blockView{}, fmt.Errorf("lsm: block too small (%d bytes)", len(buf))
	}
	n := binary.LittleEndian.Uint32(buf[len(buf)-blockFooterLen:])
	entryEnd := len(buf) - blockFooterLen - 4*int(n)
	if int64(n) > int64(len(buf))/4 || entryEnd < 0 {
		return blockView{}, fmt.Errorf("lsm: block count %d exceeds block size %d", n, len(buf))
	}
	prev := -1
	for i := 0; i < int(n); i++ {
		off := int(binary.LittleEndian.Uint32(buf[entryEnd+4*i:]))
		if off <= prev || off >= entryEnd {
			return blockView{}, fmt.Errorf("lsm: block offset table corrupt at entry %d", i)
		}
		prev = off
	}
	return blockView{data: buf, n: int(n)}, nil
}

// count reports the number of entries in the block.
func (v blockView) count() int { return v.n }

// entryOff returns entry i's byte offset within the block.
func (v blockView) entryOff(i int) int {
	return int(binary.LittleEndian.Uint32(v.data[len(v.data)-blockFooterLen-4*(v.n-i):]))
}

// entryEnd is the offset where the entry section stops and the footer starts.
func (v blockView) entryEnd() int { return len(v.data) - blockFooterLen - 4*v.n }

// entryAt decodes entry i. Key and value alias the block's bytes; callers
// that retain them past the block's lifetime must copy. Every length is
// validated against the block bound before a slice is taken — a corrupt
// length field fails here rather than triggering an unbounded allocation
// (the old per-entry format's entryAt trusted its in-memory length array).
func (v blockView) entryAt(i int) (entry, error) {
	if i < 0 || i >= v.n {
		return entry{}, fmt.Errorf("lsm: block entry %d out of range [0,%d)", i, v.n)
	}
	end := v.entryEnd()
	p := v.entryOff(i)
	if p >= end {
		return entry{}, fmt.Errorf("lsm: block entry %d offset past entry section", i)
	}
	flags := v.data[p]
	p++
	klen, kn := binary.Uvarint(v.data[p:end])
	if kn <= 0 {
		return entry{}, fmt.Errorf("lsm: block entry %d has corrupt key length", i)
	}
	p += kn
	vlen, vn := binary.Uvarint(v.data[p:end])
	if vn <= 0 {
		return entry{}, fmt.Errorf("lsm: block entry %d has corrupt value length", i)
	}
	p += vn
	if klen > uint64(end-p) || vlen > uint64(end-p)-klen {
		return entry{}, fmt.Errorf("lsm: block entry %d lengths (%d,%d) exceed block bound %d", i, klen, vlen, end-p)
	}
	return entry{
		key:       v.data[p : p+int(klen) : p+int(klen)],
		value:     v.data[p+int(klen) : p+int(klen)+int(vlen) : p+int(klen)+int(vlen)],
		tombstone: flags&1 != 0,
	}, nil
}

// keyAt decodes only entry i's key (aliasing the block's bytes).
func (v blockView) keyAt(i int) ([]byte, error) {
	e, err := v.entryAt(i)
	if err != nil {
		return nil, err
	}
	return e.key, nil
}

// search locates the first entry with key >= want via binary search over the
// offset table. Blocks store full keys (no prefix compression), so no
// restart-point walk is needed. A decode error inside the search surfaces as
// (0, err) — it can only happen on a block crafted to defeat the CRC.
func (v blockView) search(want []byte) (int, error) {
	var decodeErr error
	i := sort.Search(v.n, func(i int) bool {
		k, err := v.keyAt(i)
		if err != nil {
			decodeErr = err
			return true
		}
		return bytes.Compare(k, want) >= 0
	})
	if decodeErr != nil {
		return 0, decodeErr
	}
	return i, nil
}
