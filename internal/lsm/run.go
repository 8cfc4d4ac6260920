package lsm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
)

// runMagic identifies the on-disk run format: block-structured with a sparse
// index (format 02; format 01 held a flat entry section indexed entirely in
// memory).
var runMagic = []byte("LSMRUN02")

// defaultBlockBytes is the target encoded block size. A block is closed once
// it reaches the target, so every block except the last is at least this
// large — which bounds a run's block count at ⌈bytes/target⌉ and therefore a
// full scan at that many reads.
const defaultBlockBytes = 32 << 10

// runTrailerLen is the fixed trailer: index length, bloom length, entry
// count, magic.
const runTrailerLen = 4 + 4 + 8 + 8

// runConfig carries the read-path plumbing a run needs after open: block
// sizing for writers, and the cache, fault hook, and metrics for readers.
// The zero value is fully usable (default block size, no cache, no hook).
type runConfig struct {
	blockBytes int
	cache      *BlockCache
	fault      FaultHook
	metrics    *Metrics
}

func (c runConfig) blockTarget() int {
	if c.blockBytes <= 0 {
		return defaultBlockBytes
	}
	return c.blockBytes
}

// blockMeta is one sparse-index entry: where a block lives and the first key
// it holds. This — not the keys themselves — is all a run keeps resident, so
// per-run memory is O(blocks), not O(entries).
type blockMeta struct {
	firstKey []byte
	off      int64
	length   int32
	entries  int32
}

// run is an immutable sorted component on disk, organized as checksummed
// blocks. Only the sparse index (first key per block) and bloom filter live
// in memory; everything else is read block-at-a-time through the shared
// BlockCache. A bloom filter prunes point lookups.
//
// Runs are reference-counted: every published runSet that lists the run
// holds one reference (readers pin the set, not its runs), and the compactor
// retains its inputs for the length of a merge. The last release closes the
// file handle and signals unused, which the compactor waits on before
// deleting a merged-away input file — so a reader mid-scan never has a run
// unlinked under it, and input deletion order (oldest first) stays under the
// compactor's control.
type run struct {
	path   string
	f      *os.File
	id     uint64 // process-unique cache key; never reused, so dead runs need no invalidation
	blocks []blockMeta
	count  int
	bloom  *bloomFilter
	cfg    runConfig
	// last is the run's largest key: with blocks[0].firstKey it fences the
	// keys the run can hold. Set once before the run is shared — by the
	// writer from the last entry it added, or by openRun from the last block.
	last []byte

	refs   atomic.Int32
	unused chan struct{} // closed when refs reaches zero
}

// retain pins the run: its file handle stays open (and its file undeleted)
// until a matching release. Callers must hold a reference already — their
// own, or the tree lock while the run is in the published set.
func (r *run) retain() {
	r.refs.Add(1)
}

// release drops one reference. The last release closes the file handle and
// closes unused; only then may the file be deleted (by the compactor, which
// waits on unused).
func (r *run) release() error {
	if r.refs.Add(-1) != 0 {
		return nil
	}
	close(r.unused)
	return r.f.Close()
}

// runSet is one published generation of a tree's run list, newest first:
// immutable once built, replaced (never edited) by every flush and merge.
// spans[i] fences runs[i] and entries totals their entry counts, both fixed
// at build so neither a lookup nor Stats walks run internals. A set holds one
// reference on each of its runs; the tree holds one reference on the current
// set and every Get and snapshot pins the set it saw with one more — one
// atomic add however many runs there are. When the last holder leaves, the
// set drops its run references, which is what lets a merged-away run reach
// zero and signal unused to the compactor.
type runSet struct {
	runs    []*run
	spans   []span
	entries int
	refs    atomic.Int32
}

// newRunSet builds the set for runs (newest first; the set owns the slice),
// retaining each run, and returns it holding the caller's one reference.
func newRunSet(runs []*run) *runSet {
	s := &runSet{runs: runs, spans: make([]span, len(runs))}
	for i, r := range runs {
		r.retain()
		s.spans[i] = r.span()
		s.entries += r.len()
	}
	s.refs.Store(1)
	return s
}

// acquire pins the set. Callers hold the tree lock (the set is current) or a
// reference already.
func (s *runSet) acquire() { s.refs.Add(1) }

// release drops one reference; the last one releases every run, reporting
// the first file-close error.
func (s *runSet) release() error {
	if s.refs.Add(-1) != 0 {
		return nil
	}
	var first error
	for _, r := range s.runs {
		if err := r.release(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// span is what the merge policy and the read path know about a run without
// opening it: its data bytes and the closed key interval [first, last] every
// key in it lies in. bytes is zero exactly for an empty run, which covers
// nothing (the empty key is a legal key, so nil fences cannot say that).
type span struct {
	bytes       int64
	first, last []byte
}

func (r *run) span() span {
	if len(r.blocks) == 0 {
		return span{}
	}
	lb := r.blocks[len(r.blocks)-1]
	return span{
		bytes: lb.off + int64(lb.length) - int64(len(runMagic)),
		first: r.blocks[0].firstKey,
		last:  r.last,
	}
}

// covers reports whether key lies inside the span's fences.
func (s span) covers(key []byte) bool {
	return s.bytes > 0 && bytes.Compare(s.first, key) <= 0 && bytes.Compare(key, s.last) <= 0
}

// overlaps reports whether the two spans share a key position.
func (s span) overlaps(o span) bool {
	return s.bytes > 0 && o.bytes > 0 && bytes.Compare(s.first, o.last) <= 0 && bytes.Compare(o.first, s.last) <= 0
}

// runWriter streams sorted, unique entries into a run file block by block,
// holding only the current block, the sparse index, and the bloom filter in
// memory — never the entry set. It writes to path+".tmp" and renames into
// place on finish, so a crash mid-write leaves nothing that Open's run-*.lsm
// glob would load; Open sweeps leftover .tmp files. Either finish or abort
// must be called exactly once.
type runWriter struct {
	path  string
	tmp   string
	f     *os.File
	w     *bufio.Writer
	bloom *bloomFilter
	cfg   runConfig
	bb    blockBuilder
	index []blockMeta
	off   int64 // file offset where the current block will land
	count int
	last  []byte // the key added last (aliases the caller's entry; see runIter.curr), for the run's upper fence
}

// newRunWriter starts a run file destined for path. capacityHint sizes the
// bloom filter; overestimating (e.g. the pre-dedup entry total of a merge's
// inputs) only lowers the false-positive rate.
func newRunWriter(path string, capacityHint int, cfg runConfig) (*runWriter, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lsm: creating run: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if _, err := w.Write(runMagic); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return nil, err
	}
	return &runWriter{
		path: path, tmp: tmp, f: f, w: w,
		bloom: newBloomFilter(capacityHint),
		cfg:   cfg,
		off:   int64(len(runMagic)),
	}, nil
}

// add appends one entry; keys must arrive in strictly ascending order. The
// current block is closed once it reaches the target size, so blocks are
// always at least the target (bar the final one) and at most the target plus
// one entry.
func (rw *runWriter) add(e entry) error {
	rw.bloom.add(e.key)
	rw.bb.add(e)
	rw.count++
	rw.last = e.key
	if rw.bb.size() >= rw.cfg.blockTarget() {
		return rw.closeBlock()
	}
	return nil
}

// closeBlock seals the in-progress block: emit its bytes, record its sparse
// index entry, reset the builder.
func (rw *runWriter) closeBlock() error {
	if rw.bb.count() == 0 {
		return nil
	}
	buf := rw.bb.finish()
	if _, err := rw.w.Write(buf); err != nil {
		return err
	}
	rw.index = append(rw.index, blockMeta{
		firstKey: append([]byte(nil), rw.bb.firstKey...),
		off:      rw.off,
		length:   int32(len(buf)),
		entries:  int32(rw.bb.count()),
	})
	rw.off += int64(len(buf))
	rw.bb.reset()
	return nil
}

// finish seals the last block, writes the index section, bloom filter, and
// trailer, fsyncs, renames the file into place, and returns the opened run.
// On failure the temp file is cleaned up; the writer must not be reused.
func (rw *runWriter) finish() (*run, error) {
	if err := rw.closeBlock(); err != nil {
		return nil, rw.fail(err)
	}
	// Index section: block count, then (first key, offset, length, entries)
	// per block, all uvarint-framed.
	var idx []byte
	var scratch [binary.MaxVarintLen64]byte
	putUv := func(v uint64) { idx = append(idx, scratch[:binary.PutUvarint(scratch[:], v)]...) }
	putUv(uint64(len(rw.index)))
	for _, bm := range rw.index {
		putUv(uint64(len(bm.firstKey)))
		idx = append(idx, bm.firstKey...)
		putUv(uint64(bm.off))
		putUv(uint64(bm.length))
		putUv(uint64(bm.entries))
	}
	if _, err := rw.w.Write(idx); err != nil {
		return nil, rw.fail(err)
	}
	bb := rw.bloom.marshal()
	if _, err := rw.w.Write(bb); err != nil {
		return nil, rw.fail(err)
	}
	var trailer [runTrailerLen]byte
	binary.LittleEndian.PutUint32(trailer[0:], uint32(len(idx)))
	binary.LittleEndian.PutUint32(trailer[4:], uint32(len(bb)))
	binary.LittleEndian.PutUint64(trailer[8:], uint64(rw.count))
	copy(trailer[16:], runMagic)
	if _, err := rw.w.Write(trailer[:]); err != nil {
		return nil, rw.fail(err)
	}
	if err := rw.w.Flush(); err != nil {
		return nil, rw.fail(err)
	}
	if err := rw.f.Sync(); err != nil {
		return nil, rw.fail(err)
	}
	if err := rw.f.Close(); err != nil {
		_ = os.Remove(rw.tmp)
		return nil, err
	}
	if err := os.Rename(rw.tmp, rw.path); err != nil {
		_ = os.Remove(rw.tmp)
		return nil, err
	}
	// The rename alone is not durable: without the directory fsync a power
	// loss could forget the run's name while the flusher goes on to delete
	// the WAL segments that covered it — silently losing records. Publish
	// means file bytes AND directory entry on disk.
	if err := syncDir(filepath.Dir(rw.path)); err != nil {
		_ = os.Remove(rw.path)
		return nil, err
	}
	r, err := openUnfenced(rw.path, rw.cfg)
	if err == nil && rw.count > 0 {
		r.last = append([]byte{}, rw.last...)
	}
	return r, err
}

func (rw *runWriter) fail(err error) error {
	_ = rw.f.Close()
	_ = os.Remove(rw.tmp)
	return err
}

// abort discards the partially written run.
func (rw *runWriter) abort() error {
	cerr := rw.f.Close()
	if err := os.Remove(rw.tmp); err != nil {
		return err
	}
	return cerr
}

// openRun loads a run's sparse index and bloom filter from disk. Every
// trailer length is validated against the file size before any allocation or
// read, so a corrupt or truncated file fails loudly here rather than
// triggering an unbounded allocation or a garbage index. The upper fence is
// not in the file format: it is the last entry of the last block, read here
// once (CRC-checked, past the cache, outside any tree lock).
func openRun(path string, cfg runConfig) (*run, error) {
	r, err := openUnfenced(path, cfg)
	if err != nil {
		return nil, err
	}
	if r.last, err = r.readLastKey(); err != nil {
		_ = r.f.Close()
		return nil, err
	}
	return r, nil
}

// openUnfenced is openRun without the last-block read, for the writer that
// just produced the file and knows its last key.
func openUnfenced(path string, cfg runConfig) (*run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("lsm: opening run: %w", err)
	}
	r, err := loadRun(path, f, cfg)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	return r, nil
}

// readLastKey returns a copy of the largest key in the run (nil for an empty
// run), from a private read of the last block.
func (r *run) readLastKey() ([]byte, error) {
	if len(r.blocks) == 0 {
		return nil, nil
	}
	bm := r.blocks[len(r.blocks)-1]
	buf := make([]byte, bm.length)
	if _, err := r.f.ReadAt(buf, bm.off); err != nil {
		return nil, fmt.Errorf("lsm: reading last block of %s: %w", r.path, err)
	}
	v, err := parseBlock(buf)
	if err != nil {
		return nil, fmt.Errorf("lsm: last block of %s: %w", r.path, err)
	}
	if v.count() == 0 {
		return nil, fmt.Errorf("lsm: last block of %s is empty", r.path)
	}
	e, err := v.entryAt(v.count() - 1)
	if err != nil {
		return nil, fmt.Errorf("lsm: last block of %s: %w", r.path, err)
	}
	return append([]byte(nil), e.key...), nil
}

func loadRun(path string, f *os.File, cfg runConfig) (*run, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < int64(len(runMagic))+runTrailerLen {
		return nil, fmt.Errorf("lsm: run %s too small", path)
	}
	var trailer [runTrailerLen]byte
	if _, err := f.ReadAt(trailer[:], st.Size()-runTrailerLen); err != nil {
		return nil, err
	}
	if !bytes.Equal(trailer[16:], runMagic) {
		return nil, fmt.Errorf("lsm: run %s has bad trailer magic", path)
	}
	indexLen := int64(binary.LittleEndian.Uint32(trailer[0:]))
	bloomLen := int64(binary.LittleEndian.Uint32(trailer[4:]))
	count := binary.LittleEndian.Uint64(trailer[8:])
	body := st.Size() - int64(len(runMagic)) - runTrailerLen
	if indexLen > body || bloomLen > body-indexLen {
		return nil, fmt.Errorf("lsm: run %s trailer lengths (%d,%d) exceed file size %d", path, indexLen, bloomLen, st.Size())
	}
	indexOff := st.Size() - runTrailerLen - bloomLen - indexLen
	tail := make([]byte, indexLen+bloomLen)
	if _, err := f.ReadAt(tail, indexOff); err != nil {
		return nil, err
	}
	bloom := unmarshalBloom(tail[indexLen:])
	if bloom == nil {
		return nil, fmt.Errorf("lsm: run %s has corrupt bloom filter", path)
	}

	blocks, err := parseRunIndex(tail[:indexLen], int64(len(runMagic)), indexOff, count)
	if err != nil {
		return nil, fmt.Errorf("lsm: run %s: %w", path, err)
	}
	r := &run{
		path:   path,
		f:      f,
		id:     nextRunID.Add(1),
		blocks: blocks,
		count:  int(count),
		bloom:  bloom,
		cfg:    cfg,
		unused: make(chan struct{}),
	}
	r.refs.Store(1) // the caller's (usually the published list's) reference
	return r, nil
}

// parseRunIndex decodes the sparse index section, validating every block's
// extent against [dataStart, dataEnd), key ordering, and the trailer's entry
// count — the index is the only trusted map of the file, so it must be
// internally consistent before any block is read through it.
func parseRunIndex(idx []byte, dataStart, dataEnd int64, count uint64) ([]blockMeta, error) {
	rd := bytes.NewReader(idx)
	nBlocks, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, fmt.Errorf("index truncated: %w", err)
	}
	// Each index entry is at least 4 bytes, so nBlocks is bounded by the
	// section length — checked before allocating.
	if nBlocks > uint64(len(idx)) {
		return nil, fmt.Errorf("index block count %d exceeds index size %d", nBlocks, len(idx))
	}
	blocks := make([]blockMeta, 0, nBlocks)
	var prevKey []byte
	var prevEnd = dataStart
	var entries uint64
	for i := uint64(0); i < nBlocks; i++ {
		klen, err := binary.ReadUvarint(rd)
		if err != nil {
			return nil, fmt.Errorf("index truncated at block %d: %w", i, err)
		}
		if klen > uint64(rd.Len()) {
			return nil, fmt.Errorf("index block %d key length %d exceeds remaining index", i, klen)
		}
		key := make([]byte, klen)
		if _, err := rd.Read(key); err != nil {
			return nil, err
		}
		off, err := binary.ReadUvarint(rd)
		if err != nil {
			return nil, err
		}
		length, err := binary.ReadUvarint(rd)
		if err != nil {
			return nil, err
		}
		n, err := binary.ReadUvarint(rd)
		if err != nil {
			return nil, err
		}
		if i > 0 && bytes.Compare(key, prevKey) <= 0 {
			return nil, fmt.Errorf("index block %d first key out of order", i)
		}
		if int64(off) != prevEnd || length < blockFooterLen || int64(off)+int64(length) > dataEnd {
			return nil, fmt.Errorf("index block %d extent [%d,+%d) outside data section [%d,%d)", i, off, length, prevEnd, dataEnd)
		}
		if n == 0 {
			return nil, fmt.Errorf("index block %d is empty", i)
		}
		prevKey = key
		prevEnd = int64(off) + int64(length)
		entries += n
		blocks = append(blocks, blockMeta{firstKey: key, off: int64(off), length: int32(length), entries: int32(n)})
	}
	if entries != count {
		return nil, fmt.Errorf("index entry total %d disagrees with trailer count %d", entries, count)
	}
	if prevEnd != dataEnd {
		return nil, fmt.Errorf("index covers [%d,%d), data section ends at %d", dataStart, prevEnd, dataEnd)
	}
	return blocks, nil
}

// len reports the number of entries in the run.
func (r *run) len() int { return r.count }

// readBlock returns a validated view over block i: from the shared cache if
// resident (no disk read, no CRC re-check — cached blocks were validated on
// insert and are immutable), otherwise read from disk, CRC-checked, and
// cached. fill says whether caching it may evict other blocks: lookups and
// scans fill, a merge does not — it reads every block of runs it is about to
// delete exactly once, so what it reads may sit in free cache space but must
// never push out the blocks lookups are using. The "read:block" fault point
// fires only on the disk path; an ErrCorruptRead return flips a bit in the
// freshly read buffer, modelling media corruption the checksum must catch.
func (r *run) readBlock(i int, fill bool) (blockView, error) {
	bm := r.blocks[i]
	key := blockKey{runID: r.id, blockNo: uint32(i)}
	if r.cfg.cache != nil {
		if data := r.cfg.cache.get(key); data != nil {
			return trustedBlock(data), nil
		}
	}
	flip := false
	if r.cfg.fault != nil {
		if err := r.cfg.fault("read:block"); err != nil {
			if errors.Is(err, ErrCorruptRead) {
				flip = true
			} else {
				return blockView{}, err
			}
		}
	}
	buf := make([]byte, bm.length)
	if _, err := r.f.ReadAt(buf, bm.off); err != nil {
		return blockView{}, fmt.Errorf("lsm: reading block %d of %s: %w", i, r.path, err)
	}
	if r.cfg.metrics != nil {
		r.cfg.metrics.BlockReads.Add(1)
	}
	if flip {
		buf[len(buf)/2] ^= 0x40
	}
	v, err := parseBlock(buf)
	if err != nil || flip {
		if flip {
			// Injected corruption is transient — the next read returns clean
			// bytes — so mark it retryable for the background pipeline while
			// still surfacing the checksum failure.
			return blockView{}, fmt.Errorf("lsm: block %d of %s: %w", i, r.path, errors.Join(ErrChecksum, ErrInjected))
		}
		return blockView{}, fmt.Errorf("lsm: block %d of %s: %w", i, r.path, err)
	}
	if int(binary.LittleEndian.Uint32(buf[len(buf)-blockFooterLen:])) != int(bm.entries) {
		return blockView{}, fmt.Errorf("lsm: block %d of %s holds %d entries, index says %d", i, r.path, v.count(), bm.entries)
	}
	if r.cfg.cache != nil {
		r.cfg.cache.put(key, buf, fill)
	}
	return v, nil
}

// findBlock returns the index of the block that may contain key: the last
// block whose first key is <= key, or -1 if key precedes the whole run.
func (r *run) findBlock(key []byte) int {
	return sort.Search(len(r.blocks), func(i int) bool {
		return bytes.Compare(r.blocks[i].firstKey, key) > 0
	}) - 1
}

// get returns the entry for key if the run contains it; h1 and h2 are
// bloomHashes(key), computed once by the caller for every run it probes. The
// returned entry aliases (possibly cached) block memory; callers that retain
// it must copy.
func (r *run) get(key []byte, h1, h2 uint64) (entry, bool, error) {
	if !r.bloom.mayContain(h1, h2) {
		return entry{}, false, nil
	}
	bi := r.findBlock(key)
	if bi < 0 {
		return entry{}, false, nil
	}
	v, err := r.readBlock(bi, true)
	if err != nil {
		return entry{}, false, err
	}
	i, err := v.search(key)
	if err != nil {
		return entry{}, false, err
	}
	if i >= v.count() {
		return entry{}, false, nil
	}
	e, err := v.entryAt(i)
	if err != nil {
		return entry{}, false, err
	}
	if !bytes.Equal(e.key, key) {
		return entry{}, false, nil
	}
	return e, true, nil
}

// iter returns an iterator over entries with key >= from; fill says whether
// the blocks it reads from disk may evict others from the block cache (see
// readBlock).
func (r *run) iter(from []byte, fill bool) *runIter {
	it := &runIter{r: r, fill: fill}
	if len(r.blocks) == 0 {
		return it
	}
	if from != nil {
		if bi := r.findBlock(from); bi > 0 {
			it.bi = bi
		}
	}
	v, err := r.readBlock(it.bi, fill)
	if err != nil {
		it.err = err
		return it
	}
	it.v = v
	if from != nil {
		i, err := v.search(from)
		if err != nil {
			it.err = err
			return it
		}
		it.ei = i
	}
	it.advance()
	return it
}

// close drops the caller's (sole) reference; see release.
func (r *run) close() error { return r.release() }

// runIter iterates a run in key order, block at a time: one disk read (or
// cache hit) per ~32 KiB of data instead of one per entry. The current entry
// is prefetched so valid/key stay error-free; a read or decode failure
// parks the iterator invalid with a sticky error that callers MUST check via
// fail() after their loop — an errored iterator is indistinguishable from an
// exhausted one otherwise.
type runIter struct {
	r    *run
	fill bool
	bi   int // current block index
	v    blockView
	ei   int // index of the entry after cur within v
	cur  entry
	ok   bool
	err  error
}

// advance loads cur from (bi, ei), crossing block boundaries as needed.
func (it *runIter) advance() {
	it.ok = false
	if it.err != nil {
		return
	}
	for it.ei >= it.v.count() {
		it.bi++
		if it.bi >= len(it.r.blocks) {
			return
		}
		v, err := it.r.readBlock(it.bi, it.fill)
		if err != nil {
			it.err = err
			return
		}
		it.v = v
		it.ei = 0
	}
	e, err := it.v.entryAt(it.ei)
	if err != nil {
		it.err = err
		return
	}
	it.cur = e
	it.ok = true
}

func (it *runIter) valid() bool { return it.ok }

// curr returns the current entry. Its key and value alias block memory, and
// block memory is never reused or mutated: readBlock allocates a fresh
// buffer per disk read and cached blocks are immutable, so eviction only
// drops the cache's reference. The bytes therefore stay valid after the
// iterator advances — even across a block boundary — for as long as the
// caller holds them, which is what lets the merge compare against a winner's
// key while advancing past it and lets the run writer consume an entry
// without a private copy. Callers that retain an entry pin its whole block.
func (it *runIter) curr() (entry, error) {
	if it.err != nil {
		return entry{}, it.err
	}
	return it.cur, nil
}

func (it *runIter) key() []byte { return it.cur.key }

func (it *runIter) next() {
	it.ei++
	it.advance()
}

// fail reports the sticky error that invalidated the iterator, if any.
// Loops that drain an iterator must check it: read errors make valid()
// return false exactly like clean exhaustion.
func (it *runIter) fail() error { return it.err }
