package lsm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// A run file is a sequence of segments, each a sorted, self-contained body:
//
//	header   magic(8) | segment length u64 LE | crc u32 LE
//	block*   checksummed blocks of entries (block.go)
//	index    block count, then (first key, offset, length, entries) per block,
//	         uvarint-framed; offsets are file offsets
//	filter   the segment's key filter: its bitmap's 64-bit words, little-endian
//	         (keyFilter), a power of two of 64-byte lines
//	trailer  index length u32 | filter length u32 | entry count u64 | magic(8)
//
// The crc covers the length field, index, filter and trailer (blocks carry
// their own). Every key of a segment is greater than every key of the one
// before it, so the file as a whole is one sorted run. The first segment is
// written to a temp file and renamed into place; a later one is appended by
// a flush whose keys all lie above the run (Tree.flushTasks): body, header,
// one fsync. The flush's manifest record then commits the file's new length,
// and only a committed length is ever read — loadRun fails on any defect
// below it, and Open cuts off what lies beyond it — so a header whose body
// had not reached the disk before a crash is never looked at. No committed
// byte is ever rewritten: a reader's view of the file stays exact while the
// file grows behind it.
//
// A segment's magic names its format. Format 04 stores keyFilter. Formats 02
// and 03 stored a Bloom filter of another layout and hash, which is not read:
// such a segment gets the zero filter, which answers "maybe" to every key,
// until a merge rewrites it. Format 03 differs from 04 only in that filter,
// so a flush may extend a format-03 file; the segment it appends is format
// 04. A format-02 file is one segment whose header is the bare magic: nothing
// at its head says where it ends, so it is read as it always was and never
// grows.
var (
	runMagic   = []byte("LSMRUN04")
	runMagic03 = []byte("LSMRUN03")
	runMagic02 = []byte("LSMRUN02")
)

// runHeaderLen is the fixed segment header: magic, length, crc.
const runHeaderLen = 8 + 8 + 4

// defaultBlockBytes is the target encoded block size. A block is closed once
// it reaches the target, so every block except the last is at least this
// large — which bounds a run's block count at ⌈bytes/target⌉ and therefore a
// full scan at that many reads. A point read fetches and checks one block, so
// the target is what a cold lookup reads to return one record.
const defaultBlockBytes = 8 << 10

// runTrailerLen is the fixed trailer: index length, filter length, entry
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
	firstKey []byte // capped sub-slice of its segment's index section, as read
	off      int64
	length   int32
	entries  int32
}

// segment is one segment of a run view: where its blocks start in the view's
// index, and its key filter. Segments partition the run's key range in file
// order, so the segment that may hold a key is the last one whose first
// block's first key is not above it.
type segment struct {
	start  int
	filter keyFilter
}

// run is an immutable view of a sorted component on disk: the segments its
// file held when the view was made, organized as checksummed blocks. Only the
// sparse index (first key per block) and the segments' key filters live in
// memory; everything else is read block-at-a-time through the shared
// BlockCache. A key filter prunes point lookups.
//
// A flush that extends the file publishes a new view (extended) in place of
// this one; the two share the runFile, and the longer one's index and segment
// list may share this one's backing arrays — it only ever appends past
// len(blocks) and len(segs), which no holder of this view reads.
type run struct {
	*runFile
	blocks []blockMeta
	segs   []segment
	count  int
	bytes  int64 // data bytes: the blocks' lengths summed
	// end is the file offset just past the last segment, where an extension
	// starts; 0 for a format-02 file, which cannot grow.
	end int64
	// last is the run's largest key: with blocks[0].firstKey it fences the
	// keys the run can hold. Set once before the run is shared — by the
	// writer from the last entry it added, or by openRun from the last block.
	last []byte
}

// runFile is what every view of one run file shares: the read handle, the
// block-cache id (block numbers only grow, so resident blocks stay valid as
// the file does), and the reference count.
//
// Runs are reference-counted: every published runSet that lists a view
// holds one reference (readers pin the set, not its runs), and the compactor
// retains its inputs for the length of a merge. The last release closes the
// file handle and signals unused, which the compactor waits on before
// deleting a merged-away input file — so a reader mid-scan never has a run
// unlinked under it, and input deletion order (oldest first) stays under the
// compactor's control.
type runFile struct {
	path string
	f    *os.File
	id   uint64 // process-unique cache key; never reused, so dead runs need no invalidation
	cfg  runConfig

	refs   atomic.Int32
	unused chan struct{} // closed when refs reaches zero
}

// retain pins the run: its file handle stays open (and its file undeleted)
// until a matching release. Callers must hold a reference already — their
// own, or the tree lock while the run is in the published set.
func (r *runFile) retain() {
	r.refs.Add(1)
}

// release drops one reference. The last release closes the file handle and
// closes unused; only then may the file be deleted (by the compactor, which
// waits on unused).
func (r *runFile) release() error {
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
	runs     []*run
	spans    []span
	entries  int
	segments int
	refs     atomic.Int32
}

// newRunSet builds the set for runs (newest first; the set owns the slice),
// retaining each run, and returns it holding the caller's one reference.
func newRunSet(runs []*run) *runSet {
	s := &runSet{runs: runs, spans: make([]span, len(runs))}
	for i, r := range runs {
		r.retain()
		s.spans[i] = r.span()
		s.entries += r.len()
		s.segments += len(r.segs)
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
	return span{bytes: r.bytes, first: r.blocks[0].firstKey, last: r.last}
}

// covers reports whether key lies inside the span's fences.
func (s span) covers(key []byte) bool {
	return s.bytes > 0 && bytes.Compare(s.first, key) <= 0 && bytes.Compare(key, s.last) <= 0
}

// overlaps reports whether the two spans share a key position.
func (s span) overlaps(o span) bool {
	return s.bytes > 0 && o.bytes > 0 && bytes.Compare(s.first, o.last) <= 0 && bytes.Compare(o.first, s.last) <= 0
}

// runWriter streams sorted, unique entries into one segment block by block,
// holding only the current block, the sparse index, and the key filter in
// memory — never the entry set. A new file is written to path+".tmp" and
// renamed into place on finish, so a crash mid-write leaves only a .tmp file,
// which Open sweeps. A segment that extends prev is written in place at
// prev.end, where an unfinished one lies beyond the committed length, which
// Open cuts off. Either finish or abort must be called exactly once.
type runWriter struct {
	path   string
	tmp    string
	prev   *run  // the run this segment extends; nil for a new file
	base   int64 // file offset of the segment's header
	f      *os.File
	w      *bufio.Writer
	filter keyFilter
	cfg    runConfig
	bb     blockBuilder
	// index is the segment's index section as closeBlock builds it, one
	// serialized entry per block; blocks counts them.
	index  []byte
	blocks int
	off    int64 // file offset where the current block will land
	count  int
	last   []byte // a copy of the key added last, for the run's upper fence
}

// newRunWriter starts a segment: the first of a new file destined for path,
// or, when prev is not nil, the next of prev's file. capacityHint sizes the
// key filter; overestimating (e.g. the pre-dedup entry total of a merge's
// inputs) only lowers the false-positive rate.
func newRunWriter(path string, prev *run, capacityHint int, cfg runConfig) (*runWriter, error) {
	rw := &runWriter{path: path, tmp: path + ".tmp", prev: prev, filter: newKeyFilter(capacityHint), cfg: cfg}
	name, flag := rw.tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY
	if prev != nil {
		name, flag, rw.base = prev.path, os.O_WRONLY, prev.end
	}
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lsm: creating run: %w", err)
	}
	rw.f, rw.w, rw.off = f, bufio.NewWriterSize(f, 1<<16), rw.base+runHeaderLen
	// The header is written last; until then its place is a hole.
	if _, err := f.Seek(rw.off, io.SeekStart); err != nil {
		return nil, rw.fail(err)
	}
	return rw, nil
}

// add appends one entry; keys must arrive in strictly ascending order. The
// current block is closed once it reaches the target size, so blocks are
// always at least the target (bar the final one) and at most the target plus
// one entry.
func (rw *runWriter) add(e entry) error {
	rw.filter.add(keyHash(e.key))
	rw.bb.add(e)
	rw.count++
	rw.last = append(rw.last[:0], e.key...)
	if rw.bb.size() >= rw.cfg.blockTarget() {
		return rw.closeBlock()
	}
	return nil
}

// closeBlock seals the in-progress block: emit its bytes, append its sparse
// index entry — (first key, offset, length, entries), uvarint-framed — to the
// index section, reset the builder.
func (rw *runWriter) closeBlock() error {
	if rw.bb.count() == 0 {
		return nil
	}
	buf := rw.bb.finish()
	if _, err := rw.w.Write(buf); err != nil {
		return err
	}
	rw.index = binary.AppendUvarint(rw.index, uint64(len(rw.bb.firstKey)))
	rw.index = append(rw.index, rw.bb.firstKey...)
	rw.index = binary.AppendUvarint(rw.index, uint64(rw.off))
	rw.index = binary.AppendUvarint(rw.index, uint64(len(buf)))
	rw.index = binary.AppendUvarint(rw.index, uint64(rw.bb.count()))
	rw.blocks++
	rw.off += int64(len(buf))
	rw.bb.reset()
	return nil
}

// finish seals the last block, cuts the file at the segment's end and writes
// the index section, key filter and trailer, then the header, then fsyncs. A
// new file is then renamed into place and opened; an extension is returned as
// prev's longer view. On failure what was written is discarded; the writer
// must not be reused.
//
// The fault points "run:trailer" and "run:header" precede the two writes:
// ErrTornWrite persists the first half of that write and leaves the rest as a
// crash would.
func (rw *runWriter) finish() (*run, error) {
	if err := rw.closeBlock(); err != nil {
		return nil, rw.fail(err)
	}
	if err := rw.w.Flush(); err != nil {
		return nil, rw.fail(err)
	}
	// Index section: block count, then the entries closeBlock serialized.
	meta := make([]byte, 0, binary.MaxVarintLen64+len(rw.index)+len(rw.filter.bits)+runTrailerLen)
	meta = append(binary.AppendUvarint(meta, uint64(rw.blocks)), rw.index...)
	indexLen := len(meta)
	meta = append(meta, rw.filter.bits...)
	var trailer [runTrailerLen]byte
	binary.LittleEndian.PutUint32(trailer[0:], uint32(indexLen))
	binary.LittleEndian.PutUint32(trailer[4:], uint32(len(meta)-indexLen))
	binary.LittleEndian.PutUint64(trailer[8:], uint64(rw.count))
	copy(trailer[16:], runMagic)
	meta = append(meta, trailer[:]...)
	end := rw.off + int64(len(meta))
	var hdr [runHeaderLen]byte
	copy(hdr[:], runMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(end-rw.base))
	binary.LittleEndian.PutUint32(hdr[16:], crc32.Update(crc32.ChecksumIEEE(hdr[8:16]), crc32.IEEETable, meta))
	// An earlier attempt may have left bytes beyond this segment's end.
	if err := rw.f.Truncate(end); err != nil {
		return nil, rw.fail(err)
	}
	for _, wr := range []struct {
		point string
		p     []byte
		off   int64
	}{{"run:trailer", meta, rw.off}, {"run:header", hdr[:], rw.base}} {
		if rw.cfg.fault != nil {
			if err := rw.cfg.fault(wr.point); errors.Is(err, ErrTornWrite) {
				_, _ = rw.f.WriteAt(wr.p[:len(wr.p)/2], wr.off)
				_ = rw.f.Close()
				return nil, err
			} else if err != nil {
				return nil, rw.fail(err)
			}
		}
		if _, err := rw.f.WriteAt(wr.p, wr.off); err != nil {
			return nil, rw.fail(err)
		}
	}
	// One fsync, before the rename of a new file and before the manifest
	// commit of an extension: nothing reads the segment until one of those.
	if err := rw.f.Sync(); err != nil {
		return nil, rw.fail(err)
	}
	if err := rw.f.Close(); err != nil {
		if rw.prev == nil {
			_ = os.Remove(rw.tmp)
		}
		return nil, err
	}
	var r *run
	var err error
	if rw.prev != nil {
		r, err = rw.prev.extended(end, hdr[:])
	} else {
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
		r, err = openUnfenced(rw.path, rw.cfg, end)
	}
	if err == nil && rw.count > 0 {
		r.last = rw.last
	}
	return r, err
}

func (rw *runWriter) fail(err error) error {
	_ = rw.abort()
	return err
}

// abort discards the partially written segment: the temp file, or whatever
// lies past the end of the run being extended.
func (rw *runWriter) abort() error {
	if rw.prev != nil {
		err := rw.f.Truncate(rw.base)
		if cerr := rw.f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	cerr := rw.f.Close()
	if err := os.Remove(rw.tmp); err != nil {
		return err
	}
	return cerr
}

// openRun loads a run's sparse index and key filters from disk (loadRun): a
// corrupt or truncated file fails loudly here rather than triggering an
// unbounded allocation or a garbage index. The upper fence is
// not in the file format: it is the last entry of the last block, read here
// once (CRC-checked, past the cache, outside any tree lock).
func openRun(path string, cfg runConfig, committed int64) (*run, error) {
	r, err := openUnfenced(path, cfg, committed)
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
func openUnfenced(path string, cfg runConfig, committed int64) (*run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("lsm: opening run: %w", err)
	}
	r, err := loadRun(path, f, cfg, committed)
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

func (r *run) readAt(p []byte, off int64) error {
	if _, err := r.f.ReadAt(p, off); err != nil {
		return fmt.Errorf("lsm: reading run %s at %d: %w", r.path, off, err)
	}
	return nil
}

// loadRun builds the view of the file's segments; it reads the file and never
// writes it. committed is the file length the manifest vouches for, zero for
// the whole file: every segment below it must check out or the load fails —
// that is lost data. The view ends at committed; the bytes beyond it belong to
// an extension that never committed, its records still in the WAL, and Open
// cuts them off. A format-02 file is one segment and records no length.
func loadRun(path string, f *os.File, cfg runConfig, committed int64) (*run, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	r := &run{runFile: &runFile{path: path, f: f, id: nextRunID.Add(1), cfg: cfg, unused: make(chan struct{})}}
	r.refs.Store(1) // the caller's (usually the published list's) reference
	var hdr [runHeaderLen]byte
	if _, err := f.ReadAt(hdr[:8], 0); err != nil {
		return nil, fmt.Errorf("lsm: run %s too small", path)
	}
	if bytes.Equal(hdr[:8], runMagic02) {
		if err := r.loadSegment(0, size, hdr[:8]); err != nil {
			return nil, err
		}
		r.end = 0
		return r, nil
	}
	limit := size
	if committed > 0 {
		if limit = committed; size < committed {
			return nil, fmt.Errorf("lsm: run %s is %d bytes but %d were committed — refusing to open with lost data", path, size, committed)
		}
	}
	for r.end < limit {
		var n int64
		if limit-r.end >= runHeaderLen {
			if err := r.readAt(hdr[:], r.end); err != nil {
				return nil, err
			}
			n = int64(binary.LittleEndian.Uint64(hdr[8:]))
		}
		if !bytes.Equal(hdr[:8], runMagic) && !bytes.Equal(hdr[:8], runMagic03) || n <= 0 || n > limit-r.end {
			return nil, fmt.Errorf("lsm: run %s has a bad segment header at %d", path, r.end)
		}
		if err := r.loadSegment(r.end, r.end+n, hdr[:]); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// loadSegment adds the segment at [start, end) of the file, whose header
// bytes are hdr, to the view; on error the view is unchanged. Every trailer
// length is validated against the segment size before any allocation or read.
func (r *run) loadSegment(start, end int64, hdr []byte) error {
	body := end - start - int64(len(hdr)) - runTrailerLen
	if body < 0 {
		return fmt.Errorf("lsm: run %s too small", r.path)
	}
	var trailer [runTrailerLen]byte
	if err := r.readAt(trailer[:], end-runTrailerLen); err != nil {
		return err
	}
	if !bytes.Equal(trailer[16:], hdr[:8]) {
		return fmt.Errorf("lsm: run %s has bad trailer magic", r.path)
	}
	indexLen := int64(binary.LittleEndian.Uint32(trailer[0:]))
	filterLen := int64(binary.LittleEndian.Uint32(trailer[4:]))
	count := binary.LittleEndian.Uint64(trailer[8:])
	if indexLen > body || filterLen > body-indexLen {
		return fmt.Errorf("lsm: run %s trailer lengths (%d,%d) exceed segment size %d", r.path, indexLen, filterLen, end-start)
	}
	indexOff := end - runTrailerLen - filterLen - indexLen
	// One buffer per segment, the filter first, so its lines start where the
	// allocation does: a format-04 filter and every block's first key alias
	// it. An older segment's filter is read for the checksum only, format 02's
	// not at all.
	format04, keep := bytes.Equal(hdr[:8], runMagic), int64(0)
	if format04 {
		keep = filterLen
	}
	tail := make([]byte, keep+indexLen)
	filter, index := tail[:keep:keep], tail[keep:]
	if err := r.readAt(index, indexOff); err != nil {
		return err
	}
	if len(hdr) == runHeaderLen {
		if !format04 {
			filter = make([]byte, filterLen)
		}
		if err := r.readAt(filter, indexOff+indexLen); err != nil {
			return err
		}
		sum := crc32.ChecksumIEEE(hdr[8:16])
		for _, b := range [][]byte{index, filter, trailer[:]} {
			sum = crc32.Update(sum, crc32.IEEETable, b)
		}
		if sum != binary.LittleEndian.Uint32(hdr[16:]) {
			return fmt.Errorf("lsm: run %s segment at %d: index, filter or trailer: %w", r.path, start, ErrChecksum)
		}
	}
	var kf keyFilter
	if format04 {
		var ok bool
		if kf, ok = loadKeyFilter(filter); !ok {
			return fmt.Errorf("lsm: run %s has a corrupt key filter of %d bytes", r.path, filterLen)
		}
	}
	blocks, err := parseRunIndex(r.blocks, index, start+int64(len(hdr)), indexOff, count)
	if err != nil {
		return fmt.Errorf("lsm: run %s: %w", r.path, err)
	}
	r.segs = append(r.segs, segment{start: len(r.blocks), filter: kf})
	r.blocks, r.count, r.bytes = blocks, r.count+int(count), r.bytes+indexOff-start-int64(len(hdr))
	r.end = end
	return nil
}

// extended returns the view that follows r once a segment has been written
// at [r.end, end) of its file, holding the caller's reference. Only the one
// flusher extends, and only the newest view of a file.
func (r *run) extended(end int64, hdr []byte) (*run, error) {
	nv := *r
	if err := nv.loadSegment(r.end, end, hdr); err != nil {
		return nil, err
	}
	nv.retain()
	return &nv, nil
}

// parseRunIndex decodes one segment's sparse index section onto blocks (the
// index of the segments before it), validating every block's extent against
// [dataStart, dataEnd), key ordering, and the trailer's entry count — the
// index is the only trusted map of the file, so it must be internally
// consistent before any block is read through it. Each first key is a capped
// sub-slice of idx, so the segment's keys cost no allocation of their own and
// idx must never be written again; blocks grows at most once.
func parseRunIndex(blocks []blockMeta, idx []byte, dataStart, dataEnd int64, count uint64) ([]blockMeta, error) {
	rest := idx
	uvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, false
		}
		rest = rest[n:]
		return v, true
	}
	nBlocks, ok := uvarint()
	if !ok {
		return nil, fmt.Errorf("index truncated")
	}
	// Each index entry is at least 4 bytes (four uvarints), so the section
	// length bounds nBlocks, and with it the one growth of blocks below.
	if nBlocks > uint64(len(rest)/4) {
		return nil, fmt.Errorf("index block count %d exceeds index size %d", nBlocks, len(idx))
	}
	if free := cap(blocks) - len(blocks); uint64(free) < nBlocks {
		grown := make([]blockMeta, len(blocks), max(2*cap(blocks), len(blocks)+int(nBlocks)))
		copy(grown, blocks)
		blocks = grown
	}
	var prevKey []byte
	if len(blocks) > 0 {
		prevKey = blocks[len(blocks)-1].firstKey
	}
	var prevEnd = dataStart
	var entries uint64
	for i := uint64(0); i < nBlocks; i++ {
		klen, ok := uvarint()
		if !ok {
			return nil, fmt.Errorf("index truncated at block %d", i)
		}
		if klen > uint64(len(rest)) {
			return nil, fmt.Errorf("index block %d key length %d exceeds remaining index", i, klen)
		}
		key := rest[:klen:klen]
		rest = rest[klen:]
		off, ok1 := uvarint()
		length, ok2 := uvarint()
		n, ok3 := uvarint()
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("index truncated at block %d", i)
		}
		if len(blocks) > 0 && bytes.Compare(key, prevKey) <= 0 {
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

// pinBlock returns a validated view over block i, and the pin that keeps its
// bytes the block's: the caller reads through the view, copies out what it
// keeps, and only then releases the pin through the cache. A hit pins the
// resident entry; a miss reads into a buffer borrowed from the cache and
// inserts it, and a buffer that fails the read goes back unused. fill says
// whether the insert may evict other blocks: point reads and scans fill, a
// merge does not — it reads every block of runs it is about to delete
// exactly once, so what it reads may sit in free cache space but must never
// push out the blocks lookups are using; a block it cannot keep goes to the
// free list on its release. A block too large for the cache (or a run
// without one) is read into a fresh buffer with no pin.
func (r *run) pinBlock(i int, fill bool) (blockView, *cacheEntry, error) {
	c := r.cfg.cache
	n := r.blocks[i].length
	if c == nil || int64(n) > c.shardCap() {
		if c != nil {
			c.bufferAllocs.Add(1)
		}
		v, err := r.loadBlock(i, make([]byte, n))
		return v, nil, err
	}
	key := blockKey{runID: r.id, blockNo: uint32(i)}
	if e := c.get(key); e != nil {
		return trustedBlock(e.data), e, nil
	}
	e := c.borrow(int(n))
	if _, err := r.loadBlock(i, e.data); err != nil {
		c.release(e)
		return blockView{}, nil, err
	}
	e = c.insert(key, e, fill)
	return trustedBlock(e.data), e, nil
}

// loadBlock reads block i from disk into buf, which is exactly its length,
// and validates it. The "read:block" fault point fires here, on the disk
// path only; an ErrCorruptRead return flips a bit in the freshly read
// buffer, modelling media corruption the checksum must catch.
func (r *run) loadBlock(i int, buf []byte) (blockView, error) {
	bm := r.blocks[i]
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
	start := time.Now()
	if _, err := r.f.ReadAt(buf, bm.off); err != nil {
		return blockView{}, fmt.Errorf("lsm: reading block %d of %s: %w", i, r.path, err)
	}
	if m := r.cfg.metrics; m != nil {
		m.BlockReads.Add(1)
		if m.BlockReadLatency != nil {
			m.BlockReadLatency.Record(time.Since(start))
		}
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
	return v, nil
}

// findBlock returns the index of the block among blocks[lo:hi] that may
// contain key: the last whose first key is <= key, or lo-1 if key precedes
// them all.
func (r *run) findBlock(key []byte, lo, hi int) int {
	return lo + sort.Search(hi-lo, func(i int) bool {
		return bytes.Compare(r.blocks[lo+i].firstKey, key) > 0
	}) - 1
}

// segmentOf returns the index of the segment that may hold key: the last
// whose first key is <= key, or -1 if key precedes the run. A run of one
// segment, which every merge and every flush that does not extend writes,
// needs no search: its one segment is the answer, and the block search
// refuses a key below it. A segment with no blocks sorts as its successor's
// first key, or above every key when it is the last.
func (r *run) segmentOf(key []byte) int {
	if len(r.segs) == 1 {
		return 0
	}
	return sort.Search(len(r.segs), func(i int) bool {
		b := r.segs[i].start
		return b == len(r.blocks) || bytes.Compare(r.blocks[b].firstKey, key) > 0
	}) - 1
}

// view looks key up in the run; h is keyHash(key), computed once by the
// caller for every filter it asks. The key's segment's filter is
// asked before that segment's blocks are searched. found reports whether the
// run holds an entry for key, live whether that entry is a value rather than
// a tombstone; a value is handed to fn inside its block, whose pin is
// released only when fn returns: after that the block's buffer may be lent
// to another read.
func (r *run) view(key []byte, h uint64, fn func(value []byte)) (found, live bool, err error) {
	si := r.segmentOf(key)
	if si < 0 || !r.segs[si].filter.mayContain(h) {
		return false, false, nil
	}
	lo, hi := r.segs[si].start, len(r.blocks)
	if si+1 < len(r.segs) {
		hi = r.segs[si+1].start
	}
	bi := r.findBlock(key, lo, hi)
	if bi < lo {
		return false, false, nil
	}
	v, pin, err := r.pinBlock(bi, true)
	if err != nil {
		return false, false, err
	}
	defer r.cfg.cache.release(pin)
	i, err := v.search(key)
	if err != nil || i >= v.count() {
		return false, false, err
	}
	e, err := v.entryAt(i)
	if err != nil || !bytes.Equal(e.key, key) {
		return false, false, err
	}
	if !e.tombstone {
		fn(e.value)
	}
	return true, !e.tombstone, nil
}

// iter returns an iterator over entries with key >= from; fill is handed to
// pinBlock for every block it reads.
func (r *run) iter(from []byte, fill bool) *runIter {
	it := &runIter{r: r, fill: fill}
	if len(r.blocks) == 0 {
		return it
	}
	if from != nil {
		if bi := r.findBlock(from, 0, len(r.blocks)); bi > 0 {
			it.bi = bi
		}
	}
	if !it.load() {
		return it
	}
	if from != nil {
		i, err := it.v.search(from)
		if err != nil {
			it.err = err
			it.close()
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
// cache hit) per ~8 KiB of data instead of one per entry. It holds the pin
// of the block it stands in, and releases it when it moves to the next
// block, runs out, fails or is closed. The current entry is prefetched so
// valid/key stay error-free; a read or decode failure parks the iterator
// invalid with a sticky error that callers MUST check via fail() after
// their loop — an errored iterator is indistinguishable from an exhausted
// one otherwise.
type runIter struct {
	r    *run
	fill bool
	bi   int // current block index
	v    blockView
	pin  *cacheEntry // v's pin; nil once released, or for an unpinned block
	ei   int         // index of the entry after cur within v
	cur  entry
	ok   bool
	err  error
}

// load pins block bi into v and reports whether it could.
func (it *runIter) load() bool {
	v, pin, err := it.r.pinBlock(it.bi, it.fill)
	if err != nil {
		it.err = err
		return false
	}
	it.v, it.pin, it.ei = v, pin, 0
	return true
}

// advance loads cur from (bi, ei), crossing block boundaries as needed.
func (it *runIter) advance() {
	it.ok = false
	if it.err != nil {
		return
	}
	for it.ei >= it.v.count() {
		it.close()
		it.bi++
		if it.bi >= len(it.r.blocks) || !it.load() {
			return
		}
	}
	e, err := it.v.entryAt(it.ei)
	if err != nil {
		it.err = err
		it.close()
		return
	}
	it.cur = e
	it.ok = true
}

// close releases the pin of the block the iterator stands in; a closed
// iterator must not be read.
func (it *runIter) close() {
	it.r.cfg.cache.release(it.pin)
	it.pin = nil
}

func (it *runIter) valid() bool { return it.ok }

// curr returns the current entry. Its key and value alias the pinned block
// and are valid only until the iterator moves on or is closed: a caller
// that keeps them past that copies them.
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
