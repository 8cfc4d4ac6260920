package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The manifest is the tree's durability keystone and the only source of what
// the tree holds: an append-only log of committed structural edits, named
// MANIFEST-NNNNNN. Open reads the newest generation to reconstruct the exact
// run set and the WAL checkpoint floor (the segment number at or below which
// every record is durable in a run file); it never infers either from a
// directory listing.
//
// Record framing, shared by all kinds:
//
//	crc32(le u32, over body) bodyLen(le u32) body
//
// body starts with a kind byte:
//
//	manSnapshot: runCount(uvarint) {nameLen(uvarint) name}* floor(uvarint) {end(uvarint)}*
//	  Full state; always (and only) the first record of a file.
//	manFlush: nameLen(uvarint) name floor(uvarint) end(uvarint)
//	  One composite edit for a flush commit: the named run is prepended to
//	  the run set — unless it already heads it, when the flush extended that
//	  run's file by a segment — AND the floor advances to cover the segments
//	  the flush retires. One fsynced record makes both facts durable
//	  together, so there is no window where the segment files may be deleted
//	  but their retirement is not yet recorded.
//	manMerge: outLen(uvarint) out inCount(uvarint) {nameLen name}* end(uvarint)
//	  A merge commit: the inputs leave the run set and the output takes the
//	  newest input's position.
//
// end is the committed length of the named run's file: every byte below it
// is vouched for (Open fails loudly on any defect there), every byte beyond
// it belongs to a flush that never committed (Open cuts it off). The ends are
// absent from records written before run files could grow; zero means
// "whatever the file holds".
//
// A new snapshot file is written on every Open (lazily: see
// lazySnapshotLocked) and, durably, whenever manifestRewriteEvery edits
// accumulate, so the manifest never grows with history. Older MANIFEST files
// are deleted only after the replacement is durable. Because every commit
// fsyncs its record before anything it supersedes is deleted, a bad last
// record is an append that never returned and is dropped (parseManifest); a
// bad record with bytes after it is corruption, and Open refuses.
const (
	manSnapshot byte = 1
	manFlush    byte = 2
	manMerge    byte = 3
)

// manifestRewriteEvery bounds the append log: once this many edit records
// follow the snapshot, the next commit folds them into a fresh snapshot
// file instead of appending another record.
const manifestRewriteEvery = 64

// errManifestDead wedges commits after an append failure or close: the
// in-memory state may no longer match the file, so nothing more may be
// written to it.
var errManifestDead = errors.New("lsm: manifest closed or wedged")

func manifestName(seq int) string { return fmt.Sprintf("MANIFEST-%06d", seq) }

// manifestSeq parses the sequence number out of a base name manifestName
// gives, rejecting temp files and anything else it would not write.
func manifestSeq(base string) (int, bool) {
	digits, ok := strings.CutPrefix(base, "MANIFEST-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	return n, err == nil && n >= 0 && manifestName(n) == base
}

// manState is the run set (newest first) and WAL checkpoint floor
// reconstructed by replaying a manifest's records.
type manState struct {
	runs  []string
	ends  map[string]int64 // committed file length per run; 0 = not recorded
	floor int
}

func appendUvarint(b []byte, v uint64) []byte {
	var scratch [binary.MaxVarintLen64]byte
	return append(b, scratch[:binary.PutUvarint(scratch[:], v)]...)
}

func appendUvString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func manSnapshotBody(st manState) []byte {
	b := []byte{manSnapshot}
	b = appendUvarint(b, uint64(len(st.runs)))
	for _, r := range st.runs {
		b = appendUvString(b, r)
	}
	b = appendUvarint(b, uint64(st.floor))
	for _, r := range st.runs {
		b = appendUvarint(b, uint64(st.ends[r]))
	}
	return b
}

func manFlushBody(run string, end int64, floor int) []byte {
	b := appendUvString([]byte{manFlush}, run)
	return appendUvarint(appendUvarint(b, uint64(floor)), uint64(end))
}

func manMergeBody(output string, end int64, inputs []string) []byte {
	b := appendUvString([]byte{manMerge}, output)
	b = appendUvarint(b, uint64(len(inputs)))
	for _, in := range inputs {
		b = appendUvString(b, in)
	}
	return appendUvarint(b, uint64(end))
}

// manRecord frames body with its CRC and length.
func manRecord(body []byte) []byte {
	rec := make([]byte, 8, 8+len(body))
	binary.LittleEndian.PutUint32(rec[0:], crc32.ChecksumIEEE(body))
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(body)))
	return append(rec, body...)
}

// manDecoder is a strict cursor over one record body; any overrun or
// malformed field sticks in ok=false and poisons the whole parse.
type manDecoder struct {
	b  []byte
	ok bool
}

func (d *manDecoder) uvarint() int {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || v > 1<<31 {
		d.ok = false
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

// name reads a length-prefixed file name, rejecting anything that is not a
// plain base name — a manifest must never direct Open outside its own
// directory.
func (d *manDecoder) name() string {
	n := d.uvarint()
	if !d.ok || n == 0 || n > len(d.b) {
		d.ok = false
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	if filepath.Base(s) != s || s == "." || s == ".." {
		d.ok = false
		return ""
	}
	return s
}

// end reads a run's committed length, or 0 where the record predates it.
func (d *manDecoder) end() int64 {
	v, n := binary.Uvarint(d.b)
	if len(d.b) == 0 {
		return 0
	} else if n <= 0 || v > 1<<62 {
		d.ok = false
		return 0
	}
	d.b = d.b[n:]
	return int64(v)
}

func (d *manDecoder) done() bool { return d.ok && len(d.b) == 0 }

// parseManifest replays a manifest file's records into the state they
// describe. A bad last frame — header cut short, body past the end, CRC
// failing — is the torn tail of an append that never returned: it is dropped.
// ok is false when not even the first frame checks out: the snapshot never
// became durable. Any other defect is an error naming its offset: a bad frame
// with bytes after it, a first record that is not a snapshot, a merge input
// that is not in the run set, fields left over.
func parseManifest(data []byte) (st manState, ok bool, err error) {
	st = manState{ends: map[string]int64{}}
	for off := 0; off < len(data); {
		rest := data[off:]
		n := len(rest) + 1 // the frame's length, per its header
		if len(rest) >= 8 {
			n = 8 + int(binary.LittleEndian.Uint32(rest[4:]))
		}
		if n == 8 || n > len(rest) || crc32.ChecksumIEEE(rest[8:n]) != binary.LittleEndian.Uint32(rest) {
			if off == 0 {
				return manState{}, false, nil
			} else if n < len(rest) {
				return manState{}, false, fmt.Errorf("bad record at offset %d, %d bytes before the end", off, len(rest))
			}
			return st, true, nil
		}

		body := rest[8:n]
		d := &manDecoder{b: body[1:], ok: true}
		switch kind := body[0]; {
		case kind == manSnapshot && off == 0:
			count := d.uvarint()
			if count > 1<<20 {
				d.ok = false
				break
			}
			st.runs = make([]string, 0, count)
			for i := 0; i < count; i++ {
				st.runs = append(st.runs, d.name())
			}
			st.floor = d.uvarint()
			for _, r := range st.runs {
				st.ends[r] = d.end()
			}
		case kind == manFlush && off > 0:
			run := d.name()
			floor := d.uvarint()
			st.ends[run] = d.end()
			if d.ok {
				st.runs = flushedInto(st.runs, run)
				if floor > st.floor {
					st.floor = floor
				}
			}
		case kind == manMerge && off > 0:
			out := d.name()
			count := d.uvarint()
			if count == 0 || count > 1<<20 {
				d.ok = false
				break
			}
			inputs := make(map[string]bool, count)
			for i := 0; i < count; i++ {
				inputs[d.name()] = true
			}
			st.ends[out] = d.end()
			if d.ok {
				st.runs, d.ok = applyMerge(st.runs, out, inputs)
			}
		default:
			d.ok = false
		}
		if !d.done() {
			return manState{}, false, fmt.Errorf("malformed record at offset %d", off)
		}
		off += n
	}
	return st, len(data) > 0, nil
}

// flushedInto returns the run set after a flush into run: run at its head,
// where an extending flush found it already.
func flushedInto(runs []string, run string) []string {
	if len(runs) > 0 && runs[0] == run {
		return runs
	}
	return append([]string{run}, runs...)
}

// applyMerge removes the merge's inputs from runs and places the output at
// the newest input's position. ok=false if any input is missing — a record
// inconsistent with the state it claims to edit.
func applyMerge(runs []string, out string, inputs map[string]bool) ([]string, bool) {
	next := make([]string, 0, len(runs))
	placed := false
	removed := 0
	for _, r := range runs {
		if inputs[r] {
			removed++
			if !placed {
				next = append(next, out)
				placed = true
			}
			continue
		}
		next = append(next, r)
	}
	if removed != len(inputs) {
		return nil, false
	}
	return next, true
}

// loadManifest reads the state of the tree in dir from the newest manifest
// generation whose snapshot is intact, and returns that file's base name as
// loaded — "" when no generation has one — and the highest generation number
// present, so the next snapshot always takes a fresh number. Only Open's lazy
// snapshot can lack an intact one, and the generation before it is still on
// disk then (see lazySnapshotLocked). A generation that is corrupt is an
// error, never a reason to look further back.
func loadManifest(dir string) (st manState, loaded string, newest int, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return manState{}, "", 0, err
	}
	var gens []int
	for _, e := range ents {
		if seq, isMan := manifestSeq(e.Name()); isMan {
			gens = append(gens, seq)
			newest = max(newest, seq)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(gens)))
	for _, seq := range gens {
		name := manifestName(seq)
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return manState{}, "", newest, err
		}
		st, ok, err := parseManifest(data)
		if err != nil {
			return manState{}, "", newest, fmt.Errorf("lsm: %s: %w — refusing to open", path, err)
		}
		if ok {
			return st, name, newest, nil
		}
	}
	return manState{}, "", newest, nil
}

// manifest is the live append handle plus the in-memory mirror of the
// committed state, so a rewrite needs nothing from the tree. All fields
// after gateC are guarded by the gate token — a one-token channel semaphore
// (the same pattern as wal.gateC) so that commits fsync while *queued on a
// channel*, never while holding a mutex.
type manifest struct {
	dir     string
	fault   FaultHook
	metrics *Metrics

	gateC   chan struct{}
	f       *os.File
	path    string
	fileSeq int
	edits   int
	// The committed state: run set newest first, each run's committed
	// length, and the floor (segments numbered <= floor are retired).
	manState
	dead bool
	// durable is false while the generation exists only as a lazy
	// open-time snapshot: the file and its rename have not been fsynced
	// and the generation Open loaded has not been deleted. Open may stay
	// sync-free because losing a lazy snapshot is harmless — recovery then
	// loads that older generation again (loadManifest), exact for a tree
	// that committed nothing since. The first commit (which is about to
	// justify deleting files) completes the push to durability before its
	// record takes effect.
	durable bool
}

// gateAcquire takes the commit token; gateRelease returns it. As with
// wal.gateRelease, the select-with-default only makes the non-blocking
// nature explicit — the gate holds at most one token, so the send to the
// one-slot buffer cannot block.
func (m *manifest) gateAcquire() { <-m.gateC }

func (m *manifest) gateRelease() {
	select {
	case m.gateC <- struct{}{}:
	default:
	}
}

// newManifest writes a fresh snapshot manifest numbered fileSeq and returns
// it open for appending edits. The write is *lazy*: no fsync happens here,
// so Open never blocks on (or is lock-analyzed into) a sync — the first
// commit pushes the generation to durability before deleting anything. If
// a crash loses the lazy snapshot, recovery loads the generation before it,
// or — for a tree that never had one — finds no run files and replays every
// segment: both exact for a tree that committed nothing.
func newManifest(dir string, fileSeq int, st manState, fault FaultHook, metrics *Metrics) (*manifest, error) {
	m := &manifest{
		dir:      dir,
		fault:    fault,
		metrics:  metrics,
		gateC:    make(chan struct{}, 1),
		fileSeq:  fileSeq,
		manState: st,
	}
	m.gateRelease() // seed the single commit token
	m.gateAcquire()
	defer m.gateRelease()
	if err := m.lazySnapshotLocked(fileSeq); err != nil {
		return nil, err
	}
	return m, nil
}

// snapTmpLocked writes the snapshot record into MANIFEST-<seq>.tmp (fault
// hook consulted first) and returns the open file. No fsync and no rename
// happen here — the caller decides how durable the publish must be.
func (m *manifest) snapTmpLocked(seq int) (f *os.File, tmp, path string, err error) {
	path = filepath.Join(m.dir, manifestName(seq))
	tmp = path + ".tmp"
	rec := manRecord(manSnapshotBody(m.manState))

	if m.fault != nil {
		if err := m.fault("manifest:append"); err != nil {
			if errors.Is(err, ErrTornWrite) {
				// Crash mid-rewrite: a torn temp file is all that survives.
				// The rename never happens, so the previous manifest (if
				// any) stays authoritative and Open sweeps the temp.
				m.dead = true
				if werr := os.WriteFile(tmp, rec[:len(rec)/2], 0o644); werr != nil {
					return nil, "", "", werr
				}
				return nil, "", "", ErrTornWrite
			}
			m.dead = true
			return nil, "", "", err
		}
	}

	f, err = os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		m.dead = true
		return nil, "", "", err
	}
	if _, err := f.Write(rec); err != nil {
		m.dead = true
		_ = f.Close()
		_ = os.Remove(tmp)
		return nil, "", "", err
	}
	return f, tmp, path, nil
}

// installSnapshotLocked swaps the live handle to the just-renamed snapshot
// file, retiring the previous handle.
func (m *manifest) installSnapshotLocked(seq int, f *os.File, path string, durable bool) error {
	if m.f != nil {
		if err := m.f.Close(); err != nil {
			m.dead = true
			_ = f.Close()
			return err
		}
	}
	m.f, m.path, m.fileSeq, m.edits, m.durable = f, path, seq, 0, durable
	if m.metrics != nil {
		m.metrics.ManifestRewrites.Add(1)
	}
	return nil
}

// lazySnapshotLocked publishes MANIFEST-<seq> by temp + rename with *no*
// fsync anywhere in its call graph, so Open (its only path) never blocks on
// a sync. Losing the snapshot in a crash is harmless: Open keeps the
// generation it loaded until this one is durable, so recovery loads that one
// again, exact for a tree that committed nothing since; the first commit
// makes the generation durable before anything destructive happens. Callers
// hold the gate token.
func (m *manifest) lazySnapshotLocked(seq int) error {
	f, tmp, path, err := m.snapTmpLocked(seq)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		m.dead = true
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	return m.installSnapshotLocked(seq, f, path, false)
}

// durableSnapshotLocked publishes MANIFEST-<seq> fully durably — file
// fsync, rename, directory fsync — and then deletes the superseded
// generations. Callers hold the gate token.
func (m *manifest) durableSnapshotLocked(seq int) error {
	f, tmp, path, err := m.snapTmpLocked(seq)
	if err != nil {
		return err
	}
	abort := func(err error) error {
		m.dead = true
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		return abort(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return abort(err)
	}
	if err := syncDir(m.dir); err != nil {
		m.dead = true
		_ = f.Close()
		return err
	}
	if err := m.installSnapshotLocked(seq, f, path, true); err != nil {
		return err
	}
	if err := m.removeOlderLocked(seq); err != nil {
		m.dead = true
		return err
	}
	return nil
}

// removeOlderLocked deletes every manifest file numbered below seq.
func (m *manifest) removeOlderLocked(seq int) error {
	names, err := filepath.Glob(filepath.Join(m.dir, "MANIFEST-*"))
	if err != nil {
		return err
	}
	sort.Strings(names)
	for _, p := range names {
		if s, isMan := manifestSeq(filepath.Base(p)); isMan && s < seq {
			if err := os.Remove(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// appendLocked appends one fsynced edit record. Callers hold the gate
// token and apply the matching in-memory edit only after a nil return.
func (m *manifest) appendLocked(body []byte) error {
	if m.dead {
		return errManifestDead
	}
	rec := manRecord(body)
	if m.fault != nil {
		if err := m.fault("manifest:append"); err != nil {
			if errors.Is(err, ErrTornWrite) {
				// Persist a strict prefix, exactly a crash mid-append: the
				// next Open drops the torn tail and recovers without it.
				m.dead = true
				n := len(rec) / 2
				if _, werr := m.f.Write(rec[:n]); werr != nil {
					return werr
				}
				return ErrTornWrite
			}
			m.dead = true
			return err
		}
	}
	if _, err := m.f.Write(rec); err != nil {
		m.dead = true
		return err
	}
	if err := m.f.Sync(); err != nil {
		m.dead = true
		return err
	}
	// First commit on a lazy open-time snapshot: the record is synced into
	// the file, but the file's *name* is not durable yet. Finish the push —
	// directory fsync, then sweep the superseded generations — before the
	// caller acts on the commit, so a crash can never leave an older
	// manifest pointing at state this commit is about to delete.
	if !m.durable {
		if err := syncDir(m.dir); err != nil {
			m.dead = true
			return err
		}
		if err := m.removeOlderLocked(m.fileSeq); err != nil {
			m.dead = true
			return err
		}
		m.durable = true
	}
	m.edits++
	return nil
}

// maybeRewriteLocked compacts the append log into a fresh snapshot once
// enough edits accumulate. Callers hold the gate token.
func (m *manifest) maybeRewriteLocked() error {
	if m.edits < manifestRewriteEvery {
		return nil
	}
	return m.durableSnapshotLocked(m.fileSeq + 1)
}

// commitFlush durably records a published run — its file committed up to
// end — together with the new WAL floor. After a nil return every segment numbered <= floor is retired:
// the next Open deletes rather than replays it — which is why callers must
// not remove any segment file until commitFlush has returned.
func (m *manifest) commitFlush(run string, end int64, floor int) error {
	m.gateAcquire()
	defer m.gateRelease()
	if err := m.appendLocked(manFlushBody(run, end, floor)); err != nil {
		return err
	}
	m.runs, m.ends[run] = flushedInto(m.runs, run), end
	if floor > m.floor {
		m.floor = floor
	}
	return m.maybeRewriteLocked()
}

// commitMerge durably records a merge: inputs out, output in at the newest
// input's position. Input files may be deleted only after a nil return.
func (m *manifest) commitMerge(output string, end int64, inputs []string) error {
	m.gateAcquire()
	defer m.gateRelease()
	set := make(map[string]bool, len(inputs))
	for _, in := range inputs {
		set[in] = true
	}
	next, ok := applyMerge(m.runs, output, set)
	if !ok {
		return fmt.Errorf("lsm: merge inputs %v not in committed run set %v", inputs, m.runs)
	}
	if err := m.appendLocked(manMergeBody(output, end, inputs)); err != nil {
		return err
	}
	for _, in := range inputs {
		delete(m.ends, in)
	}
	m.runs, m.ends[output] = next, end
	return m.maybeRewriteLocked()
}

// close releases the file handle; the manifest stays authoritative on disk.
// Closing a wedged manifest still closes the file — dead only blocks writes.
func (m *manifest) close() error {
	m.gateAcquire()
	defer m.gateRelease()
	m.dead = true
	if m.f == nil {
		return nil
	}
	f := m.f
	m.f = nil
	return f.Close()
}

// syncDir fsyncs the directory at path: a rename is not durable until the
// directory entry itself is, so every publish-by-rename (runs, manifests)
// must be followed by one of these before anything destructive happens.
func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return err
	}
	return d.Close()
}
