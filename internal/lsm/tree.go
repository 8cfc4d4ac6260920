package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Options configures a Tree. The zero value is usable given a Dir.
type Options struct {
	// Dir is the directory holding the tree's WAL segments and run files.
	Dir string
	// MemtableBytes is the rotation threshold; default 4 MiB. A memtable
	// reaching it is frozen onto the immutable queue for the background
	// flusher and writes continue into a fresh one.
	MemtableBytes int
	// MaxImmutables bounds the immutable-memtable queue; default 2. When
	// the queue is full a writer needing to rotate blocks (with the tree
	// lock released) until the flusher drains one — the tree's explicit
	// backpressure bound, surfaced as Stats.WriteStalls and
	// Metrics.WriteStalls.
	MaxImmutables int
	// MaxRuns bounds, by background merging, the two things a long run list
	// costs; default 4. No key may lie inside the key ranges of more than
	// MaxRuns runs, so a point read opens at most that many; and no more
	// than MaxRuns runs of similar size (within 2x) may sit side by side in
	// age, so the file count grows with the logarithm of the data, not with
	// the number of flushes. It does not bound the total run count.
	MaxRuns int
	// SyncWAL chooses whether a WAL append is fsynced. 0 never fsyncs (used
	// by experiments): an acked batch is in the OS, so it survives a process
	// crash but not a host crash. Any positive value fsyncs each batch before
	// ApplyBatch returns, so an ack survives both. It is an int, not a bool,
	// so callers that set it to 1 keep compiling.
	SyncWAL int
	// BlockBytes is the target encoded size of a run block; default 8 KiB.
	// Smaller blocks mean finer cache granularity and more sparse-index
	// entries; larger blocks amortize per-read overhead across more entries.
	BlockBytes int
	// BlockCache, when non-nil, caches run blocks across every tree that
	// shares it — typically one cache per node, so hot blocks from all
	// partitions compete for a single memory budget. A nil cache reads every
	// block from disk.
	BlockCache *BlockCache
	// FaultHook, when non-nil, is consulted at the tree's WAL and
	// background-pipeline failure points. Only fault-injection harnesses
	// set this; see FaultHook.
	FaultHook FaultHook
	// Metrics, when non-nil, receives WAL/flush/merge counter updates;
	// one Metrics value may be shared by many trees. See Metrics.
	Metrics *Metrics
	// Stale, when non-nil, is the merge filter: a merge — never a flush —
	// asks it about every live entry it reads and leaves out each one it
	// reports stale (Metrics.StaleDropped). Only a caller to whom an entry is
	// a claim it can check elsewhere sets it, and then under two rules: an
	// entry it calls stale may be dropped at any moment, because a write that
	// makes it true again writes a newer copy; and when it cannot tell — an
	// error, a source not open — it keeps the entry. A merge window that does
	// not end at the oldest run may then reveal an older copy of a dropped
	// key, which is just as stale. With a filter, Merge rewrites even a tree
	// of one segment.
	Stale func(key, value []byte) bool
}

func (o Options) withDefaults() Options {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.MaxImmutables <= 0 {
		o.MaxImmutables = 2
	}
	if o.MaxRuns <= 0 {
		o.MaxRuns = 4
	}
	return o
}

// flushRetryDelay spaces retries of a transiently failed background flush
// or merge (an injected ErrInjected, modelling e.g. a passing EIO).
const flushRetryDelay = 2 * time.Millisecond

// Stats reports a tree's component structure.
type Stats struct {
	// MemtableEntries counts entries across the mutable memtable and any
	// immutables queued for flush; MemtableBytes their approximate
	// footprint.
	MemtableEntries int
	MemtableBytes   int
	// Immutables is the number of frozen memtables queued for the
	// background flusher.
	Immutables int
	// Runs is the number of immutable disk components; Segments the sorted
	// bodies their files hold between them — one per run, plus one for every
	// flush that extended a run in place.
	Runs, Segments int
	// RunEntries is the total entry count across disk components.
	RunEntries int
	// ReadDepth is the largest number of runs whose key ranges cover one
	// key: the most runs a point read may have to open. The merge policy
	// keeps it at or below MaxRuns.
	ReadDepth int
	// CompactionDebt is the work the merge policy still wants done: read
	// depth beyond MaxRuns plus, for every tier of similar-sized runs, its
	// runs beyond MaxRuns. Zero when the background merge has nothing to do.
	CompactionDebt int
	// Flushes and Merges count completed background lifecycle operations
	// since open.
	Flushes, Merges int
	// WriteStalls counts writer stall episodes: rotations that had to wait
	// because MaxImmutables flushes were already queued.
	WriteStalls int
}

// Add accumulates o into s, for aggregating statistics across trees: sums,
// except ReadDepth, where a reader cares about the worst tree.
func (s *Stats) Add(o Stats) {
	s.MemtableEntries += o.MemtableEntries
	s.MemtableBytes += o.MemtableBytes
	s.Immutables += o.Immutables
	s.Runs += o.Runs
	s.Segments += o.Segments
	s.RunEntries += o.RunEntries
	s.ReadDepth = max(s.ReadDepth, o.ReadDepth)
	s.CompactionDebt += o.CompactionDebt
	s.Flushes += o.Flushes
	s.Merges += o.Merges
	s.WriteStalls += o.WriteStalls
}

// flushTask is one frozen memtable on the immutable queue, paired with the
// WAL segment (and, for the recovery memtable, the replayed segment files)
// whose records it holds. The flusher retires the segments only after the
// memtable's run file is fsynced and renamed into place.
type flushTask struct {
	mem  *memtable
	wal  *wal
	segs []string // replayed segment paths (oldest first), recovery only
	seq  int      // run sequence number, claimed at rotation
}

// Tree is an LSM tree: a WAL-protected memtable over a stack of immutable
// sorted runs with tiered merging. Safe for concurrent use.
//
// Disk I/O runs off the write path: writes rotate a full memtable onto an
// immutable queue and continue into a fresh one, a background flusher
// drains the queue to run files, and a background compactor merges runs —
// so t.mu is never held across a run write, an fsync, or a merge. Readers
// take a snapshot (mutable memtable, frozen immutables, the pinned run set)
// under a brief read lock and do all disk reads outside it. Writers block
// only when MaxImmutables frozen memtables pile up (Stats.WriteStalls).
type Tree struct {
	opt Options

	// wmu serializes writers: ApplyBatch from admission to its memtable
	// insert, and every rotation. So the active segment and memtable a writer
	// was admitted to stay put while it appends to the segment with t.mu
	// released, and readers wait only for the memtable insert — never for
	// the log write, nor for a fault hook parked inside it. Taken before
	// t.mu.
	wmu  sync.Mutex
	mu   sync.RWMutex
	mem  *memtable
	imms []*flushTask // newest first; the flusher drains from the tail
	// set is the published run list, newest first: never nil, never edited,
	// replaced by publishLocked. plan is the merge policy's answer for it.
	set  *runSet
	plan mergePlan
	// pushed is this tree's share of the Metrics gauges as last published;
	// see publishLoadLocked.
	pushed  treeLoad
	wal     *wal     // active segment; rotated with the memtable
	memSegs []string // replayed segments backing mem (recovery only)
	walSeq  int      // last WAL segment number issued
	// man is the durable edit log of committed structural changes (run
	// published, runs merged, segments retired); see manifest.go. It has
	// its own serialization (a gate token, like wal.gateC) because commits
	// fsync — they must never run under t.mu.
	man     *manifest
	seq     int // last run sequence number issued
	flushes int
	// committed trails flushes while a published run's manifest commit is
	// in flight; Flush waits for it to catch up, so a commit that fails is
	// reported by the wedge that follows rather than missed.
	committed int
	merges    int
	stalls    int
	closed    bool
	// bgErr wedges the tree when the background pipeline hits a
	// non-retryable failure (torn run write, segment retire failure):
	// mutations and Flush/Merge fail fast, reads keep working, and the
	// on-disk state stays exactly crash-consistent.
	bgErr error
	// forceCompact makes the next compactor pass merge every run whatever
	// the policy says; set by Merge, cleared when that pass publishes.
	forceCompact bool
	// flushing is set while the flusher appends a segment to runs[0], and
	// from any flush's publish until its manifest record is durable; merging
	// is the newest input of the merge in flight and then, until that merge
	// is committed, its output. Neither worker touches the run the other has
	// in hand, and the manifest sees a run's records in the order the list
	// saw the run change: a merge whose window starts at runs[0] waits for
	// the flush, a flush that finds runs[0] merging starts a new file.
	flushing bool
	merging  *run
	// stateC is closed and replaced on every state transition (rotation,
	// flush publish, merge publish, wedge, close). Waiters — writers
	// stalled on backpressure, Flush, Merge — grab the current channel
	// under the lock, release the lock, block on a receive, and re-check
	// their predicate. A channel rather than a sync.Cond so that no lock
	// is ever held into a blocking wait anywhere in the tree.
	stateC chan struct{}

	flushC   chan struct{} // kicks the flusher; buffered 1
	compactC chan struct{} // kicks the compactor; buffered 1
	done     chan struct{}
	// flusherDone/compactorDone are closed by the workers on exit; Close
	// joins on them (a close-signaled receive, so no lock is ever held
	// into a blocking join anywhere above the tree).
	flusherDone   chan struct{}
	compactorDone chan struct{}
}

func errClosed() error { return fmt.Errorf("lsm: tree closed") }

// runCfg bundles the read-path plumbing handed to every run the tree opens
// or writes.
func (t *Tree) runCfg() runConfig {
	return runConfig{
		blockBytes: t.opt.BlockBytes,
		cache:      t.opt.BlockCache,
		fault:      t.opt.FaultHook,
		metrics:    t.opt.Metrics,
	}
}

// Open opens (creating if necessary) the tree in opt.Dir, recovering its
// committed state from the manifest, replaying the live WAL tail, and
// starting the background flusher and compactor. It refuses, changing no
// file, when the manifest is corrupt, names a run that is missing or fails
// its checks, or is absent from a directory that holds run files.
func Open(opt Options) (*Tree, error) {
	opt = opt.withDefaults()
	if opt.Dir == "" {
		return nil, fmt.Errorf("lsm: Options.Dir is required")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("lsm: creating dir: %w", err)
	}
	t := &Tree{
		opt:           opt,
		mem:           newMemtable(1, 0),
		set:           newRunSet(nil),
		stateC:        make(chan struct{}),
		flushC:        make(chan struct{}, 1),
		compactC:      make(chan struct{}, 1),
		done:          make(chan struct{}),
		flusherDone:   make(chan struct{}),
		compactorDone: make(chan struct{}),
	}

	start := time.Now()
	replayed, err := t.recoverState()
	if err != nil {
		return nil, err
	}
	if m := opt.Metrics; m != nil {
		m.RecoveryReplayed.Add(int64(replayed))
		m.RecoveryMillis.Add(time.Since(start).Milliseconds())
	}

	w, err := t.newSegment()
	if err != nil {
		t.abandonOpen()
		return nil, err
	}
	t.wal = w
	t.publishLoadLocked() // the recovery memtable and the reopened plan

	go t.background(t.flushC, t.flusherDone, t.flushStep)
	go t.background(t.compactC, t.compactorDone, t.compactOnce)
	if t.plan.debt > 0 {
		t.kick(t.compactC)
	}
	return t, nil
}

// dropDebris removes a file Open has proven unreferenced. Every startup
// deletion — interrupted-write temp files, orphaned runs, retired WAL
// segments, empty segments — funnels through here, so the sweep
// policy (idempotent: a file already gone is fine) lives in one place.
func dropDebris(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// sweepTemps deletes crash debris from interrupted atomic-rename writes:
// flush and merge run temps (both match run-*.lsm.tmp — merge outputs are
// runs too) and manifest snapshot temps. Every temp is unreferenced by
// construction, because state only ever learns a file's name after its
// rename succeeded.
func sweepTemps(dir string) error {
	for _, pat := range []string{"run-*.lsm.tmp", "MANIFEST-*.tmp"} {
		tmps, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			return err
		}
		for _, p := range tmps {
			if err := dropDebris(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// fileSeqOf extracts the numeric sequence from a run or WAL segment base
// name ("run-000007m.lsm" → 7, "wal-000012.log" → 12).
func fileSeqOf(base, format string) int {
	var seq int
	fmt.Sscanf(base, format, &seq)
	return seq
}

// recoverState rebuilds the tree from its manifest: load the newest intact
// generation, open the runs it lists, and — once nothing can refuse any more
// — sweep the debris (temp files, the other generations, orphaned runs, bytes
// past a run's committed length, retired segments), replay the live WAL tail
// into the recovery memtable, and cap it all with a fresh snapshot manifest.
// Returns the number of WAL records replayed. A refusal changes no file; on
// any error everything opened so far is closed and every file is left where
// the next attempt needs it.
func (t *Tree) recoverState() (int, error) {
	dir := t.opt.Dir
	st, loaded, manSeq, err := loadManifest(dir)
	if err != nil {
		return 0, err
	}
	runFiles, err := filepath.Glob(filepath.Join(dir, "run-*.lsm"))
	if err != nil {
		return 0, err
	}
	// Without a manifest nothing says which run files hold committed data.
	// With none of them either, the tree is empty and every segment replays.
	if loaded == "" && len(runFiles) > 0 {
		return 0, fmt.Errorf("lsm: %s holds %d run files but no manifest — refusing to open: restore its MANIFEST-* file, or, for a directory written before manifests existed, open it once with a release that still recovers by directory scan", dir, len(runFiles))
	}
	for _, name := range runFiles {
		t.seq = max(t.seq, fileSeqOf(filepath.Base(name), "run-%06d"))
	}

	// Every segment present, ascending. walSeq advances past all of them —
	// including ones deleted below — so segment numbers are never reused.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return 0, err
	}
	sort.Strings(segs)
	for _, seg := range segs {
		if seq := fileSeqOf(filepath.Base(seg), "wal-%06d.log"); seq > t.walSeq {
			t.walSeq = seq
		}
	}

	// runs collects the opened runs, newest first, each holding the
	// reference openRun hands its caller until the set takes its own.
	var runs []*run
	fail := func(err error) (int, error) {
		for _, r := range runs {
			_ = r.release()
		}
		return 0, err
	}

	// The manifest names the exact committed run set, newest first. A listed
	// run that is missing, or fails below its committed length, is real data
	// loss — fail loudly rather than silently narrowing the database to
	// whatever files remain.
	listed := make(map[string]bool, len(st.runs))
	for _, name := range st.runs {
		listed[name] = true
		r, err := openRun(filepath.Join(dir, name), t.runCfg(), st.ends[name])
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return fail(fmt.Errorf("lsm: %s lists run %s but the file is missing — refusing to open with lost data: %w",
					loaded, name, err))
			}
			return fail(err)
		}
		runs = append(runs, r)
	}

	// Nothing refuses past this point. Generations other than the loaded one
	// are older, or newer without an intact snapshot: never consulted again.
	if err := sweepTemps(dir); err != nil {
		return fail(err)
	}
	manNames, err := filepath.Glob(filepath.Join(dir, "MANIFEST-*"))
	if err != nil {
		return fail(err)
	}
	for _, p := range manNames {
		base := filepath.Base(p)
		if _, isMan := manifestSeq(base); isMan && base != loaded {
			if err := dropDebris(p); err != nil {
				return fail(err)
			}
		}
	}
	// Runs on disk but not in the manifest were published without their
	// commit record (a crash between the rename and the manifest append, or
	// a torn append). Their records are still covered — by WAL segments above
	// the floor for flush orphans, by the surviving inputs for merge orphans
	// — so they are debris, not data. So are the bytes past a listed run's
	// committed length: an extending flush that never committed.
	for _, name := range runFiles {
		if !listed[filepath.Base(name)] {
			if err := dropDebris(name); err != nil {
				return fail(err)
			}
		}
	}
	for _, r := range runs {
		fi, err := r.f.Stat()
		if err == nil && r.end > 0 && fi.Size() > r.end {
			err = os.Truncate(r.path, r.end)
		}
		if err != nil {
			return fail(err)
		}
	}
	// Segments at or below the floor were retired by a committed flush;
	// only their unlink was lost. Replaying them would double-apply stale
	// values over newer merged data — delete, never replay.
	live := segs[:0]
	for _, seg := range segs {
		if fileSeqOf(filepath.Base(seg), "wal-%06d.log") <= st.floor {
			if err := dropDebris(seg); err != nil {
				return fail(err)
			}
			continue
		}
		live = append(live, seg)
	}
	segs = live

	// Replay the live tail, oldest first, into the recovery memtable. The
	// replayed files back that memtable until its flush commits. A segment
	// that yields no records (the active segment after a clean close) is
	// debris: nothing references it, so it is swept here rather than
	// replayed forever.
	replayed := 0
	var kept []string
	for _, seg := range segs {
		n := 0
		err := replayWAL(seg, func(kind walRecordKind, key, value []byte) error {
			if h := t.opt.FaultHook; h != nil {
				if err := h("recover:replay"); err != nil {
					return err
				}
			}
			t.mem.put(key, value, kind == walDelete)
			n++
			return nil
		})
		if err != nil {
			return fail(err)
		}
		if n == 0 {
			if err := dropDebris(seg); err != nil {
				return fail(err)
			}
			continue
		}
		replayed += n
		kept = append(kept, seg)
	}
	t.memSegs = kept

	// Cap recovery with a fresh snapshot manifest: the floor sits just
	// below the oldest segment still owed a replay (everything older is
	// durable in runs). The loaded generation stays until this one is
	// durable: its first commit deletes it.
	floor := t.walSeq
	if len(kept) > 0 {
		floor = fileSeqOf(filepath.Base(kept[0]), "wal-%06d.log") - 1
	}
	st = manState{runs: make([]string, len(runs)), ends: map[string]int64{}, floor: floor}
	for i, r := range runs {
		st.runs[i] = filepath.Base(r.path)
		st.ends[st.runs[i]] = r.end
	}
	man, err := newManifest(dir, manSeq+1, st, t.opt.FaultHook, t.opt.Metrics)
	if err != nil {
		return fail(err)
	}
	t.man = man
	_ = t.publishLocked(runs).release() // the empty set Open started with
	for _, r := range runs {
		_ = r.release() // ours; the set holds its own now
	}
	return replayed, nil
}

// abandonOpen tears down an opened tree after a bootstrap failure, so error
// paths never leak file handles.
func (t *Tree) abandonOpen() {
	_ = t.publishLocked(nil).release()
	_ = t.man.close()
}

// publishLocked replaces the run list: it builds the set for runs (newest
// first; the set owns the slice and takes its own reference on each run),
// has the merge policy judge it once, and returns the previous set for the
// caller to release after dropping t.mu — the last release closes files.
// Callers hold t.mu (or, in Open, have exclusive access) and bump the state.
func (t *Tree) publishLocked(runs []*run) (old *runSet) {
	old = t.set
	t.set = newRunSet(runs)
	t.plan = pickMerge(t.set.spans, t.opt.MaxRuns)
	return old
}

// newSegment opens the next WAL segment file. Callers hold t.mu (or, in
// Open, have exclusive access).
func (t *Tree) newSegment() (*wal, error) {
	t.walSeq++
	path := filepath.Join(t.opt.Dir, fmt.Sprintf("wal-%06d.log", t.walSeq))
	return openWAL(path, t.opt.SyncWAL > 0, t.opt.FaultHook, t.opt.Metrics)
}

// kick nudges a background worker without blocking; a pending kick is
// enough, the workers drain all available work per wakeup.
func (t *Tree) kick(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// bumpLocked publishes a state transition: everyone blocked in waitState
// wakes and re-checks, and the gauges follow the queue and the plan. Callers
// hold t.mu.
func (t *Tree) bumpLocked() {
	close(t.stateC)
	t.stateC = make(chan struct{})
	t.publishLoadLocked()
}

// treeLoad is what one tree contributes to the gauges of a shared Metrics.
type treeLoad struct{ memBytes, imms, debt int }

// publishLoadLocked adds to the shared gauges the difference between what
// the tree holds now — nothing, once closed — and what it last published, so
// the gauges cannot drift from the fields they are derived from. Every
// change to those fields is followed by a call under the same hold of t.mu:
// a write calls it directly, every other change goes through bumpLocked.
func (t *Tree) publishLoadLocked() {
	m := t.opt.Metrics
	if m == nil {
		return
	}
	var now treeLoad
	if !t.closed {
		now = treeLoad{t.memBytesLocked(), len(t.imms), t.plan.debt}
	}
	m.MemtableBytes.Add(int64(now.memBytes - t.pushed.memBytes))
	m.Immutables.Add(int64(now.imms - t.pushed.imms))
	m.CompactionDebt.Add(int64(now.debt - t.pushed.debt))
	t.pushed = now
}

// memBytesLocked is the footprint of the mutable memtable and the frozen
// ones queued for flush.
func (t *Tree) memBytesLocked() int {
	n := t.mem.size()
	for _, task := range t.imms {
		n += task.mem.size()
	}
	return n
}

// waitState blocks until the state channel captured under the lock is
// closed (some transition happened) or the tree is shutting down. Called
// with t.mu released.
func (t *Tree) waitState(ch <-chan struct{}) {
	select {
	case <-ch:
	case <-t.done:
	}
}

// Put inserts or replaces key with value: a batch of one. The tree owns the
// values it stores, so the caller's value is copied; the memtable copies
// the key itself.
func (t *Tree) Put(key, value []byte) error {
	b := NewBatch(1)
	b.Put(key, append([]byte(nil), value...))
	return t.ApplyBatch(b)
}

// Delete removes key (by writing a tombstone): a batch of one.
func (t *Tree) Delete(key []byte) error {
	b := NewBatch(1)
	b.Delete(key)
	return t.ApplyBatch(b)
}

// ApplyBatch is the tree's one write path. It applies every operation in b
// as one unit: one composite WAL record (one CRC) followed, under a single
// hold of the tree lock, by a sorted skiplist insertion that reuses the
// predecessor search across adjacent keys. Operations land in the memtable
// with the same last-writer-wins outcome as applying them in order, and a
// reader sees all of them or none.
//
// The commit is two-phase group commit: the WAL append and memtable update
// run in the writer's turn (t.wmu), only the insert under the tree lock; the
// fsync that acknowledges durability (one per batch when Options.SyncWAL > 0)
// runs after the turn ends, so neither log writes nor durability waits stall
// readers. A mutation may therefore be visible to readers before
// it is durable — the caller must not ack until ApplyBatch returns nil. The
// fsync targets the segment the record landed in (captured in the turn):
// if a background flush already retired that segment, the record is durable
// in a run file and the fsync succeeds vacuously.
//
// The tree copies the batch's keys and takes ownership of its value slices
// (see Batch); the Batch itself may be Reset and reused once ApplyBatch
// returns.
func (t *Tree) ApplyBatch(b *Batch) error {
	if b == nil || len(b.ops) == 0 {
		return nil
	}
	w, syncDue, err := t.applyBatchLocked(b)
	if err != nil {
		return err
	}
	if syncDue {
		return w.fsync()
	}
	return nil
}

// applyBatchLocked is the under-lock half of ApplyBatch: it admits the
// write (rotating or stalling per admitLocked), appends to the WAL, and
// updates the memtable, reporting the segment the record landed in and
// whether the caller owes the group-commit fsync once the locks are
// released. Only admission and the memtable insert take t.mu; t.wmu, held
// throughout, keeps t.wal and t.mem the ones admission saw.
func (t *Tree) applyBatchLocked(b *Batch) (w *wal, syncDue bool, err error) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if err := t.admit(); err != nil {
		return nil, false, err
	}
	if err := t.wal.appendBatch(b.ops); err != nil {
		return nil, false, err
	}
	t.mu.Lock()
	t.mem.putBatch(b.ops)
	t.publishLoadLocked()
	t.mu.Unlock()
	syncDue, err = t.wal.syncDue()
	if err != nil {
		return nil, false, err
	}
	return t.wal, syncDue, nil
}

// admit gates one write under t.mu, waiting with the lock released while
// admitLocked asks the writer to stall. Callers hold t.wmu.
func (t *Tree) admit() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	stalled := false
	for {
		ch, err := t.admitLocked(&stalled)
		if ch == nil || err != nil {
			return err
		}
		t.mu.Unlock()
		t.waitState(ch)
		t.mu.Lock()
	}
}

// admitLocked gates one mutation. While the memtable is at its threshold it
// rotates — or, when MaxImmutables flushes are already queued, asks the
// caller to stall by returning the state channel to wait on (with t.mu
// *released*) before retrying. This is the tree's entire backpressure
// story: a writer waits at most for flushes already in flight, never for
// its own write's disk I/O, and readers are never blocked because no lock
// is held while waiting. stalled dedups the stall accounting to one
// episode per admitted write, however many retries it takes.
func (t *Tree) admitLocked(stalled *bool) (<-chan struct{}, error) {
	if t.closed {
		return nil, errClosed()
	}
	if t.bgErr != nil {
		return nil, t.bgErr
	}
	if t.mem.size() < t.opt.MemtableBytes {
		return nil, nil
	}
	if len(t.imms) < t.opt.MaxImmutables {
		return nil, t.rotateLocked()
	}
	if !*stalled {
		*stalled = true
		t.stalls++
		if m := t.opt.Metrics; m != nil {
			m.WriteStalls.Add(1)
		}
	}
	return t.stateC, nil
}

// rotateLocked freezes the current memtable (with its WAL segment) onto the
// immutable queue and installs a fresh memtable over a new segment. The new
// segment is opened first so a failure leaves the tree unchanged. Callers
// hold t.wmu and t.mu and have verified queue space.
func (t *Tree) rotateLocked() error {
	nw, err := t.newSegment()
	if err != nil {
		return err
	}
	t.seq++
	task := &flushTask{mem: t.mem, wal: t.wal, segs: t.memSegs, seq: t.seq}
	t.imms = append([]*flushTask{task}, t.imms...)
	t.mem = newMemtable(int64(t.walSeq), t.mem.len())
	t.wal = nw
	t.memSegs = nil
	t.bumpLocked()
	t.kick(t.flushC)
	return nil
}

// snapshot captures a consistent view of the tree — mutable memtable,
// frozen immutables (newest first), and the pinned run set — under a brief
// read lock. All disk reads happen against the snapshot with no tree lock
// held; release must be called when done so merged-away runs can be deleted.
type snapshot struct {
	mems []*memtable // newest first: mutable, then immutables
	set  *runSet     // pinned
}

func (t *Tree) snapshot() (*snapshot, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return nil, errClosed()
	}
	s := &snapshot{mems: make([]*memtable, 0, 1+len(t.imms)), set: t.set}
	s.mems = append(s.mems, t.mem)
	for _, task := range t.imms {
		s.mems = append(s.mems, task.mem)
	}
	s.set.acquire()
	return s, nil
}

func (s *snapshot) release() { _ = s.set.release() }

// Get returns a copy of the value for key, or ok=false if absent or deleted:
// View, plus the copy.
func (t *Tree) Get(key []byte) (value []byte, ok bool, err error) {
	ok, err = t.View(key, func(v []byte) { value = append([]byte(nil), v...) })
	return value, ok, err
}

// View is the tree's one point read: it reports whether key is live and, if
// it is, hands its value to fn. The value is the tree's own memory — a
// memtable entry, or a block pinned until fn returns — so fn must neither
// keep nor modify it. fn runs with no tree lock held, and the read allocates
// nothing beyond what a block cache miss costs.
//
// At every level a filter is asked before anything is searched. The key is
// hashed once, for every filter the read asks. The memtable probes run under
// the tree read lock (pure in-memory, no blocking), and each memtable's key
// filter answers most of the keys it never held without a skiplist walk.
// Only on a memory miss is the run set pinned — one reference, however many
// runs — so the disk lookups can proceed with no tree lock held. A run whose
// fences exclude the key costs two comparisons; in the others the key's
// segment's filter is asked before that segment's blocks are searched.
func (t *Tree) View(key []byte, fn func(value []byte)) (bool, error) {
	h := keyHash(key)
	t.mu.RLock()
	if t.closed {
		t.mu.RUnlock()
		return false, errClosed()
	}
	e, found := t.mem.get(key, h)
	for i := 0; !found && i < len(t.imms); i++ {
		e, found = t.imms[i].mem.get(key, h)
	}
	if found {
		t.mu.RUnlock()
		if e.tombstone {
			return false, nil
		}
		fn(e.value) // a memtable never changes a value it holds
		return true, nil
	}
	set := t.set
	set.acquire()
	t.mu.RUnlock()
	defer set.release()
	for i := range set.spans {
		if !set.spans[i].covers(key) {
			continue
		}
		if found, live, err := set.runs[i].view(key, h, fn); err != nil || found {
			return live, err
		}
	}
	return false, nil
}

// Scan invokes fn for every live key in [from, to) in key order; a nil to
// means unbounded. fn returning false stops the scan early. As with View,
// key and value are valid only until fn returns: they alias a cached block
// whose buffer may be lent to another read once the scan moves on, so fn
// copies what it keeps. The scan runs against a snapshot: rotations and
// merges during the scan are invisible, and no tree lock is held across fn
// or any disk read. Mutations racing the scan in the still-mutable memtable
// may or may not be observed.
func (t *Tree) Scan(from, to []byte, fn func(key, value []byte) bool) error {
	s, err := t.snapshot()
	if err != nil {
		return err
	}
	defer s.release()
	it := newMergedIter(s.mems, s.set.runs, from, true)
	defer it.close()
	for it.valid() {
		e, err := it.curr()
		if err != nil {
			return err
		}
		if to != nil && bytes.Compare(e.key, to) >= 0 {
			return nil
		}
		if !e.tombstone {
			if !fn(e.key, e.value) {
				return nil
			}
		}
		it.next()
	}
	// A run iterator that hit a read error goes invalid exactly like an
	// exhausted one; surface it rather than silently truncating the scan.
	return it.fail()
}

// Len reports the number of live keys (scans everything; intended for tests
// and small trees).
func (t *Tree) Len() (int, error) {
	n := 0
	err := t.Scan(nil, nil, func(_, _ []byte) bool { n++; return true })
	return n, err
}

// Flush rotates the memtable (if non-empty) and waits until the background
// pipeline has drained: no queued immutables, the last flush committed to the
// manifest, and no compaction debt. It is the synchronous checkpoint
// operation — after a nil return every record accepted before the call is in
// a committed run file.
func (t *Tree) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if t.closed {
			return errClosed()
		}
		if t.bgErr != nil {
			return t.bgErr
		}
		if t.mem.len() > 0 {
			if len(t.imms) < t.opt.MaxImmutables {
				t.mu.Unlock()
				err := t.rotateForFlush()
				t.mu.Lock()
				if err != nil {
					return err
				}
				continue
			}
		} else if len(t.imms) == 0 {
			if t.plan.debt == 0 && t.committed == t.flushes {
				return nil
			}
			t.kick(t.compactC)
		} else {
			t.kick(t.flushC)
		}
		ch := t.stateC
		t.mu.Unlock()
		t.waitState(ch)
		t.mu.Lock()
	}
}

// rotateForFlush is Flush's rotation, taken in a writer's turn: it rotates
// if the memtable still holds entries and the queue still has room once the
// turn is Flush's, and otherwise leaves the re-check to Flush's loop.
func (t *Tree) rotateForFlush() error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.mem.len() == 0 || len(t.imms) >= t.opt.MaxImmutables {
		return nil
	}
	return t.rotateLocked()
}

// Merge forces a full merge of all disk runs into one run of one segment —
// one sorted file with one index, every entry the merge filter calls stale
// left out — and waits until it is committed.
func (t *Tree) Merge() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.closed && t.bgErr == nil && !t.mergedLocked() {
		t.forceCompact = true
		t.kick(t.compactC)
	}
	for {
		if t.closed {
			return errClosed()
		}
		if t.bgErr != nil {
			return t.bgErr
		}
		if !t.forceCompact && t.merging == nil {
			return nil
		}
		ch := t.stateC
		t.mu.Unlock()
		t.waitState(ch)
		t.mu.Lock()
	}
}

// mergedLocked reports whether a forced merge would change nothing: the runs
// are one segment, and no merge filter would look at its entries again — or
// there are no runs. Callers hold t.mu.
func (t *Tree) mergedLocked() bool {
	return t.set.segments == 0 || t.set.segments == 1 && t.opt.Stale == nil
}

// wedge records a non-retryable background failure: the tree stops
// accepting mutations (reads keep working) and the on-disk state stays
// crash-consistent for the next Open.
func (t *Tree) wedge(err error) {
	t.mu.Lock()
	if t.bgErr == nil {
		t.bgErr = fmt.Errorf("lsm: background pipeline failed: %w", err)
	}
	t.bumpLocked()
	t.mu.Unlock()
}

// background is the loop both pipeline workers run: wait for a kick (or
// shutdown, closing done on the way out), then run step until it reports no
// more work. A transient failure (ErrInjected, modelling e.g. a passing EIO)
// retries the same step after a beat; any other failure wedges the tree and
// the worker goes back to waiting.
func (t *Tree) background(kick <-chan struct{}, done chan<- struct{}, step func() (again bool, err error)) {
	defer close(done)
	for {
		select {
		case <-t.done:
			return
		case <-kick:
		}
		for {
			again, err := step()
			if errors.Is(err, ErrInjected) {
				select {
				case <-t.done:
					return
				case <-time.After(flushRetryDelay):
				}
				continue
			}
			if err != nil {
				t.wedge(err)
				break
			}
			if !again {
				break
			}
		}
	}
}

// flushStep is the flusher's unit of work: drain the immutable queue,
// writing the whole backlog to one run file and retiring the WAL segments
// once the run is durable. Group flush is what lets the drain rate scale
// with the queue depth: the run fsync — the dominant flush cost — is paid
// once per pass, not once per memtable, so a burst of rotations amortizes to
// a single sync. Segments are retired strictly oldest first (wedging on the
// first retire failure), which keeps reopen-time replay correct: a segment
// is only ever deleted after every older segment's deletion succeeded.
func (t *Tree) flushStep() (bool, error) {
	tasks := t.pendingTasks()
	if len(tasks) == 0 {
		return false, nil
	}
	return true, t.flushTasks(tasks)
}

// pendingTasks snapshots the queued immutables, oldest first.
func (t *Tree) pendingTasks() []*flushTask {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed || t.bgErr != nil || len(t.imms) == 0 {
		return nil
	}
	tasks := make([]*flushTask, 0, len(t.imms))
	for i := len(t.imms) - 1; i >= 0; i-- {
		tasks = append(tasks, t.imms[i])
	}
	return tasks
}

// flushTasks writes the batch of frozen memtables (oldest first) as a
// single segment, publishes it, and retires every covered WAL segment.
// Duplicate keys across the batch resolve newest-wins via the same merged
// iterator reads use. When every key lies above the newest run, the segment
// goes at the end of that run's file and the run's longer view takes its
// place in the list: a stream of ascending keys stays one run, sorted as it
// stands, that no merge needs to rewrite. Otherwise the segment starts a new
// file, which takes the newest memtable's sequence number (skipped numbers
// never become files, which is harmless — a name only has to be unused; the
// manifest says what the files are). The write happens with no tree lock
// held; only the publish step takes it.
func (t *Tree) flushTasks(tasks []*flushTask) error {
	newest := tasks[len(tasks)-1]
	path := filepath.Join(t.opt.Dir, fmt.Sprintf("run-%06d.lsm", newest.seq))
	mems := make([]*memtable, 0, len(tasks))
	var low []byte
	for i := len(tasks) - 1; i >= 0; i-- { // newest first, as reads order them
		mems = append(mems, tasks[i].mem)
		if k := tasks[i].mem.first(); low == nil || bytes.Compare(k, low) < 0 {
			low = k
		}
	}
	var prev *run
	t.mu.Lock()
	if rs := t.set.runs; len(rs) > 0 && rs[0].end > 0 && rs[0] != t.merging && bytes.Compare(low, rs[0].last) > 0 {
		prev, path, t.flushing = rs[0], rs[0].path, true
	}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		t.flushing = false
		t.bumpLocked()
		t.mu.Unlock()
	}()
	r, err := writeMergedRun(path, prev, mems, nil, false, nil, "flush:bg", t.runCfg())
	if err != nil {
		return err
	}

	t.mu.Lock()
	older := t.set.runs
	if prev != nil {
		older = older[1:] // runs[0] is still prev: see Tree.flushing
	}
	old := t.publishLocked(append([]*run{r}, older...))
	t.flushing = true
	// Rotations may have prepended newer tasks while the batch flushed;
	// the flushed tasks are exactly the oldest len(tasks) entries.
	t.imms = t.imms[:len(t.imms)-len(tasks)]
	t.flushes++
	if m := t.opt.Metrics; m != nil {
		m.Flushes.Add(1)
		flushed := r.len()
		if prev != nil {
			m.Extends.Add(1)
			flushed -= prev.len() // r is prev and the new segment
		}
		m.FlushedEntries.Add(int64(flushed))
	}
	debt := t.plan.debt > 0 || t.forceCompact
	t.bumpLocked()
	t.mu.Unlock()
	_ = old.release()
	_ = r.release() // the writer's reference; the set holds its own

	// Commit before destroying: one fsynced manifest record names the run
	// and advances the WAL floor to the newest flushed segment, and only
	// then may segment files be deleted. Reversing the order opens the two
	// classic crash windows — deleting first loses records if the run's
	// rename was not yet durable; recording retirement after deleting is
	// fine, but deleting after a crash wiped the record would leave a
	// retired segment to replay stale values over newer merged data. A
	// manifest failure wedges the tree rather than retrying: the run is
	// already published, and re-running the whole flush would publish it
	// twice — hence %v (not %w), deliberately severing the errors.Is chain
	// to ErrInjected that the flusher's retry loop checks.
	if err := t.man.commitFlush(filepath.Base(path), r.end, newest.wal.seq); err != nil {
		return fmt.Errorf("lsm: flush published but not committed: %v", err)
	}
	t.mu.Lock()
	t.committed++
	t.bumpLocked()
	t.mu.Unlock()

	// The run is durable, published, and committed: retire the WAL
	// segments, oldest first across the whole batch. Any failure wedges
	// the tree (via the caller), which guarantees no younger segment is
	// ever deleted after a skipped older one — the invariant replay
	// ordering depends on.
	for _, task := range tasks {
		for _, seg := range task.segs {
			if err := os.Remove(seg); err != nil {
				return err
			}
		}
		if err := task.wal.discard(); err != nil {
			return err
		}
	}
	if debt {
		t.kick(t.compactC)
	}
	return nil
}

// compactOnce is the compactor's unit of work: merge the window of runs the
// policy picked when the list was last published (every run, when Merge
// forces it) into one replacement run that takes the window's place. Input
// files are deleted oldest-first, each only after its last reader releases
// it. It reports whether there is more to merge.
func (t *Tree) compactOnce() (bool, error) {
	t.mu.Lock()
	lo, hi := t.plan.lo, t.plan.hi
	forced := t.forceCompact
	if forced {
		lo, hi = 0, len(t.set.runs)
		if t.mergedLocked() {
			hi = 0
			t.forceCompact = false
			t.bumpLocked()
		}
	}
	if t.closed || t.bgErr != nil || hi == lo {
		t.mu.Unlock()
		return false, nil
	}
	if lo == 0 && t.flushing {
		ch := t.stateC
		t.mu.Unlock()
		t.waitState(ch)
		return true, nil
	}
	inputs := append([]*run(nil), t.set.runs[lo:hi]...)
	t.merging = inputs[0]
	t.seq++
	path := filepath.Join(t.opt.Dir, fmt.Sprintf("run-%06d.lsm", t.seq))
	for _, r := range inputs {
		r.retain()
	}
	// Flushes only ever prepend and there is one compactor, so while the
	// merge runs the window keeps its distance from the tail of the list —
	// which is how it is found again at publish.
	older := len(t.set.runs) - hi
	t.mu.Unlock()

	read := 0
	inputNames := make([]string, len(inputs))
	for i, r := range inputs {
		read += r.len()
		inputNames[i] = filepath.Base(r.path)
	}
	// A tombstone masks versions of its key in older runs. Only a window
	// that ends at the oldest run has none below it; any other must carry
	// its tombstones into the output or the key comes back.
	nr, err := writeMergedRun(path, nil, nil, inputs, older == 0, t.opt.Stale, "merge:bg", t.runCfg())
	t.mu.Lock()
	t.merging = nr // nil on error
	if err != nil {
		t.mu.Unlock()
		for _, r := range inputs {
			_ = r.release()
		}
		return false, err
	}
	cur := t.set.runs
	newer := len(cur) - older - len(inputs)
	next := make([]*run, 0, len(cur)-len(inputs)+1)
	next = append(append(append(next, cur[:newer]...), nr), cur[len(cur)-older:]...)
	old := t.publishLocked(next)
	t.merges++
	if forced {
		t.forceCompact = false
	}
	if m := t.opt.Metrics; m != nil {
		m.Merges.Add(1)
		m.MergedEntries.Add(int64(read))
	}
	again := t.plan.debt > 0 || t.forceCompact
	t.bumpLocked()
	t.mu.Unlock()
	// Drop the old set's, the writer's and our own references: from here an
	// input lives exactly as long as the readers that pinned a set listing
	// it, and signals unused when the last of them leaves.
	_ = old.release()
	_ = nr.release()
	for _, r := range inputs {
		_ = r.release()
	}

	// Commit the merge before any input file is deleted: the fsynced
	// record swaps the inputs for the output in the durable run set. As in
	// flushTasks, a commit failure must wedge rather than retry (%v severs
	// ErrInjected) — the output is already published.
	err = t.man.commitMerge(filepath.Base(nr.path), nr.end, inputNames)
	t.mu.Lock()
	t.merging = nil
	t.bumpLocked()
	t.mu.Unlock()
	if err != nil {
		return false, fmt.Errorf("lsm: merge published but not committed: %v", err)
	}

	// Delete input files oldest-first, each once its last reader is gone.
	// Oldest-first matters across a crash: a surviving newer input still
	// carries the tombstones that mask deleted keys in older ones. If the
	// tree closes mid-wait the remaining files stay on disk — the committed
	// output shadows them and the next Open sweeps them as orphans, so the
	// state is merely larger, never wrong.
	for i := len(inputs) - 1; i >= 0; i-- {
		select {
		case <-inputs[i].unused:
		case <-t.done:
			return false, nil
		}
		if err := os.Remove(inputs[i].path); err != nil {
			return false, err
		}
	}
	return again, nil
}

// Stats returns the tree's component statistics.
func (t *Tree) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := Stats{
		MemtableEntries: t.mem.len(),
		MemtableBytes:   t.memBytesLocked(),
		Immutables:      len(t.imms),
		Runs:            len(t.set.runs),
		Segments:        t.set.segments,
		RunEntries:      t.set.entries,
		ReadDepth:       t.plan.depth,
		CompactionDebt:  t.plan.debt,
		Flushes:         t.flushes,
		Merges:          t.merges,
		WriteStalls:     t.stalls,
	}
	for _, task := range t.imms {
		s.MemtableEntries += task.mem.len()
	}
	return s
}

// Close stops the background pipeline, flushes WAL buffers, and releases
// file handles. Queued immutables are not flushed — their WAL segments
// stay on disk and the next Open replays them, exactly as after a crash.
// The tree is unusable afterwards.
func (t *Tree) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.bumpLocked()
	t.mu.Unlock()

	close(t.done)
	<-t.flusherDone
	<-t.compactorDone

	// A writer admitted before the close may still be appending to t.wal.
	t.wmu.Lock()
	defer t.wmu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	var first error
	if err := t.wal.close(); err != nil {
		first = err
	}
	for _, task := range t.imms {
		if err := task.wal.close(); err != nil && first == nil {
			first = err
		}
	}
	// Readers still inside a Get or Scan keep their set, and so its files,
	// until they leave.
	if err := t.publishLocked(nil).release(); err != nil && first == nil {
		first = err
	}
	if t.man != nil {
		if err := t.man.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
