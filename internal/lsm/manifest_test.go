package lsm

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fill puts n sequential records with a value tag, so tests can tell which
// session (or which run/segment) a recovered value came from.
func fill(t *testing.T, tr *Tree, start, n int, tag string) {
	t.Helper()
	for i := start; i < start+n; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte(tag)); err != nil {
			t.Fatal(err)
		}
	}
}

func wantAll(t *testing.T, tr *Tree, start, n int, tag string) {
	t.Helper()
	for i := start; i < start+n; i++ {
		k := fmt.Sprintf("key-%05d", i)
		v, ok, err := tr.Get([]byte(k))
		if err != nil || !ok || string(v) != tag {
			t.Fatalf("Get(%s) = %q, %v, %v; want %q", k, v, ok, err, tag)
		}
	}
}

func globOne(t *testing.T, dir, pat string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, pat))
	if err != nil || len(names) != 1 {
		t.Fatalf("glob %s = %v, %v; want exactly one", pat, names, err)
	}
	return names[0]
}

// TestCleanCheckpointReplaysZero is the bounded-recovery contract: after a
// flush (the checkpoint) and a clean close, reopening replays nothing —
// every record is in a committed run and the manifest floor retires every
// covering WAL segment.
func TestCleanCheckpointReplaysZero(t *testing.T) {
	dir := t.TempDir()
	tr := openTest(t, Options{Dir: dir})
	fill(t, tr, 0, 200, "v1")
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	m := &Metrics{}
	tr2 := openTest(t, Options{Dir: dir, Metrics: m})
	if got := m.RecoveryReplayed.Value(); got != 0 {
		t.Fatalf("clean checkpoint reopen replayed %d WAL records; want 0", got)
	}
	wantAll(t, tr2, 0, 200, "v1")
}

// TestRetiredSegmentNotReplayed is the double-apply regression: a WAL
// segment retired by a committed flush may linger on disk when the crash
// lands between the manifest append and the unlink. Replaying it would
// clobber newer values with stale ones — the manifest floor must delete it
// instead.
func TestRetiredSegmentNotReplayed(t *testing.T) {
	dir := t.TempDir()
	tr := openTest(t, Options{Dir: dir})
	if err := tr.Put([]byte("k"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil { // commits run, floor = segment 1, unlinks it
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// Resurrect the retired segment with a stale value, simulating the lost
	// unlink: the flush commit is durable, the delete never happened.
	seg := filepath.Join(dir, "wal-000001.log")
	w, err := openWAL(seg, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.appendBatch([]batchOp{{walPut, []byte("k"), []byte("stale")}}); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	m := &Metrics{}
	tr2 := openTest(t, Options{Dir: dir, Metrics: m})
	v, ok, err := tr2.Get([]byte("k"))
	if err != nil || !ok || string(v) != "new" {
		t.Fatalf("Get(k) = %q, %v, %v; stale retired segment was replayed", v, ok, err)
	}
	if got := m.RecoveryReplayed.Value(); got != 0 {
		t.Fatalf("reopen replayed %d records from a retired segment; want 0", got)
	}
	if _, err := os.Stat(seg); !os.IsNotExist(err) {
		t.Fatalf("retired segment %s still on disk after reopen", seg)
	}
}

// TestFlushCommitFailureLosesNothing is the publish-before-commit
// regression: when the manifest append fails after the run file is renamed
// into place, the flush must NOT delete its WAL segments — the run is not
// committed, so the segments are still the records' only durable home. A
// clean reopen recovers everything from the WAL and sweeps the orphaned run.
func TestFlushCommitFailureLosesNothing(t *testing.T) {
	dir := t.TempDir()
	appends := 0
	hook := func(op string) error {
		if op != "manifest:append" {
			return nil
		}
		appends++
		if appends == 2 { // 1 is Open's own snapshot; 2 is the flush commit
			return ErrInjected
		}
		return nil
	}
	tr, err := Open(Options{Dir: dir, FaultHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, tr, 0, 50, "v1")
	if err := tr.Flush(); err == nil {
		t.Fatal("Flush succeeded despite failed manifest commit")
	}
	// The run was published before the commit failed; the segment must
	// still exist because the commit never happened.
	globOne(t, dir, "run-*.lsm")
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(segs) == 0 {
		t.Fatal("WAL segments deleted despite failed manifest commit")
	}
	tr.Close() //nolint:errcheck // wedged

	tr2 := openTest(t, Options{Dir: dir})
	wantAll(t, tr2, 0, 50, "v1")
	// The uncommitted run is an orphan: its records are covered by the
	// replayed segments, so recovery deletes it rather than double-count it.
	if runs, _ := filepath.Glob(filepath.Join(dir, "run-*.lsm")); len(runs) != 0 {
		t.Fatalf("orphaned run not swept on reopen: %v", runs)
	}
}

// TestManifestMissingRunFailsLoudly: a manifest that lists a run whose file
// is gone means committed data was lost outside the protocol. Open must
// refuse — silently reopening with whatever remains would present a
// narrower database as healthy.
func TestManifestMissingRunFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	tr := openTest(t, Options{Dir: dir})
	fill(t, tr, 0, 50, "v1")
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(globOne(t, dir, "run-*.lsm")); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Options{Dir: dir})
	if err == nil || !strings.Contains(err.Error(), "refusing to open") {
		t.Fatalf("Open with missing committed run = %v; want loud refusal", err)
	}
}

// dirFiles reads every file in dir, by name.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(ents))
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// TestRecoveryRules: Open has one source of what a tree holds, its manifest,
// and these are its rules. (1) A bad last frame is an append that never
// returned: it is dropped, and what it named is an orphan, an uncommitted
// extension or a live WAL segment. (2) A bad frame with bytes after it, or a
// record that cannot be applied, is corruption. (3) A newest generation with
// no intact snapshot is a lost lazy one: the generation before it stands,
// and stays on disk until the next one is durable. (4) With no manifest, a
// directory without run files is an empty tree and one with run files is
// refused. (5) A listed run that is missing or fails below its committed
// length is refused. A refusal leaves every file exactly as it was.
func TestRecoveryRules(t *testing.T) {
	// src: 100 keys flushed into run-000001.lsm, committed by MANIFEST-000001
	// (Open's snapshot, then the flush record), and a 20-key WAL tail.
	src := t.TempDir()
	tr := openTest(t, Options{Dir: src})
	fill(t, tr, 0, 100, "flushed")
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	fill(t, tr, 100, 20, "tail")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	const man, runName = "MANIFEST-000001", "run-000001.lsm"
	if got := dirFiles(t, src); len(got[man]) == 0 || len(got[runName]) == 0 {
		t.Fatalf("source directory holds %d files, want %s and %s among them", len(got), man, runName)
	}
	appendTo := func(name string, b []byte) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), append(data, b...), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	write := func(name string, b []byte) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	remove := func(name string) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
	}
	flush := manRecord(manFlushBody(runName, 1, 1))
	badCRC := append([]byte{flush[0] ^ 0xff}, flush[1:]...)
	cases := []struct {
		name    string
		src     string // "" = src
		damage  func(t *testing.T, dir string)
		refuse  string // a refusal's message contains it; "" = Open succeeds
		flushed int    // keys that must come back besides the 20-key tail
	}{
		// Rule 1.
		{name: "torn append", src: tornAppendDir(t), flushed: 100},
		{name: "header cut short", damage: appendTo(man, flush[:5]), flushed: 100},
		{name: "body past the end", damage: appendTo(man, flush[:len(flush)-1]), flushed: 100},
		{name: "crc fails on the last frame", damage: appendTo(man, badCRC), flushed: 100},
		// Rule 2.
		{name: "bad frame before a good one", damage: appendTo(man, append(append([]byte{}, badCRC...), flush...)), refuse: "bad record at offset"},
		{name: "first record not a snapshot", damage: write(man, flush), refuse: "malformed record at offset 0"},
		{name: "merge input not in the set", damage: appendTo(man, manRecord(manMergeBody("run-000009.lsm", 1, []string{"run-000042.lsm"}))), refuse: "malformed record"},
		{name: "fields left over", damage: appendTo(man, manRecord(append(manFlushBody(runName, 1, 1), 0))), refuse: "malformed record"},
		// Rule 3.
		{name: "lost lazy snapshot left empty", damage: write("MANIFEST-000002", nil), flushed: 100},
		{name: "lost lazy snapshot left zeroed", damage: write("MANIFEST-000002", make([]byte, 64)), flushed: 100},
		// Rule 4.
		{name: "no manifest and no runs", src: unflushedDir(t), damage: remove(man)},
		{name: "runs and no manifest", damage: remove(man), refuse: "no manifest — refusing to open: restore its MANIFEST-* file"},
		// Rule 5.
		{name: "listed run missing", damage: remove(runName), refuse: "refusing to open with lost data"},
		{name: "listed run fails its checks", damage: func(t *testing.T, dir string) {
			path := filepath.Join(dir, runName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-runTrailerLen-3] ^= 0x10 // in the filter: the header CRC covers it
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, refuse: "checksum"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			from := c.src
			if from == "" {
				from = src
			}
			dir := copyDir(t, from)
			if c.damage != nil {
				c.damage(t, dir)
			}
			before := dirFiles(t, dir)
			m := &Metrics{}
			tr, err := Open(Options{Dir: dir, Metrics: m})
			if c.refuse != "" {
				if err == nil || !strings.Contains(err.Error(), c.refuse) {
					t.Fatalf("Open = %v; want a refusal containing %q", err, c.refuse)
				}
				if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
					t.Fatalf("the refusal changed the directory: %d files before, %d after", len(before), len(after))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			wantAll(t, tr, 0, c.flushed, "flushed")
			wantAll(t, tr, 100, 20, "tail")
			if n, err := tr.Len(); err != nil || n != c.flushed+20 {
				t.Fatalf("Len = %d, %v; want %d", n, err, c.flushed+20)
			}
			if got := m.RecoveryReplayed.Value(); got != 20 {
				t.Fatalf("replayed %d records, want the 20-record tail", got)
			}
			if runs, _ := filepath.Glob(filepath.Join(dir, "run-*.lsm")); c.flushed == 0 && len(runs) != 0 {
				t.Fatalf("run files %v in a tree that committed none", runs)
			}
			// The loaded generation stays until the fresh snapshot is durable:
			// a crash before the first commit must find it again.
			mans, _ := filepath.Glob(filepath.Join(dir, "MANIFEST-*"))
			if c.flushed > 0 && (len(mans) != 2 || filepath.Base(mans[0]) != man) {
				t.Fatalf("manifests after the reopen %v; want the loaded %s and the fresh snapshot", mans, man)
			}
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			if mans, _ := filepath.Glob(filepath.Join(dir, "MANIFEST-*")); len(mans) != 1 {
				t.Fatalf("manifests after the first commit %v; want only the fresh one", mans)
			}
			wantNoDebris(t, dir, c.name)
		})
	}
}

// tornAppendDir is the source directory of TestRecoveryRules made by a real
// torn append: the flush of the 20-key tail extends run-000001.lsm and its
// manifest record tears (hit 1 of "manifest:append" is Open's snapshot, 2 the
// first flush's record).
func tornAppendDir(t *testing.T) string {
	dir := t.TempDir()
	tr, err := Open(Options{Dir: dir, SyncWAL: 1, FaultHook: hookOn("manifest:append", 3, ErrTornWrite)})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, tr, 0, 100, "flushed")
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	committed, err := os.Stat(filepath.Join(dir, "run-000001.lsm"))
	if err != nil {
		t.Fatal(err)
	}
	fill(t, tr, 100, 20, "tail")
	if err := tr.Flush(); err == nil || !strings.Contains(err.Error(), ErrTornWrite.Error()) {
		t.Fatalf("second Flush = %v, want the torn commit", err)
	}
	tr.Close() //nolint:errcheck // wedged
	if st, err := os.Stat(filepath.Join(dir, "run-000001.lsm")); err != nil || st.Size() <= committed.Size() {
		t.Fatalf("the torn flush did not extend the run: %v", err)
	}
	return dir
}

// unflushedDir holds a tree that never flushed: its 20 records are all in the
// WAL, and the flushed column of TestRecoveryRules is empty.
func unflushedDir(t *testing.T) string {
	dir := t.TempDir()
	tr := openTest(t, Options{Dir: dir})
	fill(t, tr, 100, 20, "tail")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestStartupDebrisSweep plants every debris species one code path must
// handle — interrupted flush/merge temps, a torn manifest temp, an
// uncommitted orphan run, an empty WAL segment — and checks one
// reopen removes them all without touching a live record.
func TestStartupDebrisSweep(t *testing.T) {
	dir := t.TempDir()
	tr := openTest(t, Options{Dir: dir})
	fill(t, tr, 0, 50, "flushed")
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	fill(t, tr, 50, 10, "tail")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	garbage := []byte("crash debris, never renamed or committed")
	debris := []string{
		"run-000097.lsm.tmp",  // interrupted flush or merge output
		"MANIFEST-000099.tmp", // interrupted manifest snapshot
		"run-000098.lsm",      // published run whose commit record was lost
		"wal-000050.log",      // segment opened and never written
	}
	for _, name := range debris {
		content := garbage
		if name == "wal-000050.log" {
			content = nil
		}
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	m := &Metrics{}
	tr2 := openTest(t, Options{Dir: dir, Metrics: m})
	for _, name := range debris {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("debris %s survived the startup sweep", name)
		}
	}
	wantAll(t, tr2, 0, 50, "flushed")
	wantAll(t, tr2, 50, 10, "tail")
	if got := m.RecoveryReplayed.Value(); got != 10 {
		t.Fatalf("reopen replayed %d records; want exactly the 10-record tail", got)
	}
}

// TestCrashDuringRecoverySecondOpenExact: recovery itself must be
// crash-safe. Whether the crash lands mid-replay or while writing the
// open-time manifest snapshot, the aborted Open may not move or lose
// anything a second, clean Open needs.
func TestCrashDuringRecoverySecondOpenExact(t *testing.T) {
	crashes := map[string]func(hits map[string]int) func(string) error{
		"mid-replay": func(hits map[string]int) func(string) error {
			return func(op string) error {
				if op == "recover:replay" {
					hits[op]++
					if hits[op] == 7 {
						return ErrInjected
					}
				}
				return nil
			}
		},
		"torn manifest snapshot": func(hits map[string]int) func(string) error {
			return func(op string) error {
				if op == "manifest:append" {
					hits[op]++
					if hits[op] == 1 {
						return ErrTornWrite
					}
				}
				return nil
			}
		},
	}
	for name, mkHook := range crashes {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			tr := openTest(t, Options{Dir: dir})
			fill(t, tr, 0, 20, "v1") // unflushed: recovery must replay all 20
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}

			hits := make(map[string]int)
			if _, err := Open(Options{Dir: dir, FaultHook: mkHook(hits)}); err == nil {
				t.Fatal("faulted Open succeeded; crash never injected")
			}

			tr2 := openTest(t, Options{Dir: dir})
			wantAll(t, tr2, 0, 20, "v1")
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
				t.Fatalf("crashed recovery's temp debris survived the second open: %v", tmps)
			}
		})
	}
}

// TestRecoveryProportionalToTail: replay work tracks the post-checkpoint
// tail, not total history — the manifest floor retires everything a
// committed flush covered.
func TestRecoveryProportionalToTail(t *testing.T) {
	dir := t.TempDir()
	tr := openTest(t, Options{Dir: dir})
	fill(t, tr, 0, 500, "flushed")
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	fill(t, tr, 500, 25, "tail")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	m := &Metrics{}
	tr2 := openTest(t, Options{Dir: dir, Metrics: m})
	if got := m.RecoveryReplayed.Value(); got != 25 {
		t.Fatalf("reopen replayed %d records; want 25 (the unflushed tail), independent of the 500-record history", got)
	}
	wantAll(t, tr2, 0, 500, "flushed")
	wantAll(t, tr2, 500, 25, "tail")
}

// TestManifestRewriteBounded: every manifestRewriteEvery edits fold into a
// fresh durable snapshot and older generations are swept, so the manifest
// directory never accumulates history.
func TestManifestRewriteBounded(t *testing.T) {
	dir := t.TempDir()
	m := &Metrics{}
	tr := openTest(t, Options{Dir: dir, Metrics: m, MaxRuns: 1 << 30})
	for i := 0; i < manifestRewriteEvery+2; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.ManifestRewrites.Value(); got < 2 { // Open's snapshot + at least one fold
		t.Fatalf("ManifestRewrites = %d; want the edit threshold to have forced a rewrite", got)
	}
	if mans, _ := filepath.Glob(filepath.Join(dir, "MANIFEST-[0-9]*")); len(mans) != 1 {
		t.Fatalf("manifest generations on disk = %v; want exactly one", mans)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr2 := openTest(t, Options{Dir: dir})
	for i := 0; i < manifestRewriteEvery+2; i++ {
		if _, ok, err := tr2.Get([]byte(fmt.Sprintf("k%d", i))); err != nil || !ok {
			t.Fatalf("k%d lost across rewrite+reopen (ok=%v err=%v)", i, ok, err)
		}
	}
}

// TestManifestParseRejectsDefects exercises parseManifest directly. A bad
// last frame is a torn append — a strict prefix of a record, as a crash
// mid-append leaves, or a whole one whose CRC fails — and is dropped; a
// manifest cut inside a committed record reads the same way, as a WAL cut
// inside one does (TestWALTornTailIgnored). A first frame that does not check
// out leaves no snapshot. Everything else is corruption and an error.
func TestManifestParseRejectsDefects(t *testing.T) {
	good := manRecord(manSnapshotBody(manState{runs: []string{"run-000001.lsm"}, ends: map[string]int64{"run-000001.lsm": 3 << 30}, floor: 3}))
	flush := manRecord(manFlushBody("run-000002.lsm", 4096, 5))
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	flipped := func(rec []byte, i int) []byte { b := cat(rec); b[i] ^= 0xff; return b }
	for name, data := range map[string][]byte{
		"torn header":              cat(good, flush[:5]),
		"torn body":                cat(good, flush[:len(flush)-2]),
		"flipped crc, last frame":  cat(good, flipped(flush, 0)),
		"flipped body, last frame": cat(good, flipped(flush, len(flush)-1)),
		"zero-length frame, last":  cat(good, make([]byte, 8)),
	} {
		st, ok, err := parseManifest(data)
		if err != nil || !ok || len(st.runs) != 1 || st.floor != 3 {
			t.Errorf("%s: parseManifest = %+v, %v, %v; want the snapshot alone", name, st, ok, err)
		}
	}
	for name, data := range map[string][]byte{
		"empty":                   {},
		"torn snapshot":           good[:len(good)-2],
		"flipped snapshot":        flipped(good, 0),
		"zeroed snapshot":         make([]byte, 64),
		"bad snapshot, then more": cat(flipped(good, 9), flush),
	} {
		if _, ok, err := parseManifest(data); ok || err != nil {
			t.Errorf("%s: parseManifest = %v, %v; want no snapshot and no error", name, ok, err)
		}
	}
	for name, data := range map[string][]byte{
		"bad frame, then more":   cat(good, flipped(flush, 0), flush),
		"zero-length, then more": cat(good, make([]byte, 8), flush),
		"first not a snapshot":   flush,
		"second snapshot":        cat(good, good),
		"unknown kind":           cat(good, manRecord([]byte{9})),
		"trailing field":         cat(good, manRecord(append(manFlushBody("run-000002.lsm", 4096, 5), 0))),
		"merge of an unknown":    cat(good, manRecord(manMergeBody("run-000003.lsm", 1, []string{"run-000009.lsm"}))),
		"name with a separator":  cat(good, manRecord(manFlushBody("../run-000002.lsm", 1, 5))),
	} {
		if _, _, err := parseManifest(data); err == nil || !strings.Contains(err.Error(), "at offset") {
			t.Errorf("%s: parseManifest err = %v; want it refused with the offset", name, err)
		}
	}
	st, ok, err := parseManifest(cat(good, flush))
	if err != nil || !ok || len(st.runs) != 2 || st.runs[0] != "run-000002.lsm" || st.floor != 5 || st.ends["run-000001.lsm"] != 3<<30 || st.ends["run-000002.lsm"] != 4096 {
		t.Fatalf("parseManifest(snapshot+flush) = %+v, %v, %v; want newest-first runs, their committed lengths and floor 5", st, ok, err)
	}
	// An extending flush re-commits the run at the head with its new length;
	// a merge commits its output's and forgets nothing it should keep.
	more := append(append(append([]byte{}, good...), flush...), manRecord(manFlushBody("run-000002.lsm", 8192, 6))...)
	more = append(more, manRecord(manMergeBody("run-000002m.lsm", 7000, []string{"run-000002.lsm", "run-000001.lsm"}))...)
	st, ok, err = parseManifest(more)
	if err != nil || !ok || len(st.runs) != 1 || st.runs[0] != "run-000002m.lsm" || st.floor != 6 || st.ends["run-000002m.lsm"] != 7000 {
		t.Fatalf("parseManifest(snapshot+flush+extend+merge) = %+v, %v, %v", st, ok, err)
	}
	// Records written before run files could grow carry no lengths: they
	// parse, and every length reads as zero — whatever the file holds.
	old := func(body []byte, drop int) []byte { return manRecord(body[:len(body)-drop]) }
	legacy := append(old(manSnapshotBody(manState{runs: []string{"run-000001.lsm"}, floor: 3}), 1), old(manFlushBody("run-000002.lsm", 0, 5), 1)...)
	legacy = append(legacy, old(manMergeBody("run-000002m.lsm", 0, []string{"run-000002.lsm", "run-000001.lsm"}), 1)...)
	st, ok, err = parseManifest(legacy)
	if err != nil || !ok || len(st.runs) != 1 || st.floor != 5 || st.ends["run-000002m.lsm"] != 0 {
		t.Fatalf("parseManifest(records without lengths) = %+v, %v, %v; want them accepted", st, ok, err)
	}
}

// TestManifestSeqOnlyItsOwnNames: loadManifest walks the generations by
// number, so a name counts as one only if manifestName writes it.
func TestManifestSeqOnlyItsOwnNames(t *testing.T) {
	for _, seq := range []int{0, 1, 999999, 1000000} {
		if got, ok := manifestSeq(manifestName(seq)); !ok || got != seq {
			t.Errorf("manifestSeq(%q) = %d, %v", manifestName(seq), got, ok)
		}
	}
	for _, base := range []string{"MANIFEST-000001.tmp", "MANIFEST-0000001", "MANIFEST-00001", "MANIFEST--00001", "MANIFEST-+00001", "MANIFEST-", "000001"} {
		if seq, ok := manifestSeq(base); ok {
			t.Errorf("manifestSeq(%q) = %d, accepted", base, seq)
		}
	}
}

// TestLegacyMergeNameOpens: merges once named their output after their newest
// input plus "m". Nothing reads a name's shape any more, so a manifest that
// lists such a file opens it like any other, and the next merge's output
// takes a fresh sequence number.
func TestLegacyMergeNameOpens(t *testing.T) {
	dir := t.TempDir()
	tr := openTest(t, Options{Dir: dir})
	fill(t, tr, 0, 50, "v")
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	st, loaded, newest, err := loadManifest(dir)
	if err != nil || loaded == "" || len(st.runs) != 1 {
		t.Fatalf("loadManifest = %+v, %q, %v", st, loaded, err)
	}
	const legacy = "run-000002m.lsm"
	if err := os.Rename(filepath.Join(dir, st.runs[0]), filepath.Join(dir, legacy)); err != nil {
		t.Fatal(err)
	}
	st.ends[legacy] = st.ends[st.runs[0]]
	st.runs[0] = legacy
	if err := os.WriteFile(filepath.Join(dir, manifestName(newest+1)), manRecord(manSnapshotBody(st)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, loaded)); err != nil {
		t.Fatal(err)
	}

	tr = openTest(t, Options{Dir: dir})
	wantAll(t, tr, 0, 50, "v")
	fill(t, tr, 0, 10, "w") // not above the run: a new file, then a merge of the two
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Merge(); err != nil {
		t.Fatal(err)
	}
	wantAll(t, tr, 0, 10, "w")
	wantAll(t, tr, 10, 40, "v")
	tr.mu.RLock()
	runs := tr.set.runs
	tr.mu.RUnlock()
	if name := filepath.Base(runs[0].path); len(runs) != 1 || strings.HasSuffix(name, "m.lsm") || fileSeqOf(name, "run-%06d") <= 2 {
		t.Fatalf("%d runs, the newest %s; want one, the merge output, under a fresh sequence number", len(runs), name)
	}
}
