package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// wantNoDebris fails if dir holds anything a crash leaves and Open sweeps: a
// temp file, or a run file longer than its last complete segment.
func wantNoDebris(t *testing.T, dir, how string) {
	t.Helper()
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("%s: temp files left behind: %v", how, tmps)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "run-*.lsm"))
	for _, name := range names {
		st, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := openRun(name, runConfig{}, 0)
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		if r.end != st.Size() {
			t.Fatalf("%s: %s is %d bytes, its segments end at %d", how, filepath.Base(name), st.Size(), r.end)
		}
		_ = r.close()
	}
}

// TestAscendingFlushesExtendOneFile: 1 000 flushes of ascending keys end as
// one run in one file that no merge ever touched — beside
// TestPickMergeThousandFlushes, where the same number of flushes that cannot
// extend climb the tiers — and the file reads back whole after a reopen.
func TestAscendingFlushesExtendOneFile(t *testing.T) {
	const flushes, perFlush = 1000, 4
	dir, m := t.TempDir(), &Metrics{}
	tr, err := Open(Options{Dir: dir, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { tr.Close() }()
	for f := 0; f < flushes; f++ {
		fill(t, tr, f*perFlush, perFlush, "v")
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	check := func(how string) {
		t.Helper()
		st := tr.Stats()
		if st.Runs != 1 || st.Segments != flushes || st.ReadDepth != 1 || st.RunEntries != flushes*perFlush {
			t.Fatalf("%s: %d runs, %d segments, read depth %d, %d entries; want one run of %d segments", how, st.Runs, st.Segments, st.ReadDepth, st.RunEntries, flushes)
		}
		globOne(t, dir, "run-*.lsm")
		wantAll(t, tr, 0, flushes*perFlush, "v")
		if n, err := tr.Len(); err != nil || n != flushes*perFlush {
			t.Fatalf("%s: Len = %d, %v", how, n, err)
		}
	}
	check("after the flushes")
	if got := m.Extends.Value(); got != flushes-1 || m.Merges.Value() != 0 {
		t.Fatalf("%d extends, %d merges; want every flush after the first to extend and no merge", got, m.Merges.Value())
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr, err = Open(Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	check("after a reopen")
}

// TestMergeFoldsSegments: a forced merge means "one sorted file with one
// index", so Merge on a single run of several segments rewrites it as one,
// and on a run of one segment does nothing.
func TestMergeFoldsSegments(t *testing.T) {
	dir, m := t.TempDir(), &Metrics{}
	tr, err := Open(Options{Dir: dir, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for f := 0; f < 5; f++ {
		fill(t, tr, f*10, 10, "v")
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if st := tr.Stats(); st.Runs != 1 || st.Segments != 5 {
		t.Fatalf("%d runs, %d segments before the merge; want 1 and 5", st.Runs, st.Segments)
	}
	extended := globOne(t, dir, "run-*.lsm")
	for pass, wantMerges := range []int64{1, 1} {
		if err := tr.Merge(); err != nil {
			t.Fatal(err)
		}
		if st := tr.Stats(); st.Runs != 1 || st.Segments != 1 || m.Merges.Value() != wantMerges || m.MergedEntries.Value() != 50 {
			t.Fatalf("Merge %d: %d runs, %d segments, %d merges of %d entries; want one segment after one merge of 50", pass+1, st.Runs, st.Segments, m.Merges.Value(), m.MergedEntries.Value())
		}
		wantAll(t, tr, 0, 50, "v")
	}
	// The merged file is an ordinary run: the next ascending flush extends it.
	fill(t, tr, 50, 10, "w")
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.Runs != 1 || st.Segments != 2 {
		t.Fatalf("%d runs, %d segments after flushing above the merged run; want 1 and 2", st.Runs, st.Segments)
	}
	if got := globOne(t, dir, "run-*.lsm"); got == extended {
		t.Fatalf("the surviving file is %s, the one the merge read; want its output", filepath.Base(got))
	}
}

// TestExtendRules pins who may be extended: only the newest run, only by keys
// strictly above its last, and never a format-02 file.
func TestExtendRules(t *testing.T) {
	m := &Metrics{}
	tr := openTest(t, Options{Metrics: m})
	flush := func(wantExtends int64, wantRuns int, why string) {
		t.Helper()
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		if st := tr.Stats(); m.Extends.Value() != wantExtends || st.Runs != wantRuns {
			t.Fatalf("%s: %d extends, %d runs; want %d and %d", why, m.Extends.Value(), st.Runs, wantExtends, wantRuns)
		}
	}
	fill(t, tr, 100, 10, "a")
	flush(0, 1, "the first flush starts a file")
	fill(t, tr, 110, 10, "b")
	flush(1, 1, "keys above the run extend it")
	fill(t, tr, 119, 5, "c") // key-00119 is the run's last key
	flush(1, 2, "a flush that starts at the run's last key must not extend it")
	fill(t, tr, 50, 5, "d")
	flush(1, 3, "keys below the newest run start a file")
	fill(t, tr, 124, 5, "e")
	flush(2, 3, "keys above the newest run extend it, whatever older runs hold")
	if v, ok, err := tr.Get([]byte("key-00119")); err != nil || !ok || string(v) != "c" {
		t.Fatalf("Get(key-00119) = %q, %v, %v; want the rewrite", v, ok, err)
	}
	if n, err := tr.Len(); err != nil || n != 34 {
		t.Fatalf("Len = %d, %v; want 34", n, err)
	}
}

// TestFlushBesideMergeStartsNewFile parks a merge of every run just before
// it publishes and flushes keys above the newest run meanwhile: that run is a
// merge input — about to be replaced by an output that holds only what the
// merge read — so the flush must start a new file, which the output then
// slots in under.
func TestFlushBesideMergeStartsNewFile(t *testing.T) {
	parked, release := make(chan struct{}), make(chan struct{})
	m := &Metrics{}
	tr := openTest(t, Options{Metrics: m, FaultHook: func(op string) error {
		if op == "merge:bg" {
			close(parked)
			<-release
		}
		return nil
	}})
	fill(t, tr, 0, 10, "a")
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	fill(t, tr, 10, 10, "b")
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	merged := make(chan error, 1)
	go func() { merged <- tr.Merge() }()
	<-parked
	fill(t, tr, 20, 10, "c")
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-merged; err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); m.Extends.Value() != 1 || st.Runs != 2 || st.Segments != 2 {
		t.Fatalf("%d extends, %d runs, %d segments; want the one extend before the merge, then its output under a new file", m.Extends.Value(), st.Runs, st.Segments)
	}
	wantAll(t, tr, 0, 10, "a")
	wantAll(t, tr, 10, 10, "b")
	wantAll(t, tr, 20, 10, "c")
}

// TestCrashDuringFlushRecoversExactly crashes a small workload at every hit
// of every fault point a flush passes — the body written but nothing after it
// ("flush:bg"), the index and trailer half written, the header half written,
// the manifest record torn or refused — once where the flushes extend one
// file and once where the last one starts a new file. Whichever byte the
// crash stopped at, the reopen must find exactly the acknowledged records,
// replay exactly the crashed flush's WAL records, cut off the extension of a
// flush that never committed, leave no debris, and go on extending from the
// committed length.
func TestCrashDuringFlushRecoversExactly(t *testing.T) {
	type step struct {
		start, n int
		tag      string
	}
	workloads := map[string][]step{
		"extend":   {{0, 40, "a"}, {40, 40, "b"}, {80, 40, "c"}},
		"new file": {{0, 40, "a"}, {40, 40, "b"}, {20, 40, "c"}},
	}
	// drive applies the workload until a step fails, returning the model of
	// acknowledged records and how many of them no committed flush covers.
	drive := func(t *testing.T, dir string, hook FaultHook, steps []step) (model map[int]string, unflushed int) {
		t.Helper()
		model = map[int]string{}
		tr, err := Open(Options{Dir: dir, SyncWAL: 1, FaultHook: hook})
		if err != nil {
			return model, 0
		}
		for _, s := range steps {
			fill(t, tr, s.start, s.n, s.tag)
			for i := s.start; i < s.start+s.n; i++ {
				model[i] = s.tag
			}
			if err := tr.Flush(); err != nil {
				unflushed = s.n
				break
			}
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		return model, unflushed
	}
	for name, steps := range workloads {
		hits := map[string]int{}
		drive(t, t.TempDir(), func(op string) error { hits[op]++; return nil }, steps)
		if hits["flush:bg"] != 3 || hits["run:trailer"] != 3 || hits["run:header"] != 3 || hits["manifest:append"] != 4 {
			t.Fatalf("%s: fault points hit %v; want three flushes and Open's snapshot", name, hits)
		}
		for _, point := range []string{"flush:bg", "run:trailer", "run:header", "manifest:append"} {
			for hit := 1; hit <= hits[point]; hit++ {
				for _, inject := range []error{ErrTornWrite, errors.New("disk gone")} {
					if point != "manifest:append" && inject != ErrTornWrite {
						continue // a plain error before the commit aborts the flush cleanly: no crash shape
					}
					how := fmt.Sprintf("%s, %v at %s hit %d", name, inject, point, hit)
					dir := t.TempDir()
					model, unflushed := drive(t, dir, hookOn(point, hit, inject), steps)
					// A flush that dies while extending leaves its bytes at the
					// end of the run's file, and Open cuts them off — a whole
					// segment too, when its manifest record was refused or torn
					// (hit 1 is Open's snapshot, 2 the first flush's record).
					tornTail := name == "extend" && (point != "manifest:append" && hit > 1 || point == "manifest:append" && hit > 2)
					var torn int64
					if st, err := os.Stat(filepath.Join(dir, "run-000001.lsm")); err == nil {
						torn = st.Size()
					}
					m := &Metrics{}
					tr, err := Open(Options{Dir: dir, Metrics: m})
					if err != nil {
						t.Fatalf("%s: reopen: %v", how, err)
					}
					if st, err := os.Stat(filepath.Join(dir, "run-000001.lsm")); tornTail && (err != nil || st.Size() >= torn) {
						t.Fatalf("%s: run-000001.lsm is %d bytes after Open, %d before (%v): the torn extension was not there or not cut", how, st.Size(), torn, err)
					}
					verify := func(when string) {
						t.Helper()
						for i, tag := range model {
							wantAll(t, tr, i, 1, tag)
						}
						if n, err := tr.Len(); err != nil || n != len(model) {
							t.Fatalf("%s, %s: Len = %d, %v; want %d", how, when, n, err, len(model))
						}
					}
					verify("after the reopen")
					if got := m.RecoveryReplayed.Value(); got != int64(unflushed) {
						t.Fatalf("%s: replayed %d WAL records, want the crashed flush's %d", how, got, unflushed)
					}
					// Whatever the recovered memtable and the batch after it
					// flush into (nothing is on disk after a crashed first
					// Open), the batch after those lies above the newest run
					// and must extend it.
					for _, start := range []int{200, 205} {
						before := m.Extends.Value()
						fill(t, tr, start, 5, "z")
						for i := start; i < start+5; i++ {
							model[i] = "z"
						}
						if err := tr.Flush(); err != nil {
							t.Fatalf("%s: %v", how, err)
						}
						if start == 205 && m.Extends.Value() != before+1 {
							t.Fatalf("%s: a flush above the newest recovered run did not extend it", how)
						}
					}
					verify("after extending the recovered tree")
					if err := tr.Close(); err != nil {
						t.Fatal(err)
					}
					wantNoDebris(t, dir, how)
					if tr, err = Open(Options{Dir: dir}); err != nil {
						t.Fatalf("%s: second reopen: %v", how, err)
					}
					verify("after the second reopen")
					if err := tr.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// copyDir copies the plain files of src into a fresh directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCommittedBytesAreVouchedFor: the manifest records how long each run
// file was when its last flush committed. A defect below that length — a
// flipped bit in a later segment's header, index or filter, a file cut short —
// is lost data: Open refuses, and leaves the file exactly as it found it.
// Bytes beyond that length belong to no committed flush and are cut.
func TestCommittedBytesAreVouchedFor(t *testing.T) {
	src := t.TempDir()
	tr, err := Open(Options{Dir: src, SyncWAL: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64 // the file's length after each flush
	for f := 0; f < 3; f++ {
		fill(t, tr, f*40, 40, "v")
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(filepath.Join(src, "run-000001.lsm"))
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, st.Size())
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	flip := func(off int64) func([]byte) []byte {
		return func(b []byte) []byte { b[off] ^= 0x10; return b }
	}
	for name, c := range map[string]struct {
		damage  func([]byte) []byte
		wantErr string // "" = opens
	}{
		"second segment's header":  {flip(ends[0] + 3), "bad segment header"},
		"second segment's length":  {flip(ends[0] + 9), "bad segment header"},
		"second segment's index":   {flip(ends[1] - runTrailerLen - 40), "checksum"},
		"third segment's trailer":  {flip(ends[2] - 12), "checksum"},
		"file cut short":           {func(b []byte) []byte { return b[:ends[2]-5] }, "were committed"},
		"file cut at a segment":    {func(b []byte) []byte { return b[:ends[1]] }, "were committed"},
		"garbage after the commit": {func(b []byte) []byte { return append(b, "not a segment"...) }, ""},
	} {
		dir := copyDir(t, src)
		path := filepath.Join(dir, "run-000001.lsm")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data = c.damage(data)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tr, err := Open(Options{Dir: dir})
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("%s: Open = %v; want it refused (%q)", name, err, c.wantErr)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
				t.Fatalf("%s: the refused file was changed: %d bytes, were %d", name, len(after), len(data))
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantAll(t, tr, 0, 120, "v")
		if n, err := tr.Len(); err != nil || n != 120 {
			t.Fatalf("%s: Len = %d, %v; want 120", name, n, err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		wantNoDebris(t, dir, name)
	}
}

// TestUncommittedSegmentIsCut: a flush extends the file and dies before its
// manifest record. The segment is complete, and after a power loss it may even
// be a header and index that vouch for blocks that never reached the disk
// (here: zeroed). The manifest says the file was committed up to the segment
// before, so Open cuts there whatever follows looks like, and the flush's
// records come back from the WAL.
func TestUncommittedSegmentIsCut(t *testing.T) {
	for _, zeroed := range []bool{false, true} {
		dir := t.TempDir()
		tr, err := Open(Options{Dir: dir, SyncWAL: 1, FaultHook: hookOn("manifest:append", 4, errors.New("disk gone"))})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "run-000001.lsm")
		var committed int64
		for f := 0; f < 3; f++ {
			if st, err := os.Stat(path); err == nil {
				committed = st.Size()
			}
			fill(t, tr, f*40, 40, "v")
			if err := tr.Flush(); (err != nil) != (f == 2) {
				t.Fatalf("flush %d: %v", f, err)
			}
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil || st.Size() <= committed {
			t.Fatalf("%d bytes on disk (%v), %d committed: the third flush left no segment", st.Size(), err, committed)
		}
		if zeroed {
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(make([]byte, 200), committed+runHeaderLen); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
		m := &Metrics{}
		if tr, err = Open(Options{Dir: dir, Metrics: m}); err != nil {
			t.Fatalf("zeroed=%v: %v", zeroed, err)
		}
		if st, _ := os.Stat(path); st.Size() != committed || m.RecoveryReplayed.Value() != 40 {
			t.Fatalf("zeroed=%v: file %d bytes, %d records replayed; want it cut to the committed %d and the flush's 40 replayed", zeroed, st.Size(), m.RecoveryReplayed.Value(), committed)
		}
		wantAll(t, tr, 0, 120, "v")
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Merge(); err != nil { // reads every block
			t.Fatal(err)
		}
		wantAll(t, tr, 0, 120, "v")
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExtendBesideMergesAndScans runs, under the race detector, a writer of
// ascending keys — now and then it also rewrites an old key, so that flush
// starts a new file and tier merges come and go — beside forced merges and a reader
// that scans and probes throughout. No acknowledged key may be missing or
// seen twice, however the run list changes under the reader, and a reopen
// finds every key in exactly the files the run list names.
func TestExtendBesideMergesAndScans(t *testing.T) {
	total := 12000
	if testing.Short() {
		total = 4000
	}
	dir, m := t.TempDir(), &Metrics{}
	tr, err := Open(Options{Dir: dir, MemtableBytes: 2 << 10, MaxRuns: 2, BlockBytes: 512, BlockCache: NewBlockCache(64 << 10), Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
	var done atomic.Int64 // keys 0..done-1 are acknowledged
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // writer
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < total; i++ {
			if err := tr.Put(key(i), []byte("v")); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
			done.Store(int64(i + 1))
			if i%300 == 299 { // an old key: the flush that carries it cannot extend
				if err := tr.Put(key(i/2), []byte("v")); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}
	}()
	go func() { // forced merges
		defer wg.Done()
		for !stop.Load() {
			if err := tr.Merge(); err != nil {
				t.Errorf("Merge: %v", err)
				return
			}
			runtime.Gosched()
		}
	}()
	go func() { // reader
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for !stop.Load() {
			acked := int(done.Load())
			next := 0
			err := tr.Scan(nil, nil, func(k, _ []byte) bool {
				if next < acked && !bytes.Equal(k, key(next)) {
					t.Errorf("scan with %d keys acknowledged: got %s where %s belongs", acked, k, key(next))
					return false
				}
				next++
				return true
			})
			if err != nil || next < acked {
				t.Errorf("scan saw %d keys (%v), %d were acknowledged before it began", next, err, acked)
				return
			}
			for j := 0; j < 20 && acked > 0; j++ {
				k := key(rng.Intn(acked))
				if _, ok, err := tr.Get(k); err != nil || !ok {
					t.Errorf("Get(%s) = %v, %v with %d keys acknowledged", k, ok, err, acked)
					return
				}
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		tr.Close()
		return
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if m.Extends.Value() == 0 || m.Merges.Value() == 0 || m.Flushes.Value() == m.Extends.Value()+1 {
		t.Fatalf("%d flushes, %d extends, %d merges: the test needs extends, new files and merges to interleave", m.Flushes.Value(), m.Extends.Value(), m.Merges.Value())
	}
	t.Logf("%d flushes, %d of them extends, %d merges", m.Flushes.Value(), m.Extends.Value(), m.Merges.Value())
	// A merge's inputs are deleted after Flush may have returned, and not at
	// all once the tree is closing: the next Open sweeps them. After it, the
	// directory holds exactly the listed runs, and they hold every key.
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr, err = Open(Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "run-*"))
	if st := tr.Stats(); len(names) != st.Runs {
		t.Errorf("%d run files on disk %v, %d runs listed", len(names), names, st.Runs)
	}
	if n, err := tr.Len(); err != nil || n != total {
		t.Errorf("Len after reopen = %d, %v; want %d", n, err, total)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	wantNoDebris(t, dir, "after the concurrent run")
}

// TestParentDirectoryOpensAndExtends opens testdata/format02, a directory
// written by the commit before segments existed (two flushes of 100 keys, one
// delete, then 50 puts left in the WAL; testdata/README.md has the generator,
// asFormat03 rewrites the one-segment format-04 run file at path as format
// 03 wrote it, and returns the new file length. Format 03 differs only in
// its magic and its filter section: a probe count and the bitmap of a
// classic Bloom filter. The bitmap written here is all zeros, so a loader
// that parsed it would turn every key away.
func asFormat03(t *testing.T, path string) int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil || !bytes.HasPrefix(data, runMagic) || int64(binary.LittleEndian.Uint64(data[8:])) != int64(len(data)) {
		t.Fatalf("%s: %v, or not one format-04 segment", path, err)
	}
	trailer := data[len(data)-runTrailerLen:]
	indexLen := int(binary.LittleEndian.Uint32(trailer[0:]))
	filterLen := int(binary.LittleEndian.Uint32(trailer[4:]))
	indexOff := len(data) - runTrailerLen - filterLen - indexLen
	index := data[indexOff : indexOff+indexLen]
	oldFilter := append([]byte{7, 0, 0, 0}, make([]byte, 8*40)...)
	seg := segmentBytes(runMagic03, index, oldFilter, binary.LittleEndian.Uint64(trailer[8:]))
	// segmentBytes writes a segment with no blocks: put the blocks back
	// between its header and its index, then redo the header's length and
	// its checksum, which covers that length.
	blocks := data[runHeaderLen:indexOff]
	out := append(append(append([]byte(nil), seg[:runHeaderLen]...), blocks...), seg[runHeaderLen:]...)
	binary.LittleEndian.PutUint64(out[8:], uint64(len(out)))
	meta := out[runHeaderLen+len(blocks):]
	binary.LittleEndian.PutUint32(out[16:], crc32.Update(crc32.ChecksumIEEE(out[8:16]), crc32.IEEETable, meta))
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return int64(len(out))
}

// TestFormat03FileOpensAndExtends: a run file whose segment is format 03
// opens, its filter is not read, and every key in it is found. A flush of
// keys above it extends the file with a format-04 segment, and a reopen
// finds the keys of both segments; a merge rewrites the file as format 04.
func TestFormat03FileOpensAndExtends(t *testing.T) {
	dir, m := t.TempDir(), &Metrics{}
	tr, err := Open(Options{Dir: dir, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, tr, 0, 300, "old")
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	st, loaded, _, err := loadManifest(dir)
	if err != nil || len(st.runs) != 1 {
		t.Fatalf("manifest %+v, %v; want one run", st, err)
	}
	name := st.runs[0]
	st.ends[name] = asFormat03(t, filepath.Join(dir, name))
	if err := os.WriteFile(filepath.Join(dir, loaded), manRecord(manSnapshotBody(st)), 0o644); err != nil {
		t.Fatal(err)
	}
	segment := func(when string, i int) segment {
		t.Helper()
		r := tr.set.runs[0]
		if s := tr.Stats(); s.Runs != 1 || s.Segments != i+1 {
			t.Fatalf("%s: %d runs of %d segments", when, s.Runs, s.Segments)
		}
		return r.segs[i]
	}
	if tr, err = Open(Options{Dir: dir, Metrics: m}); err != nil {
		t.Fatal(err)
	}
	if f := segment("opened", 0).filter; f.bits != nil {
		t.Fatalf("the format-03 segment has a %d-byte filter; want the zero filter", len(f.bits))
	}
	wantAll(t, tr, 0, 300, "old")
	fill(t, tr, 300, 100, "new")
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if m.Extends.Value() != 1 {
		t.Fatalf("%d extends; want the format-03 file extended", m.Extends.Value())
	}
	if f := segment("extended", 1).filter; f.bits == nil {
		t.Fatal("the appended segment has no filter")
	}
	end := tr.set.runs[0].end
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil || !bytes.HasPrefix(data, runMagic03) || int64(len(data)) != end {
		t.Fatalf("%s: %v; want a format-03 head and %d bytes", name, err, end)
	}
	if next := data[st.ends[name]:]; !bytes.HasPrefix(next, runMagic) || !bytes.HasSuffix(next, runMagic) {
		t.Fatalf("the segment appended at %d is not format 04: %q", st.ends[name], next[:8])
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr, err = Open(Options{Dir: dir, Metrics: m}); err != nil {
		t.Fatal(err)
	}
	defer func() { tr.Close() }()
	segment("reopened", 1)
	wantAll(t, tr, 0, 300, "old")
	wantAll(t, tr, 300, 100, "new")
	if err := tr.Merge(); err != nil {
		t.Fatal(err)
	}
	if f := segment("merged", 0).filter; f.bits == nil {
		t.Fatal("the merged segment has no filter")
	}
	wantAll(t, tr, 0, 300, "old")
	wantAll(t, tr, 300, 100, "new")
}

// TestParentDirectoryFixture audits the files): its format-02 runs read as one
// segment each and every record is there. A format-02 file says nowhere how
// long it is, so it is never extended; the flush of the replayed tail starts
// a format-03 file, and the flush after that extends it.
func TestParentDirectoryOpensAndExtends(t *testing.T) {
	sub := copyDir(t, filepath.Join("testdata", "format02"))
	if st, loaded, _, err := loadManifest(sub); err != nil || loaded == "" || len(st.runs) != 2 || st.floor != 2 {
		t.Fatalf("the parent's manifest, which records no file lengths, reads as %+v, %q, %v; want its two runs and floor 2", st, loaded, err)
	}
	m := &Metrics{}
	tr, err := Open(Options{Dir: sub, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string, extra int) {
		t.Helper()
		wantAll(t, tr, 0, 42, "p1")
		wantAll(t, tr, 43, 57, "p1")
		wantAll(t, tr, 100, 100, "p2")
		wantAll(t, tr, 200, 50, "p3")
		wantAll(t, tr, 250, extra, "new")
		if n, err := tr.Len(); err != nil || n != 249+extra {
			t.Fatalf("%s: Len = %d, %v; want %d", when, n, err, 249+extra)
		}
	}
	check("as opened", 0)
	if st := tr.Stats(); st.Runs != 2 || st.Segments != 2 || m.RecoveryReplayed.Value() != 50 {
		t.Fatalf("%d runs, %d segments, %d records replayed; want the two format-02 runs and the 50-record tail", st.Runs, st.Segments, m.RecoveryReplayed.Value())
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.Runs != 3 || m.Extends.Value() != 0 {
		t.Fatalf("%d runs, %d extends after flushing the tail; a format-02 run must not be extended", st.Runs, m.Extends.Value())
	}
	fill(t, tr, 250, 30, "new")
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.Runs != 3 || st.Segments != 4 || m.Extends.Value() != 1 {
		t.Fatalf("%d runs, %d segments, %d extends; want the new run extended", st.Runs, st.Segments, m.Extends.Value())
	}
	check("after extending", 30)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr, err = Open(Options{Dir: sub}); err != nil {
		t.Fatal(err)
	}
	check("reopened", 30)
	// A forced merge rewrites the old files in the current format.
	if err := tr.Merge(); err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.Runs != 1 || st.Segments != 1 {
		t.Fatalf("%d runs, %d segments after Merge", st.Runs, st.Segments)
	}
	check("merged", 30)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestParentDirectoryFixture audits testdata/format02 against what
// testdata/README.md says it holds, reading it in place: the fixture was
// written by the parent commit's code and cannot be regenerated from this
// tree, so what it contains is pinned here rather than taken on trust.
func TestParentDirectoryFixture(t *testing.T) {
	src := filepath.Join("testdata", "format02")
	st, loaded, newest, err := loadManifest(src)
	if err != nil || loaded != "MANIFEST-000001" || newest != 1 || st.floor != 2 || len(st.runs) != 2 || st.runs[0] != "run-000002.lsm" || st.runs[1] != "run-000001.lsm" {
		t.Fatalf("manifest = %+v, loaded %q, newest %d, %v", st, loaded, newest, err)
	}
	for name, end := range st.ends {
		if end != 0 {
			t.Fatalf("the parent's manifest records a committed length for %s: %d", name, end)
		}
	}
	raw, err := os.ReadFile(filepath.Join(src, "MANIFEST-000001"))
	if err != nil {
		t.Fatal(err)
	}
	var kinds []byte
	for off := 0; off < len(raw); off += 8 + int(binary.LittleEndian.Uint32(raw[off+4:])) {
		kinds = append(kinds, raw[off+8])
	}
	if !bytes.Equal(kinds, []byte{manSnapshot, manFlush, manFlush}) {
		t.Fatalf("manifest record kinds %v; want a snapshot and two flushes", kinds)
	}
	for name, want := range map[string]struct {
		first, entries, tombstones int
		tag                        string
	}{"run-000001.lsm": {0, 100, 0, "p1"}, "run-000002.lsm": {100, 101, 1, "p2"}} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil || !bytes.HasPrefix(data, runMagic02) {
			t.Fatalf("%s: %v, or not a format-02 file", name, err)
		}
		r, err := openRun(filepath.Join(src, name), runConfig{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.end != 0 || len(r.segs) != 1 || r.len() != want.entries {
			t.Fatalf("%s: end %d, %d segments, %d entries; want one format-02 segment of %d", name, r.end, len(r.segs), r.len(), want.entries)
		}
		next, tombstones := want.first, 0
		it := r.iter(nil, false)
		for ; it.valid(); it.next() {
			e, _ := it.curr()
			switch {
			case e.tombstone && string(e.key) == "key-00042":
				tombstones++
			case string(e.key) == fmt.Sprintf("key-%05d", next) && string(e.value) == want.tag:
				next++
			default:
				t.Fatalf("%s: unexpected entry %q → %q (tombstone %v)", name, e.key, e.value, e.tombstone)
			}
		}
		if err := it.fail(); err != nil || next != want.first+100 || tombstones != want.tombstones {
			t.Fatalf("%s: keys up to %d, %d tombstones, %v", name, next, tombstones, err)
		}
		_ = r.close()
	}
	next := 200
	err = replayWAL(filepath.Join(src, "wal-000003.log"), func(kind walRecordKind, key, value []byte) error {
		if kind == walDelete || string(key) != fmt.Sprintf("key-%05d", next) || string(value) != "p3" {
			return fmt.Errorf("unexpected WAL record %q → %q (kind %d)", key, value, kind)
		}
		next++
		return nil
	})
	if err != nil || next != 250 {
		t.Fatalf("WAL tail: keys up to %d, %v; want 50 puts", next, err)
	}
}

// segmentBytes assembles a segment with no blocks by hand, for the loader
// tests: header (the bare magic for format 02), the given index and filter
// sections, and the trailer.
func segmentBytes(magic []byte, index, filter []byte, count uint64) []byte {
	var trailer [runTrailerLen]byte
	binary.LittleEndian.PutUint32(trailer[0:], uint32(len(index)))
	binary.LittleEndian.PutUint32(trailer[4:], uint32(len(filter)))
	binary.LittleEndian.PutUint64(trailer[8:], count)
	copy(trailer[16:], magic)
	meta := append(append(append([]byte(nil), index...), filter...), trailer[:]...)
	if bytes.Equal(magic, runMagic02) {
		return append(append([]byte(nil), magic...), meta...)
	}
	hdr := make([]byte, runHeaderLen)
	copy(hdr, magic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(runHeaderLen+len(meta)))
	binary.LittleEndian.PutUint32(hdr[16:], crc32.Update(crc32.ChecksumIEEE(hdr[8:16]), crc32.IEEETable, meta))
	return append(hdr, meta...)
}

// TestCorruptFilterRefused: a format-04 filter section that is not a power
// of two of whole 64-byte lines — empty, four bytes, a part line, three
// lines — is refused when the run is loaded; a probe would otherwise index
// past the bitmap or never reach part of it. Formats 02 and 03 stored a
// filter of another layout, which is not read, so the same bytes load there
// and the segment answers "maybe" to every key.
func TestCorruptFilterRefused(t *testing.T) {
	for _, n := range []int{0, 4, 100, 3 * filterLine, 6 * filterLine} {
		if f, ok := loadKeyFilter(make([]byte, n)); ok {
			t.Errorf("loadKeyFilter of %d bytes accepted: %d bytes, shift %d", n, len(f.bits), f.shift)
		}
	}
	for _, n := range []int{0, 1, 51, 52, 1000} {
		bits := newKeyFilter(n).bits
		if f, ok := loadKeyFilter(bits); !ok || f.shift != newKeyFilter(n).shift {
			t.Fatalf("the %d-byte filter the writer makes for %d keys is refused, or loads with shift %d", len(bits), n, f.shift)
		}
	}
	open := func(magic, filter []byte) (*run, error) {
		path := filepath.Join(t.TempDir(), "run-000001.lsm")
		if err := os.WriteFile(path, segmentBytes(magic, []byte{0}, filter, 0), 0o644); err != nil {
			t.Fatal(err)
		}
		return openRun(path, runConfig{}, 0)
	}
	for _, n := range []int{0, 4, 100, 3 * filterLine} {
		if _, err := open(runMagic, make([]byte, n)); err == nil || !strings.Contains(err.Error(), "key filter") {
			t.Fatalf("openRun of a format-04 file with a %d-byte filter = %v, want it refused as a corrupt key filter", n, err)
		}
	}
	r, err := open(runMagic, make([]byte, filterLine))
	if err != nil {
		t.Fatalf("a format-04 file with a one-line filter: %v", err)
	}
	r.close()
	for _, magic := range [][]byte{runMagic02, runMagic03} {
		r, err := open(magic, []byte{7, 0, 0, 0})
		if err != nil {
			t.Fatalf("openRun of a %s file with a 4-byte filter: %v; an old filter is not read", magic, err)
		}
		if f := r.segs[0].filter; f.bits != nil || !f.mayContain(keyHash([]byte("any"))) {
			t.Fatalf("a %s segment has a %d-byte filter; want the zero filter", magic, len(f.bits))
		}
		r.close()
	}
}

// FuzzLoadRun feeds arbitrary bytes to the loader as a run file, with the
// committed length a manifest would vouch for (0: the whole file), which is
// how Open loads every listed run. It must not panic, must not allocate more
// than a small multiple of the file's size whatever lengths the bytes claim,
// and must never change the file: what lies beyond the committed length is
// Open's to cut, and a refusal leaves the file as it was. A format-03 file
// that loads ends at the committed length exactly, has ascending block keys
// and in-bounds, back-to-back extents inside its segments, and answers a scan
// and point probes with data or an error, never a panic. The checked-in
// corpus (testdata/fuzz/FuzzLoadRun) was written by this package's writer: a
// format-03 file, files of one, two (committed up to the first) and nine
// segments, a second segment with half a header, one with half an index
// section, garbage after the last segment (those three committed up to the
// first segment), and a four-byte filter in formats 02 and 03; and in format
// 04 a file of one segment and two, and a filter section of 100 bytes (not a
// whole number of lines) and of three lines (not a power of two of them),
// which must be refused.
func FuzzLoadRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, committed int64) {
		path := filepath.Join(t.TempDir(), "run-000001.lsm")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := openRun(path, runConfig{}, committed)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10+64*uint64(len(data)) {
			t.Fatalf("loading %d bytes allocated %d", len(data), grew)
		}
		if now, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(now, data) {
			t.Fatalf("loading changed the file (%v): %d bytes, were %d", rerr, len(now), len(data))
		}
		if err != nil {
			return
		}
		defer r.close()
		want := int64(len(data))
		if committed > 0 {
			want = committed
		}
		end := r.end
		if end == 0 { // format 02: one segment, the whole file, no length to commit
			end = int64(len(data))
		} else if end != want {
			t.Fatalf("segments end at %d, want the committed %d", end, want)
		}
		var prev blockMeta
		entries := 0
		for i, bm := range r.blocks {
			if i > 0 && bytes.Compare(bm.firstKey, prev.firstKey) <= 0 {
				t.Fatalf("block %d first key %q not above block %d's %q", i, bm.firstKey, i-1, prev.firstKey)
			}
			if bm.off < prev.off+int64(prev.length) || bm.length < blockFooterLen || bm.off+int64(bm.length) > end {
				t.Fatalf("block %d extent [%d,+%d) after [%d,+%d) below %d", i, bm.off, bm.length, prev.off, prev.length, end)
			}
			entries += int(bm.entries)
			prev = bm
		}
		for i, seg := range r.segs {
			if seg.start > len(r.blocks) || i > 0 && seg.start < r.segs[i-1].start {
				t.Fatalf("segment %d of %d starts at block %d of %d", i, len(r.segs), seg.start, len(r.blocks))
			}
			if f := seg.filter; f.bits != nil {
				if g, ok := loadKeyFilter(f.bits); !ok || g.shift != f.shift {
					t.Fatalf("segment %d has a %d-byte filter with shift %d", i, len(f.bits), f.shift)
				}
			}
		}
		if entries != r.len() || (len(r.blocks) > 0) != (r.span().bytes > 0) {
			t.Fatalf("%d entries indexed, len() %d, span %+v", entries, r.len(), r.span())
		}
		it := r.iter(nil, false)
		for ; it.valid(); it.next() {
			_, _, _ = r.view(it.key(), keyHash(it.key()), func([]byte) {})
		}
		_ = it.fail()
	})
}

// TestMultiSegmentPointReads: a run extended over several segments, each of
// several blocks, with gaps inside every segment (odd keys) and between
// them. Every key the run holds is found in its own segment with one block
// read; keys in the gaps, below the first fence and above the last are
// absent; and a key its segment's filter rejects costs no block read. The
// same holds after a reopen, which loads the segments from the file.
func TestMultiSegmentPointReads(t *testing.T) {
	const segs, span, held = 5, 1000, 400 // segment s holds the even keys of [s*span, s*span+held)
	dir, m := t.TempDir(), &Metrics{}
	opt := Options{Dir: dir, Metrics: m, BlockBytes: 256}
	tr, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { tr.Close() }()
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
	for s := 0; s < segs; s++ {
		for i := s * span; i < s*span+held; i += 2 {
			if err := tr.Put(key(i), key(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	check := func(how string) {
		t.Helper()
		if st := tr.Stats(); st.Runs != 1 || st.Segments != segs {
			t.Fatalf("%s: %d runs of %d segments; want one of %d", how, st.Runs, st.Segments, segs)
		}
		r := tr.set.runs[0]
		for s, seg := range r.segs {
			end := len(r.blocks)
			if s+1 < segs {
				end = r.segs[s+1].start
			}
			if end-seg.start < 3 {
				t.Fatalf("%s: segment %d has %d blocks; want several", how, s, end-seg.start)
			}
		}
		view := func(k []byte) (found bool, reads int64) {
			t.Helper()
			before := m.BlockReads.Value()
			ok, err := tr.View(k, func(v []byte) {
				if !bytes.Equal(v, k) {
					t.Fatalf("%s: View(%s) = %q", how, k, v)
				}
			})
			if err != nil {
				t.Fatalf("%s: View(%s): %v", how, k, err)
			}
			return ok, m.BlockReads.Value() - before
		}
		rejected := 0
		for i := -1; i <= segs*span; i++ {
			k := key(i)
			if i < 0 {
				k = []byte("key-") // below every key
			}
			inSeg := i >= 0 && i%span < held && i/span < segs
			want := inSeg && i%2 == 0
			if wantSeg := min(i/span, segs-1); i >= 0 && r.segmentOf(k) != wantSeg {
				t.Fatalf("%s: segmentOf(%s) = %d, want %d", how, k, r.segmentOf(k), wantSeg)
			}
			found, reads := view(k)
			if found != want {
				t.Fatalf("%s: View(%s) found %v, want %v", how, k, found, want)
			}
			switch si := r.segmentOf(k); {
			case want && reads != 1:
				t.Fatalf("%s: View(%s) read %d blocks, want 1", how, k, reads)
			case !want && (si < 0 || !r.segs[si].filter.mayContain(keyHash(k))):
				rejected++
				if reads != 0 {
					t.Fatalf("%s: View(%s) read %d blocks past a filter that rejects it", how, k, reads)
				}
			}
		}
		if rejected < segs*span/2 {
			t.Fatalf("%s: filters rejected only %d absent keys", how, rejected)
		}
		for _, k := range []string{"", "a", "key-99999", "z"} {
			if found, _ := view([]byte(k)); found {
				t.Fatalf("%s: View(%q) found a key outside the fences", how, k)
			}
		}
	}
	check("after the flushes")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	opt.Metrics = m
	if tr, err = Open(opt); err != nil {
		t.Fatal(err)
	}
	check("after a reopen")
}
