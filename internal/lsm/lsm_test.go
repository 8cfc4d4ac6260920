package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
)

func openTest(t *testing.T, opt Options) *Tree {
	t.Helper()
	if opt.Dir == "" {
		opt.Dir = t.TempDir()
	}
	tr, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func TestPutGet(t *testing.T) {
	tr := openTest(t, Options{})
	if err := tr.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tr.Get([]byte("k1"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	if _, ok, _ := tr.Get([]byte("absent")); ok {
		t.Fatal("Get(absent) reported present")
	}
}

func TestOverwrite(t *testing.T) {
	tr := openTest(t, Options{})
	tr.Put([]byte("k"), []byte("old"))
	tr.Put([]byte("k"), []byte("new"))
	v, ok, _ := tr.Get([]byte("k"))
	if !ok || string(v) != "new" {
		t.Fatalf("Get after overwrite = %q, %v", v, ok)
	}
}

func TestDelete(t *testing.T) {
	tr := openTest(t, Options{})
	tr.Put([]byte("k"), []byte("v"))
	tr.Delete([]byte("k"))
	if _, ok, _ := tr.Get([]byte("k")); ok {
		t.Fatal("Get after delete reported present")
	}
}

func TestDeleteSurvivesFlush(t *testing.T) {
	tr := openTest(t, Options{})
	tr.Put([]byte("k"), []byte("v"))
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	tr.Delete([]byte("k"))
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tr.Get([]byte("k")); ok {
		t.Fatal("deleted key resurfaced from older run")
	}
}

func TestFlushAndReadBack(t *testing.T) {
	tr := openTest(t, Options{})
	for i := 0; i < 500; i++ {
		tr.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("val-%d", i)))
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Runs != 1 || st.MemtableEntries != 0 {
		t.Fatalf("stats after flush = %+v", st)
	}
	for i := 0; i < 500; i += 37 {
		v, ok, err := tr.Get([]byte(fmt.Sprintf("key-%04d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get(key-%04d) = %q, %v, %v", i, v, ok, err)
		}
	}
}

func TestAutoFlushOnThreshold(t *testing.T) {
	tr := openTest(t, Options{MemtableBytes: 2048})
	for i := 0; i < 200; i++ {
		tr.Put([]byte(fmt.Sprintf("key-%04d", i)), bytes.Repeat([]byte{'x'}, 64))
	}
	if tr.Stats().Flushes == 0 {
		t.Fatal("no automatic flush despite exceeding threshold")
	}
}

// TestTieredMerge runs the merge policy end to end under MaxRuns 2. Batches
// that all cover one keyspace stack up under rule 1 and must end with no
// more than MaxRuns runs, as they always did; batches of disjoint keys never
// deepen a read, so only the tier rule merges them — 27 equal flushes climb
// 1 → 3 → 9 → 27 into a single run. (The batches descend: each lies below the
// one before, so no flush can extend the newest run and every one is a file
// of its own.) Both lose nothing.
func TestTieredMerge(t *testing.T) {
	const maxRuns, perBatch = 2, 50
	load := func(t *testing.T, batches int, key func(batch, i int) string) (*Tree, Stats) {
		tr := openTest(t, Options{MaxRuns: maxRuns})
		for batch := 0; batch < batches; batch++ {
			for i := 0; i < perBatch; i++ {
				tr.Put([]byte(key(batch, i)), []byte(fmt.Sprintf("v%d", batch)))
			}
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		st := tr.Stats()
		if st.Merges == 0 {
			t.Fatal("no merge despite exceeding MaxRuns")
		}
		if st.CompactionDebt != 0 || st.ReadDepth > maxRuns {
			t.Fatalf("Flush returned with debt %d, read depth %d", st.CompactionDebt, st.ReadDepth)
		}
		return tr, st
	}
	t.Run("overlapping", func(t *testing.T) {
		tr, st := load(t, 7, func(_, i int) string { return fmt.Sprintf("k-%03d", i) })
		if st.Runs > maxRuns {
			t.Fatalf("runs after merge = %d, want <= %d", st.Runs, maxRuns)
		}
		if n, err := tr.Len(); err != nil || n != perBatch {
			t.Fatalf("Len after merges = %d, %v; want %d", n, err, perBatch)
		}
		if v, ok, err := tr.Get([]byte("k-007")); err != nil || !ok || string(v) != "v6" {
			t.Fatalf("Get(k-007) = %q, %v, %v; want the newest batch's v6", v, ok, err)
		}
	})
	t.Run("disjoint", func(t *testing.T) {
		const batches = 27 // maxRuns+1 cubed: three full levels
		tr, st := load(t, batches, func(batch, i int) string { return fmt.Sprintf("k-%03d-%03d", batches-batch, i) })
		if st.ReadDepth != 1 {
			t.Fatalf("read depth over disjoint batches = %d, want 1", st.ReadDepth)
		}
		if st.Runs != 1 || st.Merges != 9+3+1 {
			t.Fatalf("%d runs after %d merges, want 1 run after 9+3+1 tier merges", st.Runs, st.Merges)
		}
		if n, err := tr.Len(); err != nil || n != batches*perBatch {
			t.Fatalf("Len after merges = %d, %v; want %d", n, err, batches*perBatch)
		}
	})
}

func TestMergeDropsTombstones(t *testing.T) {
	tr := openTest(t, Options{})
	tr.Put([]byte("a"), []byte("1"))
	tr.Flush()
	tr.Delete([]byte("a"))
	tr.Flush()
	if err := tr.Merge(); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.RunEntries != 0 {
		t.Fatalf("entries after merge = %d, want 0 (tombstone dropped)", st.RunEntries)
	}
}

func TestScanRange(t *testing.T) {
	tr := openTest(t, Options{})
	for i := 0; i < 100; i++ {
		tr.Put([]byte(fmt.Sprintf("k%03d", i)), []byte{byte(i)})
	}
	tr.Flush()
	for i := 100; i < 200; i++ {
		tr.Put([]byte(fmt.Sprintf("k%03d", i)), []byte{byte(i)})
	}
	var keys []string
	err := tr.Scan([]byte("k050"), []byte("k150"), func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 100 {
		t.Fatalf("scan returned %d keys, want 100", len(keys))
	}
	if keys[0] != "k050" || keys[99] != "k149" {
		t.Fatalf("scan bounds: first=%s last=%s", keys[0], keys[99])
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("scan out of order at %d: %s <= %s", i, keys[i], keys[i-1])
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr := openTest(t, Options{})
	for i := 0; i < 50; i++ {
		tr.Put([]byte(fmt.Sprintf("k%02d", i)), nil)
	}
	n := 0
	tr.Scan(nil, nil, func(k, v []byte) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("early stop scanned %d, want 10", n)
	}
}

func TestScanSeesNewestVersion(t *testing.T) {
	tr := openTest(t, Options{})
	tr.Put([]byte("k"), []byte("v1"))
	tr.Flush()
	tr.Put([]byte("k"), []byte("v2"))
	tr.Flush()
	tr.Put([]byte("k"), []byte("v3")) // in memtable
	var got string
	tr.Scan(nil, nil, func(k, v []byte) bool { got = string(v); return true })
	if got != "v3" {
		t.Fatalf("scan returned version %q, want v3", got)
	}
	n, _ := tr.Len()
	if n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	tr, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		tr.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	tr.Delete([]byte("k050"))
	// Simulate a crash: close file handles without flushing the memtable.
	tr.mu.Lock()
	tr.wal.f.Close()
	tr.mu.Unlock()

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	v, ok, _ := re.Get([]byte("k099"))
	if !ok || string(v) != "v99" {
		t.Fatalf("recovered Get(k099) = %q, %v", v, ok)
	}
	if _, ok, _ := re.Get([]byte("k050")); ok {
		t.Fatal("recovered tree resurrected deleted key")
	}
	n, _ := re.Len()
	if n != 99 {
		t.Fatalf("recovered Len = %d, want 99", n)
	}
}

func TestWALTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	tr, _ := Open(Options{Dir: dir})
	tr.Put([]byte("good"), []byte("1"))
	tr.mu.Lock()
	// Append garbage simulating a torn write.
	tr.wal.f.Write([]byte{0xde, 0xad, 0xbe})
	tr.wal.f.Close()
	tr.mu.Unlock()

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok, _ := re.Get([]byte("good")); !ok {
		t.Fatal("valid record before torn tail lost")
	}
}

func TestRunsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	tr, _ := Open(Options{Dir: dir})
	for i := 0; i < 100; i++ {
		tr.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	tr.Flush()
	tr.Close()

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	n, _ := re.Len()
	if n != 100 {
		t.Fatalf("reopened Len = %d, want 100", n)
	}
}

func TestClosedTreeRejectsOps(t *testing.T) {
	tr := openTest(t, Options{})
	tr.Close()
	if err := tr.Put([]byte("k"), nil); err == nil {
		t.Fatal("Put on closed tree succeeded")
	}
	if _, _, err := tr.Get([]byte("k")); err == nil {
		t.Fatal("Get on closed tree succeeded")
	}
	if err := tr.Scan(nil, nil, nil); err == nil {
		t.Fatal("Scan on closed tree succeeded")
	}
}

// TestPropertyModelCheck drives random operation sequences — single puts and
// deletes, batches with in-batch duplicates and put-then-delete of one key,
// Flush, Merge, ranged scans, and close + reopen of the same directory —
// against a map model. Every key of the keyspace is probed and a full scan
// compared every 25 operations, so a divergence is caught near the operation
// that caused it. The seeds are fixed: it is the same test on every machine,
// and a failure names its seed in the subtest.
//
// Odd seeds write one 40-key window over and over, so every run overlaps
// every other and merges take the whole list. Even seeds slide an 8-key
// window up the keyspace, one key per operation — the shape of a feed of
// ascending ids — so runs go out of range of older ones, merges stop short
// of the oldest run, and one delete in four reaches back for a key written
// long ago: the tombstones such a merge must keep.
//
// Every fourth seed alternates that with phases of 50 operations that write
// only at and just above the highest key so far. A flush there extends the
// newest run's file when its keys all lie above that run, starts a new file
// when one of them is the run's own last key or a delete reached back, and
// forced and tier merges fold the segments in between. One operation in
// twenty of those phases parks a merge just before it publishes and lets a
// flush of higher keys go by: the flush must leave the merge's inputs alone.
// (Mutation-checked: extending when the lowest key equals the run's last, or
// while the run is a merge input, fails these seeds.)
// checkPushed asserts that the gauges of m, shared by trees and nothing else,
// read the sum of what the trees hold — the fields Tree.Stats reports as
// MemtableBytes, Immutables and CompactionDebt, nothing for a closed tree.
// Every tree's lock is held across the comparison, so a background flush or
// merge cannot publish between the two reads.
func checkPushed(t *testing.T, step string, m *Metrics, trees ...*Tree) {
	t.Helper()
	var want treeLoad
	for _, tr := range trees {
		tr.mu.RLock()
		defer tr.mu.RUnlock()
		if tr.closed {
			continue
		}
		want.memBytes += tr.mem.size()
		for _, task := range tr.imms {
			want.memBytes += task.mem.size()
		}
		want.imms += len(tr.imms)
		want.debt += tr.plan.debt
	}
	got := treeLoad{int(m.MemtableBytes.Value()), int(m.Immutables.Value()), int(m.CompactionDebt.Value())}
	if got != want {
		t.Fatalf("%s: pushed gauges %+v, the trees hold %+v", step, got, want)
	}
}

func TestPropertyModelCheck(t *testing.T) {
	const keyspace, ops = 320, 300
	keyOf := func(i int) string { return fmt.Sprintf("k%03d", i) }
	// partial counts the merges whose window stopped short of the oldest run
	// — the merges that must keep their tombstones. Only a merge whose window
	// ends at the oldest run replaces its file, so the merges published
	// between two looks at a tree that find the same oldest file were all
	// partial (a look that finds it changed counts none of them).
	partial := 0
	type look struct {
		tr     *Tree
		merges int
		oldest *runFile
	}
	var last look
	notePartial := func(tr *Tree) {
		tr.mu.RLock()
		defer tr.mu.RUnlock()
		now := look{tr: tr, merges: tr.merges}
		if n := len(tr.set.runs); n > 0 {
			now.oldest = tr.set.runs[n-1].runFile
		}
		if now.tr == last.tr && now.oldest == last.oldest {
			partial += now.merges - last.merges
		}
		last = now
	}
	asc := &Metrics{} // of the seeds with ascending phases
	races := 0
	defer func() {
		t.Logf("%d partial merges observed across the seeds", partial)
		if !t.Failed() && partial < 5 {
			t.Fatalf("the seeds performed %d partial merges; the model check must exercise them", partial)
		}
		ext, fl, mg := asc.Extends.Value(), asc.Flushes.Value(), asc.Merges.Value()
		t.Logf("ascending phases: %d flushes, %d of them extends, %d merges, %d flushes beside a parked merge", fl, ext, mg, races)
		if !t.Failed() && (ext < 20 || fl-ext < 20 || mg < 20 || races < 5) {
			t.Fatalf("the ascending phases must interleave extends, new files and merges")
		}
	}()
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			opt := Options{Dir: t.TempDir(), MemtableBytes: 1 << 10, MaxRuns: 2, Metrics: &Metrics{}}
			// park, when armed, stops the next merge after it has read its
			// inputs and before it publishes, until release.
			var armed atomic.Bool
			parked, release := make(chan struct{}), make(chan struct{})
			if seed%4 == 0 {
				opt.Metrics = asc
				opt.FaultHook = func(op string) error {
					if op == "merge:bg" && armed.CompareAndSwap(true, false) {
						parked <- struct{}{}
						<-release
					}
					return nil
				}
			}
			tr, err := Open(opt)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				tr.Close()
				checkPushed(t, "after the last Close", opt.Metrics, tr)
			}()
			model := map[string]string{}
			r := rand.New(rand.NewSource(seed))

			// sorted returns the model's live pairs with from <= key < to.
			sorted := func(from, to string) [][2]string {
				var out [][2]string
				for k, v := range model {
					if k >= from && (to == "" || k < to) {
						out = append(out, [2]string{k, v})
					}
				}
				sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
				return out
			}
			checkScan := func(op int, from, to string) {
				t.Helper()
				var toKey []byte
				if to != "" {
					toKey = []byte(to)
				}
				var got [][2]string
				err := tr.Scan([]byte(from), toKey, func(k, v []byte) bool {
					got = append(got, [2]string{string(k), string(v)})
					return true
				})
				if err != nil {
					t.Fatalf("op %d: Scan(%q, %q): %v", op, from, to, err)
				}
				if want := sorted(from, to); !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d: Scan(%q, %q) = %v, model %v", op, from, to, got, want)
				}
			}
			checkAll := func(op int) {
				t.Helper()
				for i := 0; i < keyspace; i++ {
					k := keyOf(i)
					want, live := model[k]
					v, ok, err := tr.Get([]byte(k))
					if err != nil || ok != live || string(v) != want {
						t.Fatalf("op %d: Get(%s) = %q,%v,%v; model %q,%v", op, k, v, ok, err, want, live)
					}
					// View answers the same, with the value in place.
					same := !live
					ok, err = tr.View([]byte(k), func(v []byte) { same = string(v) == want })
					if err != nil || ok != live || !same {
						t.Fatalf("op %d: View(%s) = %v,%v, value as modelled %v; model %q,%v", op, k, ok, err, same, want, live)
					}
				}
				checkScan(op, "", "")
			}

			// flushed waits until the flusher has nothing queued or uncommitted.
			flushed := func(op int) {
				t.Helper()
				for {
					tr.mu.Lock()
					idle, bgErr, ch := len(tr.imms) == 0 && tr.committed == tr.flushes, tr.bgErr, tr.stateC
					tr.mu.Unlock()
					if bgErr != nil {
						t.Fatalf("op %d: %v", op, bgErr)
					}
					if idle {
						return
					}
					<-ch
				}
			}
			top := 0 // the highest key index written so far
			for op := 1; op <= ops; op++ {
				lo, width := 0, 40
				if seed%2 == 0 {
					lo, width = op, 8
				}
				ascending := seed%4 == 0 && (op/50)%2 == 1
				if ascending {
					lo, width = top, 3
				}
				idx := lo + r.Intn(width)
				key := keyOf(idx)
				kind := r.Intn(20)
				if kind == 9 && !ascending {
					kind = 10
				}
				switch kind {
				case 0, 1:
					if r.Intn(4) == 0 {
						key = keyOf(r.Intn(lo + width))
					} else {
						top = max(top, idx)
					}
					if err := tr.Delete([]byte(key)); err != nil {
						t.Fatalf("op %d: Delete: %v", op, err)
					}
					delete(model, key)
				case 2, 3:
					if err := tr.Flush(); err != nil {
						t.Fatalf("op %d: Flush: %v", op, err)
					}
				case 4:
					if err := tr.Merge(); err != nil {
						t.Fatalf("op %d: Merge: %v", op, err)
					}
				case 5, 6:
					// A batch over a narrow key window so duplicates are
					// certain: the last op per key wins, and one key is put
					// and then deleted within the batch.
					b := NewBatch(8)
					base := lo + r.Intn(max(width-3, 1))
					top = max(top, idx)
					for i := 0; i < 6; i++ {
						ki := base + r.Intn(3)
						top = max(top, ki)
						k := keyOf(ki)
						v := fmt.Sprintf("b%d", r.Intn(1000))
						b.Put([]byte(k), []byte(v))
						model[k] = v
					}
					b.Put([]byte(key), []byte("doomed"))
					b.Delete([]byte(key))
					delete(model, key)
					if err := tr.ApplyBatch(b); err != nil {
						t.Fatalf("op %d: ApplyBatch: %v", op, err)
					}
				case 7:
					from, to := r.Intn(keyspace), r.Intn(keyspace+1)
					if from > to {
						from, to = to, from
					}
					checkScan(op, keyOf(from), keyOf(to))
				case 8:
					if err := tr.Close(); err != nil {
						t.Fatalf("op %d: Close: %v", op, err)
					}
					checkPushed(t, fmt.Sprintf("op %d: closed", op), opt.Metrics, tr)
					if tr, err = Open(opt); err != nil {
						t.Fatalf("op %d: reopen: %v", op, err)
					}
				case 9:
					// A flush of keys above every run, beside a parked merge.
					armed.Store(true)
					merged := make(chan error, 1)
					go func(tr *Tree) { merged <- tr.Merge() }(tr)
					select {
					case err = <-merged: // nothing to merge
						armed.Store(false)
					case <-parked:
						races++
						flushed(op)
						for i := 1; i <= 3; i++ {
							k, v := keyOf(top+i), fmt.Sprintf("r%d", op)
							if err := tr.Put([]byte(k), []byte(v)); err != nil {
								t.Fatalf("op %d: Put: %v", op, err)
							}
							model[k] = v
						}
						top += 3
						tr.mu.Lock()
						err = tr.rotateLocked()
						tr.mu.Unlock()
						if err != nil {
							t.Fatalf("op %d: rotate: %v", op, err)
						}
						flushed(op)
						release <- struct{}{}
						err = <-merged
					}
					if err != nil {
						t.Fatalf("op %d: Merge: %v", op, err)
					}
				default:
					val := fmt.Sprintf("v%d", r.Intn(1000))
					if err := tr.Put([]byte(key), []byte(val)); err != nil {
						t.Fatalf("op %d: Put: %v", op, err)
					}
					model[key] = val
					top = max(top, idx)
				}
				notePartial(tr)
				checkPushed(t, fmt.Sprintf("op %d", op), opt.Metrics, tr)
				if op%25 == 0 {
					checkAll(op)
				}
			}
		})
	}
}

func TestRunOpenRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run-000001.lsm")
	if err := writeFile(path, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	if _, err := openRun(path, runConfig{}, 0); err == nil {
		t.Fatal("openRun accepted corrupt file")
	}
}

func writeFile(path string, data []byte) error {
	return osWriteFile(path, data)
}

func BenchmarkPut(b *testing.B) {
	tr, err := Open(Options{Dir: b.TempDir(), MemtableBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	key := make([]byte, 16)
	val := bytes.Repeat([]byte{'v'}, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(key, fmt.Sprintf("key-%012d", i))
		if err := tr.Put(key, val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetFromRuns(b *testing.B) {
	tr, err := Open(Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < 10000; i++ {
		tr.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte("value"))
	}
	tr.Flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := []byte(fmt.Sprintf("key-%06d", i%10000))
		if _, ok, err := tr.Get(k); err != nil || !ok {
			b.Fatal("miss")
		}
	}
}

// missRuns opens a tree with no block cache and flushes 8 runs of
// missRunKeys keys each, key%05d-run<r>: the runs overlap, so every key
// key%05d-absent lies inside every run's fences and each run is asked about
// it.
func missRuns(tb testing.TB, m *Metrics) *Tree {
	tb.Helper()
	tr, err := Open(Options{Dir: tb.TempDir(), MaxRuns: 16, Metrics: m})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { tr.Close() })
	for run := 0; run < 8; run++ {
		for i := 0; i < missRunKeys; i++ {
			if err := tr.Put([]byte(fmt.Sprintf("key%05d-run%d", i, run)), []byte("v")); err != nil {
				tb.Fatal(err)
			}
		}
		if err := tr.Flush(); err != nil {
			tb.Fatal(err)
		}
	}
	if st := tr.Stats(); st.Runs != 8 {
		tb.Fatalf("%d runs, want 8", st.Runs)
	}
	return tr
}

// missRunKeys is the keys in each of missRuns' runs.
const missRunKeys = 2000

// absentKey is the i-th key between missRuns' keys.
func absentKey(i int) []byte { return []byte(fmt.Sprintf("key%05d-absent", i)) }

// TestSegmentFiltersPassFewAbsentKeys: 2 000 absent keys, each inside the
// fences of 8 runs of 2 000 keys, ask 16 000 segment filters, and at most
// 1 % of those asks may read a block. The classic Bloom filter the runs kept
// before format 04, sized for 1 % at 9.6 bits a key, let 911 through.
func TestSegmentFiltersPassFewAbsentKeys(t *testing.T) {
	m := &Metrics{}
	tr := missRuns(t, m)
	before := m.BlockReads.Value()
	for i := 0; i < missRunKeys; i++ {
		if ok, err := tr.View(absentKey(i), func([]byte) {}); err != nil || ok {
			t.Fatalf("View(%s) = %v, %v", absentKey(i), ok, err)
		}
	}
	const probes = 8 * missRunKeys
	if reads := m.BlockReads.Value() - before; reads > probes/100 {
		t.Fatalf("%d absent keys read %d blocks from 8 runs: %.2f %% of %d filter asks passed, want at most 1 %%", missRunKeys, reads, 100*float64(reads)/probes, probes)
	} else {
		t.Logf("%d of %d filter asks read a block", reads, probes)
	}
}

// BenchmarkGetMissWithBloom and BenchmarkGetMissWithoutBloom ablate the
// runs' key filters on point lookups that miss all of missRuns' 8
// runs: with filters a miss reads almost no block, without them one per run.
func BenchmarkGetMissWithBloom(b *testing.B) {
	benchGetMiss(b, true)
}

func BenchmarkGetMissWithoutBloom(b *testing.B) {
	benchGetMiss(b, false)
}

func benchGetMiss(b *testing.B, filtered bool) {
	tr := missRuns(b, nil)
	if !filtered {
		// Defeat the filters: the zero filter answers "maybe" to every key.
		tr.mu.Lock()
		for _, r := range tr.set.runs {
			for i := range r.segs {
				r.segs[i].filter = keyFilter{}
			}
		}
		tr.mu.Unlock()
	}
	absent := make([][]byte, missRunKeys)
	for i := range absent {
		absent[i] = absentKey(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, err := tr.View(absent[i%missRunKeys], func([]byte) {}); err != nil || ok {
			b.Fatal("unexpected hit")
		}
	}
}
