package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSnapshotConsistencyUnderPipeline hammers Get/Scan while writers force
// continuous rotations and explicit Flush/Merge calls force the background
// pipeline through every transition. Readers check the guarantees snapshots
// must provide:
//
//   - a scan yields strictly increasing keys (no duplicate or reordered
//     versions leaking from overlapping memtables/runs);
//   - every key committed before a scan starts is present in it;
//   - per reader, a repeatedly-read key's version never goes backwards
//     (versions only grow, and each Get sees a consistent snapshot at least
//     as new as the last);
//   - tombstones are honored: a key whose delete committed before a scan
//     started never resurrects in it, no matter which memtable or run
//     currently holds its older versions.
//
// Run under -race this also shakes out unsynchronized access between the
// write path, the flusher, the compactor, and lock-free disk reads.
func TestSnapshotConsistencyUnderPipeline(t *testing.T) {
	m := &Metrics{}
	tr := openTest(t, Options{MemtableBytes: 4 << 10, MaxImmutables: 4, MaxRuns: 2, Metrics: m})
	const writers, perWriter = 2, 2500
	var committed [writers]atomic.Int64
	var wg sync.WaitGroup
	var failed atomic.Bool
	fail := func(format string, a ...any) {
		failed.Store(true)
		t.Errorf(format, a...)
	}

	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter && !failed.Load(); i++ {
				key := []byte(fmt.Sprintf("w%d-%08d", w, i))
				if err := tr.Put(key, []byte(fmt.Sprintf("v%d", i))); err != nil {
					fail("Put: %v", err)
					return
				}
				committed[w].Store(int64(i + 1))
			}
		}()
	}
	// A shared key overwritten with strictly increasing versions: readers
	// verify the version visible to them never moves backwards.
	version := make([]byte, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < perWriter && !failed.Load(); i++ {
			binary.BigEndian.PutUint64(version, uint64(i+1))
			if err := tr.Put([]byte("shared"), version); err != nil {
				fail("Put shared: %v", err)
				return
			}
		}
	}()
	// Tombstone churn: write a key, then delete it. delCommitted counts
	// fully committed delete pairs; readers assert none of those keys
	// resurrect.
	var delCommitted atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < perWriter/4 && !failed.Load(); i++ {
			key := []byte(fmt.Sprintf("d-%08d", i))
			if err := tr.Put(key, []byte("doomed")); err != nil {
				fail("Put doomed: %v", err)
				return
			}
			if err := tr.Delete(key); err != nil {
				fail("Delete: %v", err)
				return
			}
			delCommitted.Store(int64(i + 1))
		}
	}()
	// Force the pipeline through explicit full flushes and merges while
	// writes flow, on top of the organic rotations.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20 && !failed.Load(); i++ {
			if err := tr.Flush(); err != nil {
				fail("Flush: %v", err)
				return
			}
			if err := tr.Merge(); err != nil {
				fail("Merge: %v", err)
				return
			}
		}
	}()

	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastShared uint64
			for i := 0; i < 40 && !failed.Load(); i++ {
				// Committed-before-scan floor per writer.
				var floor [writers]int64
				for w := range floor {
					floor[w] = committed[w].Load()
				}
				delFloor := delCommitted.Load()
				var seen [writers]int64
				var prev []byte
				err := tr.Scan(nil, nil, func(k, v []byte) bool {
					if prev != nil && bytes.Compare(prev, k) >= 0 {
						fail("scan keys not strictly increasing: %q then %q", prev, k)
						return false
					}
					prev = append(prev[:0], k...)
					var w, n int
					if c, _ := fmt.Sscanf(string(k), "w%d-%08d", &w, &n); c == 2 {
						seen[w]++
						if want := fmt.Sprintf("v%d", n); string(v) != want {
							fail("scan %q = %q, want %q", k, v, want)
							return false
						}
					} else if c, _ := fmt.Sscanf(string(k), "d-%08d", &n); c == 1 && int64(n) < delFloor {
						fail("deleted key %q resurrected in scan", k)
						return false
					}
					return true
				})
				if err != nil {
					fail("Scan: %v", err)
					return
				}
				for w := range floor {
					if seen[w] < floor[w] {
						fail("scan saw %d of writer %d's records, %d committed before it started", seen[w], w, floor[w])
						return
					}
				}
				if v, ok, err := tr.Get([]byte("shared")); err != nil {
					fail("Get shared: %v", err)
					return
				} else if ok {
					got := binary.BigEndian.Uint64(v)
					if got < lastShared {
						fail("shared key went backwards: %d after %d", got, lastShared)
						return
					}
					lastShared = got
				}
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		return
	}

	if m.Flushes.Value() == 0 || m.Merges.Value() == 0 {
		t.Fatalf("pipeline not exercised: %d flushes, %d merges", m.Flushes.Value(), m.Merges.Value())
	}
	n, err := tr.Len()
	if err != nil {
		t.Fatal(err)
	}
	if want := writers*perWriter + 1; n != want {
		t.Fatalf("Len = %d, want %d", n, want)
	}
}

// TestConcurrentReadsWithCacheUnderPipeline is the block-cache half of the
// pipeline hammer: concurrent Get/Scan traffic against a deliberately tiny
// shared cache while rotations, flushes, and compactions churn the run set
// underneath it. The cache ledger must hold at every instant a racing
// observer can sample it:
//
//   - resident Bytes never exceed Capacity (eviction happens inside the
//     insert's critical section, never after);
//   - Hits+Misses never exceed Lookups (a lookup is counted before its
//     outcome);
//   - the free list never holds more than one shard's budget;
//
// and at quiescence the books must balance exactly: Hits+Misses == Lookups,
// every resident block holds the cache's pin alone (scans and merges
// released theirs), with a nonzero hit count (re-read blocks were served
// from memory) and nonzero evictions (the tiny budget was actually
// enforced). Because run IDs
// are process-unique and run files immutable, compaction needs no cache
// invalidation — stale blocks just age out — which is exactly what this test
// stresses by merging while readers hold hot keys.
func TestConcurrentReadsWithCacheUnderPipeline(t *testing.T) {
	cache := NewBlockCache(32 << 10) // tiny: forces eviction churn
	tr := openTest(t, Options{
		MemtableBytes: 4 << 10,
		MaxImmutables: 4,
		MaxRuns:       2,
		BlockBytes:    1 << 10,
		BlockCache:    cache,
	})
	const writers, perWriter = 2, 1500
	var committed [writers]atomic.Int64
	var wg sync.WaitGroup
	var failed atomic.Bool
	fail := func(format string, a ...any) {
		failed.Store(true)
		t.Errorf(format, a...)
	}

	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter && !failed.Load(); i++ {
				key := []byte(fmt.Sprintf("w%d-%08d", w, i))
				if err := tr.Put(key, bytes.Repeat([]byte{'v'}, 48)); err != nil {
					fail("Put: %v", err)
					return
				}
				committed[w].Store(int64(i + 1))
			}
		}()
	}
	// Pipeline forcer: churn the run set so readers race promotions and
	// compactions retiring the very runs whose blocks they have cached.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15 && !failed.Load(); i++ {
			if err := tr.Flush(); err != nil {
				fail("Flush: %v", err)
				return
			}
			if err := tr.Merge(); err != nil {
				fail("Merge: %v", err)
				return
			}
		}
	}()
	// Readers: re-read a rotating window of committed keys (same blocks twice
	// → cache hits) plus periodic full scans (block-at-a-time iteration).
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30 && !failed.Load(); i++ {
				for w := 0; w < writers; w++ {
					max := committed[w].Load()
					if max == 0 {
						continue
					}
					for _, n := range []int64{0, max / 2, max - 1, max / 2, 0} {
						key := []byte(fmt.Sprintf("w%d-%08d", w, n))
						if _, ok, err := tr.Get(key); err != nil {
							fail("Get %q: %v", key, err)
							return
						} else if !ok {
							fail("committed key %q missing", key)
							return
						}
					}
				}
				if i%5 == 0 {
					count := 0
					if err := tr.Scan(nil, nil, func(k, v []byte) bool {
						count++
						return true
					}); err != nil {
						fail("Scan: %v", err)
						return
					}
				}
			}
		}()
	}
	// Ledger poller: sample the cache while everything above races it.
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stopPoll:
				return
			default:
			}
			s := cache.Stats()
			if s.Bytes > s.Capacity {
				fail("cache over budget mid-race: %d resident, %d capacity", s.Bytes, s.Capacity)
				return
			}
			if free := cache.freeBytes.Load(); free > cache.shardCap() {
				fail("free list unbounded mid-race: %d bytes, bound %d", free, cache.shardCap())
				return
			}
			if s.Hits+s.Misses > s.Lookups {
				fail("ledger overflow mid-race: hits=%d misses=%d lookups=%d", s.Hits, s.Misses, s.Lookups)
				return
			}
		}
	}()

	wg.Wait()
	close(stopPoll)
	pollWG.Wait()
	if failed.Load() {
		return
	}

	// Quiescence: push everything to disk, then read every committed key,
	// twice. A pass reads 3 000 × 48 B of values through a 32 KiB cache, so it
	// must evict, however little the racing readers got to read; consecutive
	// keys share a 1 KiB block, so all but a block's first read must hit.
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for w := 0; w < writers; w++ {
			for n := 0; n < perWriter; n++ {
				key := []byte(fmt.Sprintf("w%d-%08d", w, n))
				if _, ok, err := tr.Get(key); err != nil || !ok {
					t.Fatalf("quiescent Get %q: ok=%v err=%v", key, ok, err)
				}
			}
		}
	}
	s := cache.Stats()
	if s.Hits+s.Misses != s.Lookups {
		t.Fatalf("ledger does not balance at quiescence: hits=%d misses=%d lookups=%d", s.Hits, s.Misses, s.Lookups)
	}
	if pinned, resident := extraPins(cache); pinned != 0 {
		t.Fatalf("pins do not balance at quiescence: %d of %d resident blocks hold a reader's pin", pinned, resident)
	}
	if s.Hits == 0 {
		t.Fatal("no cache hits despite systematic re-reads")
	}
	if s.Evictions == 0 {
		t.Fatal("no evictions despite a 32 KiB cache under multi-run load")
	}
	if s.Bytes > s.Capacity {
		t.Fatalf("resident %d exceeds capacity %d at quiescence", s.Bytes, s.Capacity)
	}
	n, err := tr.Len()
	if err != nil {
		t.Fatal(err)
	}
	if want := writers * perWriter; n != want {
		t.Fatalf("Len = %d, want %d", n, want)
	}
}

// TestBackpressureBoundsImmutableQueue blocks the background flusher and
// keeps writing: rotations must queue up to exactly MaxImmutables, further
// writers must stall (counted in Metrics.WriteStalls) rather than queue
// without bound, and unblocking the flusher must release them with nothing
// lost.
func TestBackpressureBoundsImmutableQueue(t *testing.T) {
	release := make(chan struct{})
	hook := func(op string) error {
		if op == "flush:bg" {
			<-release
		}
		return nil
	}
	m := &Metrics{}
	tr := openTest(t, Options{Dir: t.TempDir(), MemtableBytes: 1 << 10, MaxImmutables: 2, FaultHook: hook, Metrics: m})

	const records = 200
	val := bytes.Repeat([]byte{'v'}, 64)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < records; i++ {
			if err := tr.Put([]byte(fmt.Sprintf("k%06d", i)), val); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	// The writer outruns the blocked flusher almost immediately; wait for
	// the stall to register, checking the queue bound as it fills.
	stalled := false
	for !stalled {
		select {
		case err := <-done:
			t.Fatalf("writer finished without stalling (err=%v); raise the record count", err)
		default:
		}
		s := tr.Stats()
		if s.Immutables > 2 {
			t.Fatalf("immutable queue grew to %d, bound is 2", s.Immutables)
		}
		stalled = m.WriteStalls.Value() > 0
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("writer after release: %v", err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	n, err := tr.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != records {
		t.Fatalf("Len = %d, want %d: stalled writes were lost", n, records)
	}
}

// TestPushedGaugesFollowTheTrees holds two trees sharing one Metrics in the
// states the model check passes through too quickly to observe: frozen
// memtables queued behind a blocked flusher, a wedged tree (which keeps what
// it holds), one tree closed beside one open, and a reopen that replays an
// unflushed tail. In each the gauges must read what the trees hold.
func TestPushedGaugesFollowTheTrees(t *testing.T) {
	m := &Metrics{}
	release, fail := make(chan struct{}), errors.New("disk gone")
	var wedge atomic.Bool
	optA := Options{Dir: t.TempDir(), MemtableBytes: 1 << 10, MaxImmutables: 2, Metrics: m, FaultHook: func(op string) error {
		if op == "flush:bg" {
			<-release
			if wedge.Load() {
				return fail
			}
		}
		return nil
	}}
	a := openTest(t, optA)
	optB := Options{Dir: t.TempDir(), MemtableBytes: 1 << 10, Metrics: m}
	b := openTest(t, optB)

	val := bytes.Repeat([]byte{'v'}, 64)
	for i := 0; a.Stats().Immutables < 2; i++ {
		if err := a.Put([]byte(fmt.Sprintf("a%06d", i)), val); err != nil {
			t.Fatal(err)
		}
		checkPushed(t, "filling a", m, a, b)
	}
	fill(t, b, 0, 100, "b")
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	fill(t, b, 100, 5, "tail")
	checkPushed(t, "a's flusher blocked on two frozen memtables", m, a, b)
	if m.Immutables.Value() != 2 || m.MemtableBytes.Value() < 2<<10 {
		t.Fatalf("gauges read %d immutables, %d memtable bytes with two full memtables queued",
			m.Immutables.Value(), m.MemtableBytes.Value())
	}

	wedge.Store(true)
	close(release)
	for a.Put([]byte("late"), val) == nil {
	}
	checkPushed(t, "a wedged", m, a, b)
	if m.Immutables.Value() != 2 {
		t.Fatalf("a wedged tree still queues its memtables; the gauge reads %d", m.Immutables.Value())
	}

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	checkPushed(t, "a closed, b open", m, a, b)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	checkPushed(t, "both closed", m, a, b)

	b = openTest(t, optB)
	checkPushed(t, "b reopened over its unflushed tail", m, a, b)
	if m.MemtableBytes.Value() == 0 {
		t.Fatal("the recovery memtable was not published")
	}
}

// TestCrashDuringBackgroundFlushRecoversExactly is the unit-level version of
// the chaos harness's recovery-exactness invariant: a torn write during a
// background flush (the crash happens after the run's bytes are written but
// before the rename publishes it) wedges the tree with half-written debris
// on disk. A reopen must recover exactly the acknowledged records from the
// retained WAL segments — no loss, no phantoms from the torn run — and
// sweep the debris.
func TestCrashDuringBackgroundFlushRecoversExactly(t *testing.T) {
	dir := t.TempDir()
	tr, err := Open(Options{Dir: dir, SyncWAL: 1, MemtableBytes: 1 << 10, FaultHook: hookOn("flush:bg", 1, ErrTornWrite)})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{'v'}, 64)
	acked := make(map[string]bool)
	var wedged error
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("k%06d", i)
		if err := tr.Put([]byte(key), val); err != nil {
			wedged = err
			break
		}
		acked[key] = true
	}
	if wedged == nil {
		t.Fatal("tree never wedged; flush:bg fault did not fire")
	}
	if !errors.Is(wedged, ErrTornWrite) {
		t.Fatalf("wedge error = %v, want ErrTornWrite", wedged)
	}
	if err := tr.Put([]byte("late"), val); err == nil {
		t.Fatal("wedged tree accepted a mutation")
	}
	// Reads survive the wedge.
	if _, ok, err := tr.Get([]byte("k000000")); err != nil || !ok {
		t.Fatalf("Get on wedged tree = %v, %v", ok, err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "run-*.lsm.tmp")); len(tmps) == 0 {
		t.Fatal("torn background flush left no debris; fault not exercised as intended")
	}

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	n, err := re.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(acked) {
		t.Fatalf("recovered %d records, want exactly the %d acknowledged", n, len(acked))
	}
	for key := range acked {
		if _, ok, err := re.Get([]byte(key)); err != nil || !ok {
			t.Fatalf("acknowledged record %q lost in recovery (ok=%v err=%v)", key, ok, err)
		}
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "run-*.lsm.tmp")); len(tmps) != 0 {
		t.Fatalf("reopen left debris behind: %v", tmps)
	}
}

// TestWALSegmentLifecycle: rotation opens a fresh segment per memtable and
// the flusher retires covered segments only after the run is durable, so a
// fully drained tree keeps only its active segment, while the data lives on
// in runs and survives reopen.
//
// Flush returns once the last run is published; the flusher deletes that
// run's segments afterwards, off the lock. Close joins the flusher, so the
// directory is inspected after Close —
// a state the tree reaches by itself, not a race with a background goroutine.
func TestWALSegmentLifecycle(t *testing.T) {
	dir := t.TempDir()
	tr, err := Open(Options{Dir: dir, MemtableBytes: 1 << 10, MaxRuns: 64})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{'v'}, 64)
	const records = 300
	for i := 0; i < records; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%06d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if s := tr.Stats(); s.Immutables != 0 {
		t.Fatalf("Flush returned with %d immutables queued", s.Immutables)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) > 1 {
		t.Fatalf("%d WAL segments after full flush and close, want only the active one: %v", len(segs), segs)
	}
	runs, _ := filepath.Glob(filepath.Join(dir, "run-*.lsm"))
	if len(runs) == 0 {
		t.Fatal("no runs on disk after flush")
	}

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n, _ := re.Len(); n != records {
		t.Fatalf("reopen Len = %d, want %d", n, records)
	}
}
