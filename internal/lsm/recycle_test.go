package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// recycleValue is key k's value at version v. It names its key and version
// and pads to a length and a byte that depend on both, so a reader handed
// bytes from any other block — or from this block before it was rewritten —
// cannot mistake them for an answer.
func recycleValue(k []byte, v int64) []byte {
	head := fmt.Sprintf("%s@%d|", k, v)
	pad := byte('a' + (int(k[len(k)-1])+int(v))%26)
	return append([]byte(head), bytes.Repeat([]byte{pad}, 24+int(v%17))...)
}

// recycleVersion checks that val is a value recycleValue made for k and
// returns its version.
func recycleVersion(k, val []byte) (int64, error) {
	at := bytes.IndexByte(val, '@')
	bar := bytes.IndexByte(val, '|')
	if at < 0 || bar < at || !bytes.Equal(val[:at], k) {
		return 0, fmt.Errorf("value %q is not one of key %q", val, k)
	}
	v, err := strconv.ParseInt(string(val[at+1:bar]), 10, 64)
	if err != nil || !bytes.Equal(val, recycleValue(k, v)) {
		return 0, fmt.Errorf("value %q of key %q is damaged", val, k)
	}
	return v, nil
}

// TestRecycledBlocksNeverLeak races every reader of the block cache against
// buffer recycling. The cache holds about one 512-byte block per shard, a
// sixth of the data, so nearly every miss evicts a block and borrows the
// buffer of one evicted earlier. Point reads are checked against a model of
// the versions committed; scans check every pair they are handed and re-check
// the one before it after the iterator has moved on, and call Get on the key
// they stand at — point reads recycling buffers while an iterator holds
// blocks. Writers, flushes and merges churn the run set throughout, and one
// block read in 256 is corrupted. No reader may ever see bytes of another
// block; under -race the detector also reports a read into a buffer a stale
// holder still reads. It fails if run.get releases its pin before copying the
// value, or if a hit does not pin.
func TestRecycledBlocksNeverLeak(t *testing.T) {
	cache := NewBlockCache(16 * 704)
	var reads atomic.Int64
	hook := func(op string) error {
		// Chosen at random, not periodically: a merge reading hundreds of
		// blocks must be able to succeed on some retry.
		if op != "read:block" {
			return nil
		}
		if reads.Add(1); rand.Intn(256) == 0 {
			return ErrCorruptRead
		}
		return nil
	}
	tr := openTest(t, Options{MemtableBytes: 4 << 10, MaxImmutables: 4, MaxRuns: 2, BlockBytes: 512, BlockCache: cache, FaultHook: hook})

	const nkeys = 600
	keys := make([][]byte, nkeys)
	var committed [nkeys]atomic.Int64 // the newest version whose Put returned
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%05d", i))
		if err := tr.Put(keys[i], recycleValue(keys[i], 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil && !errors.Is(err, ErrInjected) {
		t.Fatal(err)
	}

	var failed atomic.Bool
	fail := func(format string, a ...any) {
		failed.Store(true)
		t.Errorf(format, a...)
	}
	transient := func(err error) bool { return errors.Is(err, ErrInjected) }
	// check reads key i and holds the answer to the model: a version no
	// older than the one committed before the read and no newer than the one
	// that may have been in flight after it.
	check := func(i int) {
		lo := committed[i].Load()
		val, ok, err := tr.Get(keys[i])
		hi := committed[i].Load() + 1
		switch {
		case err != nil && transient(err):
		case err != nil:
			fail("Get %s: %v", keys[i], err)
		case !ok:
			fail("Get %s: missing", keys[i])
		default:
			if v, err := recycleVersion(keys[i], val); err != nil {
				fail("Get: %v", err)
			} else if v < lo || v > hi {
				fail("Get %s = version %d, model allows [%d, %d]", keys[i], v, lo, hi)
			}
		}
	}

	var wg sync.WaitGroup
	const writers = 2
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(w)))
			for n := 0; n < 1500 && !failed.Load(); n++ {
				i := w + writers*rnd.Intn(nkeys/writers) // each writer owns its keys
				v := committed[i].Load() + 1
				if err := tr.Put(keys[i], recycleValue(keys[i], v)); err != nil {
					fail("Put: %v", err)
					return
				}
				committed[i].Store(v)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < 10 && !failed.Load(); n++ {
			for _, op := range []func() error{tr.Flush, tr.Merge} {
				if err := op(); err != nil && !transient(err) {
					fail("pipeline: %v", err)
					return
				}
			}
		}
	}()
	for r := 0; r < 3; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(100 + r)))
			for n := 0; n < 8000 && !failed.Load(); n++ {
				check(rnd.Intn(nkeys))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < 12 && !failed.Load(); n++ {
			var prevK, prevV []byte // aliases of the block the iterator left
			seen := 0
			err := tr.Scan(nil, nil, func(k, v []byte) bool {
				if prevK != nil {
					if _, err := recycleVersion(prevK, prevV); err != nil {
						fail("scan: the pair before %q changed under it: %v", k, err)
						return false
					}
					if bytes.Compare(prevK, k) >= 0 {
						fail("scan: %q after %q", k, prevK)
						return false
					}
				}
				if _, err := recycleVersion(k, v); err != nil {
					fail("scan: %v", err)
					return false
				}
				if seen%3 == 0 {
					i, _ := strconv.Atoi(string(k[len("key-"):]))
					check(i)
					if _, err := recycleVersion(k, v); err != nil {
						fail("scan: the current pair changed under a Get: %v", err)
						return false
					}
				}
				prevK, prevV = k, v
				seen++
				return true
			})
			if err != nil && !transient(err) {
				fail("Scan: %v", err)
			}
		}
	}()
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
			if s := cache.Stats(); s.Bytes > s.Capacity {
				fail("cache over budget: %d resident, %d capacity", s.Bytes, s.Capacity)
				return
			}
			if free := cache.freeBytes.Load(); free > cache.shardCap() {
				fail("free list holds %d bytes, bound %d", free, cache.shardCap())
				return
			}
			runtime.Gosched()
		}
	}()
	wg.Wait()
	close(stopPoll)
	pollWG.Wait()

	s := cache.Stats()
	if s.Evictions == 0 || s.Hits == 0 {
		t.Fatalf("the cache never churned: %+v", s)
	}
	if s.BufferAllocs*4 > s.Misses {
		t.Errorf("%d buffers made for %d misses: the misses did not recycle", s.BufferAllocs, s.Misses)
	}
	for i := range keys {
		if failed.Load() {
			return
		}
		check(i)
	}
	t.Logf("%d lookups, %d misses, %d evictions, %d buffers made, %d block reads", s.Lookups, s.Misses, s.Evictions, s.BufferAllocs, reads.Load())
}
