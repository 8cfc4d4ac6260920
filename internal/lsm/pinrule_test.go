package lsm

import (
	"bytes"
	"fmt"
	"testing"
)

// extraPins counts the resident entries of c that hold a pin besides the
// cache's own, and the entries resident. At quiescence every reader has
// released, so the first count must be zero.
func extraPins(c *BlockCache) (pinned, resident int) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, e := range s.entries {
			if e.refs.Load() != 1 {
				pinned++
			}
		}
		resident += len(s.entries)
		s.mu.Unlock()
	}
	return pinned, resident
}

// TestEveryReadReleasesItsPins holds scans and merges to the point read's
// rule: a block is pinned while it is read and released after. A 512 KiB
// cache of 1 KiB blocks is filled by a scan of four overlapping runs of
// 1 000 keys, which a merge then rewrites into one. After the merge, after
// point reads of every key, and after a Len scan, no resident block may hold
// a pin but the cache's; and the point reads' misses, each evicting a block
// the merge read, must borrow at least 90 % of their buffers rather than
// make them. A merge or a scan that pinned its blocks for good would leave
// them pinned and every later miss allocating.
func TestEveryReadReleasesItsPins(t *testing.T) {
	cache := NewBlockCache(512 << 10)
	tr := openTest(t, Options{MemtableBytes: 1 << 20, MaxRuns: 8, BlockBytes: 1 << 10, BlockCache: cache})
	const nkeys = 1000
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
	for v := 0; v < 4; v++ {
		for i := 0; i < nkeys; i++ {
			if err := tr.Put(key(i), append([]byte(fmt.Sprintf("v%d|", v)), bytes.Repeat([]byte{'x'}, 128)...)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if runs := tr.Stats().Runs; runs != 4 {
		t.Fatalf("%d runs before the merge, want 4", runs)
	}
	check := func(after string) {
		t.Helper()
		pinned, resident := extraPins(cache)
		t.Logf("after %s: %d of %d resident blocks pinned by a reader", after, pinned, resident)
		if pinned != 0 {
			t.Errorf("after %s, %d of %d resident blocks still hold a reader's pin", after, pinned, resident)
		}
	}
	if n, err := tr.Len(); err != nil || n != nkeys {
		t.Fatalf("Len = %d, %v; want %d", n, err, nkeys)
	}
	check("a scan of the four runs")
	if err := tr.Merge(); err != nil {
		t.Fatal(err)
	}
	if runs := tr.Stats().Runs; runs != 1 {
		t.Fatalf("%d runs after the merge, want 1", runs)
	}
	check("the merge")

	before := cache.Stats()
	for i := 0; i < nkeys; i++ {
		if v, ok, err := tr.Get(key(i)); err != nil || !ok || !bytes.HasPrefix(v, []byte("v3|")) {
			t.Fatalf("Get(%s) = %.8q, %v, %v", key(i), v, ok, err)
		}
	}
	after := cache.Stats()
	misses, made := after.Misses-before.Misses, after.BufferAllocs-before.BufferAllocs
	t.Logf("point reads after the merge: %d misses, %d buffers made, %d borrowed", misses, made, misses-made)
	if misses < 100 {
		t.Fatalf("only %d point reads missed the cache", misses)
	}
	if 10*(misses-made) < 9*misses {
		t.Errorf("the point reads' %d misses borrowed %d buffers and made %d: want at least 90 %% borrowed", misses, misses-made, made)
	}
	check("the point reads")
	if n, err := tr.Len(); err != nil || n != nkeys {
		t.Fatalf("Len = %d, %v; want %d", n, err, nkeys)
	}
	check("a Len scan")
}
