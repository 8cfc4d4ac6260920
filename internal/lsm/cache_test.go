package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"asterixfeeds/internal/metrics"
)

// cached returns the bytes get finds for k, or nil, releasing the pin.
func cached(c *BlockCache, k blockKey) []byte {
	e := c.get(k)
	if e == nil {
		return nil
	}
	defer c.release(e)
	return e.data
}

// insertBytes puts data under k the way a point read does: into a borrowed
// entry, inserted, then unpinned.
func insertBytes(c *BlockCache, k blockKey, data []byte) *cacheEntry {
	e := c.borrow(len(data))
	copy(e.data, data)
	e = c.insert(k, e)
	c.release(e)
	return e
}

func TestBlockCacheHitMissLedger(t *testing.T) {
	c := NewBlockCache(1 << 20)
	k := blockKey{runID: 1, blockNo: 0}
	if got := cached(c, k); got != nil {
		t.Fatalf("get on empty cache returned %q", got)
	}
	c.put(k, []byte("block-bytes"), true)
	if got := cached(c, k); string(got) != "block-bytes" {
		t.Fatalf("get after put = %q", got)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Lookups != 2 {
		t.Fatalf("ledger hits=%d misses=%d lookups=%d, want 1/1/2", s.Hits, s.Misses, s.Lookups)
	}
	if s.Hits+s.Misses != s.Lookups {
		t.Fatalf("ledger identity broken: %d+%d != %d", s.Hits, s.Misses, s.Lookups)
	}
	if s.Bytes != int64(len("block-bytes")) {
		t.Fatalf("Bytes = %d, want %d", s.Bytes, len("block-bytes"))
	}
}

func TestBlockCacheDistinctRunsDistinctBlocks(t *testing.T) {
	c := NewBlockCache(1 << 20)
	c.put(blockKey{runID: 1, blockNo: 0}, []byte("r1b0"), true)
	c.put(blockKey{runID: 1, blockNo: 1}, []byte("r1b1"), true)
	insertBytes(c, blockKey{runID: 2, blockNo: 0}, []byte("r2b0"))
	for _, tc := range []struct {
		k    blockKey
		want string
	}{
		{blockKey{1, 0}, "r1b0"},
		{blockKey{1, 1}, "r1b1"},
		{blockKey{2, 0}, "r2b0"},
	} {
		if got := cached(c, tc.k); string(got) != tc.want {
			t.Fatalf("get(%+v) = %q, want %q", tc.k, got, tc.want)
		}
	}
}

// TestBlockCacheEvictsLRUWithinBudget fills one shard past its budget and
// checks: resident bytes never exceed capacity, evictions hit the
// least-recently-used entries first, and recently-touched entries survive.
func TestBlockCacheEvictsLRUWithinBudget(t *testing.T) {
	// All keys share runID so hashing varies only by blockNo; capacity is
	// tiny so per-shard budget is a few blocks.
	const capacity = 16 * cacheShards // per-shard budget: 16 bytes = 4 blocks
	c := NewBlockCache(capacity)
	block := func(i int) ([]byte, blockKey) {
		return []byte(fmt.Sprintf("%04d", i)), blockKey{runID: 7, blockNo: uint32(i)}
	}
	// Insert far more than fits, half through each path.
	for i := 0; i < 64; i++ {
		data, k := block(i)
		if i%2 == 0 {
			c.put(k, data, true)
		} else {
			insertBytes(c, k, data)
		}
		if s := c.Stats(); s.Bytes > s.Capacity {
			t.Fatalf("after insert %d: resident %d exceeds capacity %d", i, s.Bytes, s.Capacity)
		}
	}
	s := c.Stats()
	if s.Evictions == 0 {
		t.Fatal("no evictions despite 4x oversubscription")
	}
	// An entry inserted last should still be resident in its shard.
	data, k := block(63)
	if got := cached(c, k); !bytes.Equal(got, data) {
		t.Fatalf("most recent entry evicted; get = %q", got)
	}
	// A put that may not evict (a merge's) is dropped by a full shard and
	// kept by one with room.
	for i := 64; i < 128; i++ {
		data, k := block(i)
		c.put(k, data, false)
	}
	if after := c.Stats(); after.Evictions != s.Evictions || after.Bytes > after.Capacity {
		t.Fatalf("non-evicting puts moved evictions %d -> %d (resident %d of %d)", s.Evictions, after.Evictions, after.Bytes, after.Capacity)
	}
	roomy := NewBlockCache(capacity)
	roomy.put(k, data, false)
	if got := cached(roomy, k); !bytes.Equal(got, data) {
		t.Fatalf("non-evicting put into free space not kept; get = %q", got)
	}
}

// TestBlockCacheOversizedBlockNotCached checks a block larger than a whole
// shard budget is skipped rather than evicting the entire shard for an entry
// that cannot pay for itself.
func TestBlockCacheOversizedBlockNotCached(t *testing.T) {
	c := NewBlockCache(16 * cacheShards)
	small := blockKey{runID: 1, blockNo: 0}
	c.put(small, []byte("keep"), true)
	big := blockKey{runID: 1, blockNo: 1}
	c.put(big, bytes.Repeat([]byte{'x'}, 17), true) // 17 > shard budget 16
	if got := cached(c, big); got != nil {
		t.Fatal("oversized block was cached")
	}
	if got := cached(c, small); string(got) != "keep" {
		t.Fatalf("small entry displaced by rejected oversized block; get = %q", got)
	}
}

// TestBlockCacheDuplicatePut checks racing readers caching the same block
// (both missed, both read disk) account it once, and that the point read
// that lost the race reads the winner's bytes and gives its buffer back.
func TestBlockCacheDuplicatePut(t *testing.T) {
	c := NewBlockCache(1 << 20)
	k := blockKey{runID: 3, blockNo: 9}
	c.put(k, []byte("abcd"), true)
	c.put(k, []byte("abcd"), true)
	if s := c.Stats(); s.Bytes != 4 {
		t.Fatalf("duplicate put double-counted: Bytes = %d, want 4", s.Bytes)
	}
	loser := c.borrow(4)
	copy(loser.data, "abcd")
	won := c.insert(k, loser)
	defer c.release(won)
	if won == loser || string(won.data) != "abcd" {
		t.Fatalf("losing insert returned its own entry (%v) or other bytes %q", won == loser, won.data)
	}
	if s := c.Stats(); s.Bytes != 4 {
		t.Fatalf("duplicate insert double-counted: Bytes = %d, want 4", s.Bytes)
	}
	if c.free != loser {
		t.Fatal("the losing buffer did not go back to the free list")
	}
}

// TestBlockCacheRecyclesAfterLastPin follows one point-read buffer through
// its life: inserted, pinned by a reader, evicted while pinned — when it
// must not be lent out — and on the reader's release put on the free list
// and lent to the next miss. A buffer an iterator has seen is never lent.
func TestBlockCacheRecyclesAfterLastPin(t *testing.T) {
	const capacity = 64 * cacheShards // per-shard budget: 64 bytes
	c := NewBlockCache(capacity)
	k := blockKey{runID: 5, blockNo: 0}
	// Keys of k's shard, so inserting them evicts k.
	var rivals []blockKey
	for i := uint32(1); len(rivals) < 2; i++ {
		if r := (blockKey{runID: 5, blockNo: i}); c.shard(r) == c.shard(k) {
			rivals = append(rivals, r)
		}
	}
	first := insertBytes(c, k, bytes.Repeat([]byte{'a'}, 40))
	reader := c.get(k)
	if reader != first {
		t.Fatal("get did not return the inserted entry")
	}
	insertBytes(c, rivals[0], bytes.Repeat([]byte{'b'}, 40)) // evicts k
	if cached(c, k) != nil {
		t.Fatal("k still resident after its shard filled")
	}
	if c.free != nil {
		t.Fatal("an evicted block still pinned by a reader went to the free list")
	}
	if string(reader.data) != string(bytes.Repeat([]byte{'a'}, 40)) {
		t.Fatalf("pinned bytes changed: %q", reader.data)
	}
	c.release(reader)
	if c.free != first {
		t.Fatal("the last release did not put the buffer on the free list")
	}
	allocs := c.Stats().BufferAllocs
	if e := c.borrow(40); e != first {
		t.Fatal("the next miss did not borrow the recycled buffer")
	}
	if got := c.Stats().BufferAllocs; got != allocs {
		t.Fatalf("borrowing a recycled buffer counted %d allocations", got-allocs)
	}
	c.borrow(40) // the free list is empty again
	if got := c.Stats().BufferAllocs; got != allocs+1 {
		t.Fatalf("BufferAllocs %d after a borrow from an empty free list, want %d", got, allocs+1)
	}

	// An iterator's hit pins for good: evicted, its entry is never lent.
	c = NewBlockCache(capacity)
	seen := insertBytes(c, k, bytes.Repeat([]byte{'a'}, 40))
	_ = c.get(k) // an iterator's hit: never released
	insertBytes(c, rivals[0], bytes.Repeat([]byte{'b'}, 40))
	insertBytes(c, rivals[1], bytes.Repeat([]byte{'c'}, 40))
	for e := c.free; e != nil; e = e.next {
		if e == seen {
			t.Fatal("a block an iterator pinned reached the free list")
		}
	}
}

// TestGetAllocatesOnlyItsValue holds the point read to one allocation — the
// value it returns — whether the block is resident or must be read: a miss
// borrows the buffer of the block its insert evicts. The cache holds a few
// dozen of the run's ~600 blocks, so after one warm-up pass over every key
// nearly every cold Get misses and evicts; the block-read duration recorder
// is on, its reservoir full.
func TestGetAllocatesOnlyItsValue(t *testing.T) {
	cache := NewBlockCache(128 << 10) // 8 KiB per shard: one or two 4 KiB blocks
	m := &Metrics{BlockReadLatency: metrics.NewLatencyRecorderCap(64)}
	tr := openTest(t, Options{MemtableBytes: 1 << 20, BlockBytes: 4 << 10, BlockCache: cache, Metrics: m})
	const n = 20000
	keys := make([][]byte, n)
	val := bytes.Repeat([]byte{'v'}, 100)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%08d", i))
		if err := tr.Put(keys[i], val); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Merge(); err != nil {
		t.Fatal(err)
	}
	get := func(k []byte) {
		if v, ok, err := tr.Get(k); err != nil || !ok || !bytes.Equal(v, val) {
			t.Fatalf("Get(%s) = %q, %v, %v", k, v, ok, err)
		}
	}
	rnd := rand.New(rand.NewSource(1))
	for _, i := range rnd.Perm(n) {
		get(keys[i])
	}

	before := cache.Stats()
	const runs = 500
	cold := testing.AllocsPerRun(runs, func() { get(keys[rnd.Intn(n)]) })
	after := cache.Stats()
	if misses := after.Misses - before.Misses; misses < runs/2 {
		t.Fatalf("only %d of %d cold gets missed the cache", misses, runs+1)
	}
	if after.Evictions == before.Evictions {
		t.Fatal("cold gets evicted nothing")
	}
	if cold != 1 {
		t.Errorf("a cold Get allocates %v objects, want 1 (the value)", cold)
	}
	hot := testing.AllocsPerRun(runs, func() { get(keys[7]) })
	if hot != 1 {
		t.Errorf("a hot Get allocates %v objects, want 1 (the value)", hot)
	}
}

// TestBlockCacheFreeListBounded checks the free list keeps at most one
// shard's budget of buffers: evictions beyond that go to the collector.
func TestBlockCacheFreeListBounded(t *testing.T) {
	const capacity = 64 * cacheShards
	c := NewBlockCache(capacity)
	for i := 0; i < 200; i++ {
		insertBytes(c, blockKey{runID: 9, blockNo: uint32(i)}, bytes.Repeat([]byte{'x'}, 30))
		c.put(blockKey{runID: 10, blockNo: uint32(i)}, bytes.Repeat([]byte{'y'}, 30), true)
		if free := c.freeBytes.Load(); free > c.shardCap() {
			t.Fatalf("after %d inserts the free list holds %d bytes, bound %d", i+1, free, c.shardCap())
		}
	}
	if c.free == nil {
		t.Fatal("nothing was ever recycled")
	}
}
