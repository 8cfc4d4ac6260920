package lsm

import (
	"bytes"
	"fmt"
	"testing"
)

func TestBlockCacheHitMissLedger(t *testing.T) {
	c := NewBlockCache(1 << 20)
	k := blockKey{runID: 1, blockNo: 0}
	if got := c.get(k); got != nil {
		t.Fatalf("get on empty cache returned %q", got)
	}
	c.put(k, []byte("block-bytes"), true)
	if got := c.get(k); string(got) != "block-bytes" {
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
	c.put(blockKey{runID: 2, blockNo: 0}, []byte("r2b0"), true)
	for _, tc := range []struct {
		k    blockKey
		want string
	}{
		{blockKey{1, 0}, "r1b0"},
		{blockKey{1, 1}, "r1b1"},
		{blockKey{2, 0}, "r2b0"},
	} {
		if got := c.get(tc.k); string(got) != tc.want {
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
	// Insert far more than fits.
	for i := 0; i < 64; i++ {
		data, k := block(i)
		c.put(k, data, true)
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
	if got := c.get(k); !bytes.Equal(got, data) {
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
	if got := roomy.get(k); !bytes.Equal(got, data) {
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
	if got := c.get(big); got != nil {
		t.Fatal("oversized block was cached")
	}
	if got := c.get(small); string(got) != "keep" {
		t.Fatalf("small entry displaced by rejected oversized block; get = %q", got)
	}
}

// TestBlockCacheDuplicatePut checks racing readers caching the same block
// (both missed, both read disk) account it once.
func TestBlockCacheDuplicatePut(t *testing.T) {
	c := NewBlockCache(1 << 20)
	k := blockKey{runID: 3, blockNo: 9}
	c.put(k, []byte("abcd"), true)
	c.put(k, []byte("abcd"), true)
	if s := c.Stats(); s.Bytes != 4 {
		t.Fatalf("duplicate put double-counted: Bytes = %d, want 4", s.Bytes)
	}
}
