package lsm

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// DefaultBlockCacheBytes is the block cache capacity a node gets when none is
// configured explicitly.
const DefaultBlockCacheBytes = 32 << 20

// cacheShards is the fixed shard count; a power of two so the shard pick is a
// mask, sized so ~16 concurrent readers rarely collide on a shard mutex.
const cacheShards = 16

// blockKey identifies one block of one run. Run IDs come from a process-wide
// counter assigned when a run is opened, and run files are immutable, so a
// (runID, blockNo) pair names the same bytes forever: compaction never needs
// to invalidate anything — a merged-away run's blocks simply stop being
// requested and age out of the LRU.
type blockKey struct {
	runID   uint64
	blockNo uint32
}

// BlockCache is a sharded, byte-capacity-bounded LRU over run blocks, shared
// by every tree on a node so hot blocks compete for one memory budget
// regardless of which partition or index they belong to. Only CRC-validated
// blocks are inserted, so a hit can skip checksum re-verification.
type BlockCache struct {
	shards [cacheShards]cacheShard
	// bytes mirrors the sum of shard sizes for lock-free Stats reads. Each
	// shard updates it under its own lock only after evicting back under
	// budget, so the published value never exceeds capacity.
	bytes     atomic.Int64
	capacity  int64
	lookups   atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[blockKey]*list.Element
	lru     *list.List // front = most recent; values are *cacheEntry
	size    int64      // resident bytes in this shard
}

type cacheEntry struct {
	key  blockKey
	data []byte
}

// NewBlockCache builds a cache bounded at capacity bytes (minimum one shard's
// worth of accounting; zero or negative capacity caches nothing).
func NewBlockCache(capacity int64) *BlockCache {
	c := &BlockCache{capacity: capacity}
	for i := range c.shards {
		c.shards[i].entries = make(map[blockKey]*list.Element)
		c.shards[i].lru = list.New()
	}
	return c
}

// CacheStats is a point-in-time snapshot of cache activity. Lookups is
// counted on its own — not derived from hits+misses — so the ledger identity
// Hits+Misses == Lookups is a real invariant, not an arithmetic tautology:
// it holds exactly at quiescence, and Hits+Misses ≤ Lookups at every instant
// (a racing lookup is counted before its outcome lands). Bytes never exceeds
// Capacity at any instant. The concurrent read hammer asserts all three.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Lookups   int64
	Evictions int64
	Bytes     int64
	Capacity  int64
}

// Stats snapshots the cache counters. Hits and misses are read before
// lookups, so a concurrent snapshot can never observe Hits+Misses > Lookups.
func (c *BlockCache) Stats() CacheStats {
	h, m := c.hits.Load(), c.misses.Load()
	return CacheStats{
		Hits:      h,
		Misses:    m,
		Lookups:   c.lookups.Load(),
		Evictions: c.evictions.Load(),
		Bytes:     c.bytes.Load(),
		Capacity:  c.capacity,
	}
}

func (c *BlockCache) shard(k blockKey) *cacheShard {
	// runID alone spreads runs across shards; folding blockNo in spreads a
	// single hot run's blocks too.
	h := k.runID*0x9e3779b97f4a7c15 + uint64(k.blockNo)*0xff51afd7ed558ccd
	return &c.shards[(h>>32)&(cacheShards-1)]
}

// get returns the cached block bytes for k, or nil. The returned slice is
// shared and immutable — callers must not write to it.
func (c *BlockCache) get(k blockKey) []byte {
	c.lookups.Add(1)
	s := c.shard(k)
	s.mu.Lock()
	el, ok := s.entries[k]
	if ok {
		s.lru.MoveToFront(el)
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil
	}
	c.hits.Add(1)
	return el.Value.(*cacheEntry).data
}

// put inserts a validated block. With evict set it evicts LRU entries from
// the shard until the block fits its slice of the budget; without, the block
// is kept only if it fits in free space. Blocks larger than a whole shard's
// budget are not cached at all. data must never be mutated after insertion.
func (c *BlockCache) put(k blockKey, data []byte, evict bool) {
	shardCap := c.capacity / cacheShards
	if int64(len(data)) > shardCap {
		return
	}
	s := c.shard(k)
	s.mu.Lock()
	if _, ok := s.entries[k]; ok {
		// Another reader cached the same immutable block first.
		s.mu.Unlock()
		return
	}
	if !evict && s.size+int64(len(data)) > shardCap {
		s.mu.Unlock()
		return
	}
	delta := int64(len(data))
	for s.size+int64(len(data)) > shardCap {
		back := s.lru.Back()
		if back == nil {
			break
		}
		old := s.lru.Remove(back).(*cacheEntry)
		delete(s.entries, old.key)
		s.size -= int64(len(old.data))
		delta -= int64(len(old.data))
		c.evictions.Add(1)
	}
	s.entries[k] = s.lru.PushFront(&cacheEntry{key: k, data: data})
	s.size += int64(len(data))
	// Publish the net change only now, with evictions already subtracted, so
	// an outside observer never sees bytes above capacity.
	c.bytes.Add(delta)
	s.mu.Unlock()
}

// nextRunID hands out process-wide unique run IDs for cache keying.
var nextRunID atomic.Uint64
