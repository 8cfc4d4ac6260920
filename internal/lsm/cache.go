package lsm

import (
	"slices"
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
//
// The cache owns the memory of every block a read loads, and every read —
// a point read, a scan, a merge — follows one rule: pin, read, release. An
// entry counts pins: the cache holds one while the entry is resident, and
// every reader between get (or borrow) and release holds one more. Eviction
// drops the cache's pin; whoever drops the last one puts the entry, buffer
// and all, on the free list, where the next miss borrows it instead of
// allocating. A buffer is therefore rewritten only once nobody can be
// reading it, and a reader's bytes are the block's only until its release.
type BlockCache struct {
	shards [cacheShards]cacheShard
	// bytes mirrors the sum of shard sizes for lock-free Stats reads. Each
	// shard updates it under its own lock only after evicting back under
	// budget, so the published value never exceeds capacity.
	bytes        atomic.Int64
	capacity     int64
	lookups      atomic.Int64
	hits         atomic.Int64
	misses       atomic.Int64
	evictions    atomic.Int64
	bufferAllocs atomic.Int64

	// The free list: unpinned, non-resident entries linked through next,
	// holding at most one shard's budget of buffer capacity, so what the
	// cache keeps off its LRU is a small fraction of Capacity. freeMu is
	// taken after a shard lock, never before one.
	freeMu    sync.Mutex
	free      *cacheEntry
	freeBytes atomic.Int64
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[blockKey]*cacheEntry
	lru     cacheEntry // sentinel: lru.next is the most recent entry, lru.prev the least
	size    int64      // resident bytes in this shard
}

// cacheEntry is one block's bytes and its place in a shard's LRU. refs
// counts its pins: the cache's while resident, and one per reader.
type cacheEntry struct {
	key        blockKey
	data       []byte
	prev, next *cacheEntry
	refs       atomic.Int32
}

// NewBlockCache builds a cache bounded at capacity bytes (minimum one shard's
// worth of accounting; zero or negative capacity caches nothing).
func NewBlockCache(capacity int64) *BlockCache {
	c := &BlockCache{capacity: capacity}
	for i := range c.shards {
		s := &c.shards[i]
		s.entries = make(map[blockKey]*cacheEntry)
		s.lru.prev, s.lru.next = &s.lru, &s.lru
	}
	return c
}

// CacheStats is a point-in-time snapshot of cache activity. Lookups is
// counted on its own — not derived from hits+misses — so the ledger identity
// Hits+Misses == Lookups is a real invariant, not an arithmetic tautology:
// it holds exactly at quiescence, and Hits+Misses ≤ Lookups at every instant
// (a racing lookup is counted before its outcome lands). Bytes never exceeds
// Capacity at any instant. The concurrent read hammer asserts all three.
// BufferAllocs counts the block buffers reads had to make because the free
// list had none to lend: while the cache grows toward Capacity, for a block
// too large to cache, and to replace buffers still pinned by readers in
// flight, or too small. Once the cache is full it stays nearly flat.
type CacheStats struct {
	Hits         int64
	Misses       int64
	Lookups      int64
	Evictions    int64
	Bytes        int64
	Capacity     int64
	BufferAllocs int64
}

// Stats snapshots the cache counters. Hits and misses are read before
// lookups, so a concurrent snapshot can never observe Hits+Misses > Lookups.
func (c *BlockCache) Stats() CacheStats {
	h, m := c.hits.Load(), c.misses.Load()
	return CacheStats{
		Hits:         h,
		Misses:       m,
		Lookups:      c.lookups.Load(),
		Evictions:    c.evictions.Load(),
		Bytes:        c.bytes.Load(),
		Capacity:     c.capacity,
		BufferAllocs: c.bufferAllocs.Load(),
	}
}

func (c *BlockCache) shard(k blockKey) *cacheShard {
	// runID alone spreads runs across shards; folding blockNo in spreads a
	// single hot run's blocks too.
	h := k.runID*0x9e3779b97f4a7c15 + uint64(k.blockNo)*0xff51afd7ed558ccd
	return &c.shards[(h>>32)&(cacheShards-1)]
}

// shardCap is one shard's slice of the budget: the largest block the cache
// will hold, and the most buffer capacity its free list keeps.
func (c *BlockCache) shardCap() int64 { return c.capacity / cacheShards }

// get returns the resident entry for k pinned for the caller, or nil. The
// entry's bytes are shared and immutable — callers must not write to them —
// and stay the block's until the caller's release.
func (c *BlockCache) get(k blockKey) *cacheEntry {
	c.lookups.Add(1)
	s := c.shard(k)
	s.mu.Lock()
	e, ok := s.entries[k]
	if ok {
		e.refs.Add(1)
		unlinkEntry(e)
		s.pushFront(e)
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil
	}
	c.hits.Add(1)
	return e
}

// release drops one pin taken by get, borrow or insert; nil is a no-op. The
// last pin puts the entry on the free list.
func (c *BlockCache) release(e *cacheEntry) {
	if e != nil && e.refs.Add(-1) == 0 {
		c.recycle(e)
	}
}

// recycle puts an entry nobody pins on the free list, or leaves it to the
// garbage collector when the list is full.
func (c *BlockCache) recycle(e *cacheEntry) {
	c.freeMu.Lock()
	if n := int64(cap(e.data)); c.freeBytes.Load()+n <= c.shardCap() {
		e.prev, e.next = nil, c.free
		c.free = e
		c.freeBytes.Add(n)
	}
	c.freeMu.Unlock()
}

// borrow returns an entry off the LRU, pinned once for the caller, whose
// data is an n-byte buffer for a read to fill: the free list's top if
// its buffer is large enough, else a new one (counted in BufferAllocs). The
// caller inserts it or releases it.
func (c *BlockCache) borrow(n int) *cacheEntry {
	c.freeMu.Lock()
	e := c.free
	if e != nil {
		c.free, e.next = e.next, nil
		c.freeBytes.Add(-int64(cap(e.data)))
	}
	c.freeMu.Unlock()
	if e == nil || cap(e.data) < n {
		c.bufferAllocs.Add(1)
		// slices.Grow rounds the capacity up to the allocator's size class,
		// so the buffer can later hold any block the allocation could.
		e = &cacheEntry{data: slices.Grow([]byte(nil), n)}
	}
	e.data = e.data[:n]
	e.refs.Store(1)
	return e
}

// insert makes the borrowed entry e, loaded and validated, resident under k
// and returns the entry the caller reads, pinned for it: e with its borrow
// pin, or — when another reader inserted the same block first — that
// reader's entry, newly pinned, with e released. With evict set it evicts
// least-recently-used entries of k's shard until e fits; without, e is made
// resident only if it fits in the shard's free space, and otherwise stays
// the caller's alone, to go to the free list on its release. e must fit a
// shard (shardCap).
func (c *BlockCache) insert(k blockKey, e *cacheEntry, evict bool) *cacheEntry {
	s := c.shard(k)
	s.mu.Lock()
	if old, ok := s.entries[k]; ok {
		old.refs.Add(1)
		s.mu.Unlock()
		c.release(e)
		return old
	}
	if evict || s.size+int64(len(e.data)) <= c.shardCap() {
		e.key = k
		e.refs.Add(1) // the cache's pin
		c.admitLocked(s, e)
	}
	s.mu.Unlock()
	return e
}

// admitLocked links e at the front of s, evicting from the back until s is
// within its budget. Evicted entries lose the cache's pin; those nobody else
// pins go to the free list at once.
func (c *BlockCache) admitLocked(s *cacheShard, e *cacheEntry) {
	delta := int64(len(e.data))
	for s.size+int64(len(e.data)) > c.shardCap() && s.lru.prev != &s.lru {
		old := s.lru.prev
		unlinkEntry(old)
		delete(s.entries, old.key)
		s.size -= int64(len(old.data))
		delta -= int64(len(old.data))
		c.evictions.Add(1)
		c.release(old)
	}
	s.entries[e.key] = e
	s.pushFront(e)
	s.size += int64(len(e.data))
	// Publish the net change only now, with evictions already subtracted, so
	// an outside observer never sees bytes above capacity.
	c.bytes.Add(delta)
}

func (s *cacheShard) pushFront(e *cacheEntry) {
	e.prev, e.next = &s.lru, s.lru.next
	s.lru.next.prev = e
	s.lru.next = e
}

func unlinkEntry(e *cacheEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// nextRunID hands out process-wide unique run IDs for cache keying.
var nextRunID atomic.Uint64
