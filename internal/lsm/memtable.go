package lsm

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
)

const maxSkipHeight = 12

// Chunk sizes of a memtable's node slab, level-pointer slab and key arena.
// Each starts at its minimum and doubles up to its cap, so a nearly empty
// memtable stays small and a full one allocates once per few hundred
// entries. A node averages 4/3 level pointers.
const (
	nodeChunkMin, nodeChunkMax = 16, 512
	linkChunkMin, linkChunkMax = 32, 1024
	keyChunkMin, keyChunkMax   = 512, 32 << 10
)

// entry is a single versioned key/value pair; a nil value with tombstone set
// records a delete.
type entry struct {
	key       []byte
	value     []byte
	tombstone bool
}

// memtable is an in-memory ordered map from []byte keys to values, backed by
// a skiplist. It carries its own RWMutex: readers consult the mutable
// memtable from a Tree snapshot *without* holding the tree lock (so a slow
// disk read elsewhere in the snapshot never blocks writers), which means
// reads here genuinely race with writers mutating the skiplist under the
// tree lock. The inner lock provides that last bit of exclusion. (An
// earlier revision removed a private lock as pure overhead when every
// reader still held the tree lock; the background-pipeline rewrite made it
// load-bearing and it returned.) Memtables frozen onto the immutable queue
// receive no further writes, so their reads are contention-free in
// practice.
//
// The memtable owns its nodes and its keys: nodes and their level pointers
// are carved from slabs, and each new key is copied into a byte arena, one
// allocation per chunk rather than per entry. Replacing a key reuses its
// node and copies nothing, so the arena holds the distinct keys size()
// counts plus the unused tail of its current chunk. Every chunk dies with
// the memtable. Values are retained by reference, never copied.
//
// Every key that has a node — a tombstone's too, for a delete must hide the
// older versions in the runs below — is in the memtable's key filter, so a
// point read of a key it never held is answered without walking the
// skiplist. The filter is written under mu's write lock and read under its
// read lock, like the nodes.
type memtable struct {
	mu     sync.RWMutex
	head   *skipNode
	height int
	rnd    *rand.Rand
	bytes  int
	count  int
	filter keyFilter

	nodes []skipNode  // current node slab; nodes are taken from its tail
	links []*skipNode // current level-pointer slab
	keys  []byte      // current key chunk
	arena int         // bytes of key chunks allocated so far
}

type skipNode struct {
	entry
	next []*skipNode
}

// memFilterFloor is the fewest keys a memtable's filter is sized for.
const memFilterFloor = 512

// newMemtable returns an empty memtable whose key filter is sized for
// prevKeys keys, the count of the memtable it follows, and at least
// memFilterFloor (see newKeyFilter). While it holds no more than twice
// those, that is 5 or more bits a key.
func newMemtable(seed int64, prevKeys int) *memtable {
	return &memtable{
		head:   &skipNode{next: make([]*skipNode, maxSkipHeight)},
		height: 1,
		rnd:    rand.New(rand.NewSource(seed)),
		filter: newKeyFilter(max(prevKeys, memFilterFloor)),
	}
}

func (m *memtable) randomHeight() int {
	h := 1
	for h < maxSkipHeight && m.rnd.Intn(4) == 0 {
		h++
	}
	return h
}

// nextChunk is the size of the chunk that follows one of size prev: twice
// it, within [lo, hi].
func nextChunk(prev, lo, hi int) int {
	return min(max(2*prev, lo), hi)
}

// newNode takes a node of height h from the node slab and its level
// pointers from the link slab, starting a new chunk of either when it is
// spent. A chunk is never reallocated, so pointers into it stay valid.
func (m *memtable) newNode(h int) *skipNode {
	if len(m.nodes) == cap(m.nodes) {
		m.nodes = make([]skipNode, 0, nextChunk(cap(m.nodes), nodeChunkMin, nodeChunkMax))
	}
	if cap(m.links)-len(m.links) < h {
		m.links = make([]*skipNode, 0, nextChunk(cap(m.links), linkChunkMin, linkChunkMax))
	}
	m.nodes = m.nodes[:len(m.nodes)+1]
	n := &m.nodes[len(m.nodes)-1]
	at := len(m.links)
	m.links = m.links[:at+h]
	n.next = m.links[at : at+h : at+h]
	return n
}

// copyKey copies key into the arena. The copy's capacity ends with it, so an
// append to a key handed out by a read cannot reach the key after it. A key
// larger than a whole chunk gets an allocation of its own. The copy is never
// nil, even for an empty key: first() reports an empty memtable as nil.
func (m *memtable) copyKey(key []byte) []byte {
	if cap(m.keys) == 0 || cap(m.keys)-len(m.keys) < len(key) {
		size := nextChunk(cap(m.keys), keyChunkMin, keyChunkMax)
		if len(key) > size {
			m.arena += len(key)
			return append(make([]byte, 0, len(key)), key...)
		}
		m.keys = make([]byte, 0, size)
		m.arena += size
	}
	at := len(m.keys)
	m.keys = append(m.keys, key...)
	return m.keys[at:len(m.keys):len(m.keys)]
}

// seekFrom advances update to key's predecessor at every level, resuming
// from the nodes already in update — which must precede key at their level
// (m.head trivially qualifies). Batched sorted inserts exploit this to reuse
// the predecessor search across adjacent keys. The descent also chains
// levels as a plain skiplist search does: the predecessor found at level
// l+1 seeds level l when it is ahead of the resume position, keeping each
// seek O(log n) rather than walking every level from its resume point.
func (m *memtable) seekFrom(key []byte, update *[maxSkipHeight]*skipNode) {
	n := m.head
	for lvl := m.height - 1; lvl >= 0; lvl-- {
		// A node present at level l+1 is present at level l too, so n is a
		// valid start; update[lvl] may be further along from a prior seek.
		if u := update[lvl]; u != m.head && (n == m.head || bytes.Compare(u.key, n.key) > 0) {
			n = u
		}
		for n.next[lvl] != nil && bytes.Compare(n.next[lvl].key, key) < 0 {
			n = n.next[lvl]
		}
		update[lvl] = n
	}
}

// insertAt inserts or replaces key at the position update describes; update
// must have been positioned by seekFrom(key, update). After return, update
// still holds valid predecessors for any key >= the inserted one. A new node
// gets a copy of key; a replacement keeps the node's own.
func (m *memtable) insertAt(key, value []byte, tombstone bool, update *[maxSkipHeight]*skipNode) {
	if nxt := update[0].next[0]; nxt != nil && bytes.Equal(nxt.key, key) {
		m.bytes += len(value) - len(nxt.value)
		nxt.value = value
		nxt.tombstone = tombstone
		return
	}
	h := m.randomHeight()
	if h > m.height {
		for lvl := m.height; lvl < h; lvl++ {
			update[lvl] = m.head
		}
		m.height = h
	}
	node := m.newNode(h)
	node.entry = entry{key: m.copyKey(key), value: value, tombstone: tombstone}
	m.filter.add(keyHash(key))
	for lvl := 0; lvl < h; lvl++ {
		node.next[lvl] = update[lvl].next[lvl]
		update[lvl].next[lvl] = node
	}
	m.bytes += len(key) + len(value) + 16
	m.count++
}

// put inserts or replaces key with value (or a tombstone).
func (m *memtable) put(key, value []byte, tombstone bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var update [maxSkipHeight]*skipNode
	for i := range update {
		update[i] = m.head
	}
	m.seekFrom(key, &update)
	m.insertAt(key, value, tombstone, &update)
}

// putBatch applies a batch of operations. Ops are stably sorted by key first
// (so the last op per key in batch order wins, matching WAL replay order)
// and inserted in ascending order, which lets each insert resume the
// predecessor search from where the previous one ended instead of starting
// at the head — the skiplist analogue of a sorted bulk load.
func (m *memtable) putBatch(ops []batchOp) {
	if len(ops) == 0 {
		return
	}
	slices.SortStableFunc(ops, func(a, b batchOp) int { return bytes.Compare(a.key, b.key) })
	m.mu.Lock()
	defer m.mu.Unlock()
	var update [maxSkipHeight]*skipNode
	for i := range update {
		update[i] = m.head
	}
	for _, op := range ops {
		m.seekFrom(op.key, &update)
		m.insertAt(op.key, op.value, op.kind == walDelete, &update)
	}
}

// get returns the entry for key, if present (including tombstones); h is
// keyHash(key). A key the filter rejects costs no node read.
func (m *memtable) get(key []byte, h uint64) (entry, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if !m.filter.mayContain(h) {
		return entry{}, false
	}
	n := m.head
	for lvl := m.height - 1; lvl >= 0; lvl-- {
		for n.next[lvl] != nil && bytes.Compare(n.next[lvl].key, key) < 0 {
			n = n.next[lvl]
		}
	}
	if nxt := n.next[0]; nxt != nil && bytes.Equal(nxt.key, key) {
		return nxt.entry, true
	}
	return entry{}, false
}

// size reports the approximate byte footprint of the memtable.
func (m *memtable) size() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.bytes
}

// len reports the number of live entries (including tombstones).
func (m *memtable) len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.count
}

// first returns the smallest key, or nil for an empty memtable.
func (m *memtable) first() []byte {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if n := m.head.next[0]; n != nil {
		return n.key
	}
	return nil
}

// iter returns an iterator positioned at the first key >= from.
func (m *memtable) iter(from []byte) *memtableIter {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := m.head
	for lvl := m.height - 1; lvl >= 0; lvl-- {
		for n.next[lvl] != nil && bytes.Compare(n.next[lvl].key, from) < 0 {
			n = n.next[lvl]
		}
	}
	return &memtableIter{m: m, node: n.next[0]}
}

// memtableIter iterates a cursor over the skiplist. Each step takes the
// memtable's read lock: the cursor may be walking the *mutable* memtable
// while writers insert around it, in which case concurrent insertions at
// or ahead of the cursor may or may not be observed — the usual contract
// for reads overlapping writes. A node's key is immutable once published,
// so key() is lock-free; entry values are replaced wholesale (the slice
// header swaps, bytes are never mutated in place), so curr() returns a
// stable view taken under the lock.
type memtableIter struct {
	m    *memtable
	node *skipNode
}

func (it *memtableIter) valid() bool { return it.node != nil }
func (it *memtableIter) key() []byte { return it.node.key }
func (it *memtableIter) curr() (entry, error) {
	it.m.mu.RLock()
	defer it.m.mu.RUnlock()
	return it.node.entry, nil
}
func (it *memtableIter) next() {
	it.m.mu.RLock()
	defer it.m.mu.RUnlock()
	it.node = it.node.next[0]
}

// fail is always nil: a memtable read cannot fail.
func (it *memtableIter) fail() error { return nil }

// close is a no-op: a memtable's bytes live as long as the memtable.
func (it *memtableIter) close() {}
