package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// memGet is m.get with the key's hash taken here.
func memGet(m *memtable, key []byte) (entry, bool) {
	return m.get(key, keyHash(key))
}

// TestApplyBatchCopiesKeysPerChunk: a batch of fresh keys into a warm
// memtable allocates per chunk, not per entry, and the memtable keeps copies
// of the keys, so the caller may overwrite its key buffers once ApplyBatch
// returns.
func TestApplyBatchCopiesKeysPerChunk(t *testing.T) {
	tr := openTest(t, Options{MemtableBytes: 1 << 30})
	const perBatch = 128
	keyBuf := make([]byte, perBatch*12)
	keys := make([][]byte, perBatch)
	for i := range keys {
		keys[i] = keyBuf[i*12 : (i+1)*12 : (i+1)*12]
	}
	value := []byte("v")
	b := NewBatch(perBatch)
	next := uint64(0)
	apply := func() {
		b.Reset()
		for _, k := range keys {
			copy(k, "key-")
			binary.BigEndian.PutUint64(k[4:], next)
			next++
			b.Put(k, value)
		}
		if err := tr.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ { // warm: chunks at their cap, batch and WAL scratch grown
		apply()
	}
	if allocs := testing.AllocsPerRun(100, apply); allocs > 2 {
		t.Errorf("ApplyBatch of %d fresh keys allocates %.2f times, want O(1) per batch", perBatch, allocs)
	}

	// Every key written survives its buffer being overwritten by the next
	// batch, through Get and through Scan.
	want := func(n uint64) []byte {
		k := append([]byte("key-"), make([]byte, 8)...)
		binary.BigEndian.PutUint64(k[4:], n)
		return k
	}
	for _, n := range []uint64{0, 1, next / 2, next - 1} {
		if v, ok, err := tr.Get(want(n)); err != nil || !ok || !bytes.Equal(v, value) {
			t.Fatalf("Get(key %d) = %q, %v, %v", n, v, ok, err)
		}
	}
	seen := uint64(0)
	if err := tr.Scan(nil, nil, func(k, _ []byte) bool {
		if !bytes.Equal(k, want(seen)) {
			t.Fatalf("Scan key %d = %x, want %x", seen, k, want(seen))
		}
		seen++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != next {
		t.Fatalf("Scan saw %d keys, want %d", seen, next)
	}
}

// TestMemtableReplaceKeepsArena: replacing keys reuses their nodes and
// copies nothing, so the arena holds the distinct keys plus at most one
// chunk, however often they are rewritten. A key handed out by a read is
// capped: appending to it cannot write over the next key in the arena.
func TestMemtableReplaceKeepsArena(t *testing.T) {
	m := newMemtable(1, 0)
	const distinct = 300
	keyBytes := 0
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i)) }
	for i := 0; i < distinct; i++ {
		m.put(key(i), []byte("v0"), false)
		keyBytes += len(key(i))
	}
	before := m.arena
	if before > keyBytes+keyChunkMax {
		t.Fatalf("arena %d B for %d B of keys", before, keyBytes)
	}
	for round := 0; round < 10000; round++ {
		i := round % distinct
		m.put(key(i), []byte("v1"), round%7 == 0)
	}
	if m.arena != before || m.len() != distinct {
		t.Fatalf("after 10 000 replacements: arena %d B (was %d), %d entries (want %d)", m.arena, before, m.len(), distinct)
	}

	e, ok := memGet(m, key(0))
	if !ok {
		t.Fatal("key 0 missing")
	}
	_ = append(e.key, "XXXXXX"...)
	if got, ok := memGet(m, key(1)); !ok || !bytes.Equal(got.key, key(1)) {
		t.Fatalf("appending to a returned key overwrote the next one: %q, %v", got.key, ok)
	}
}

// TestMemtableFilterHasNoFalseNegatives holds put and putBatch — in-batch
// repeats, replacements and deletes — to a map model. Each memtable's filter
// is sized at the floor and most of them take several times more keys, so
// the filter is also checked past its capacity. Every key the model holds,
// a tombstone's too, is found with its newest entry, and no other key is.
func TestMemtableFilterHasNoFalseNegatives(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for round := 0; round < 12; round++ {
		m := newMemtable(int64(round), 0)
		model := map[string]entry{}
		universe := []int{100, 900, 4000, 9000}[round%4]
		key := func() []byte { return []byte(fmt.Sprintf("k%05d", rnd.Intn(universe+1))) }
		for step := 0; step < 200; step++ {
			if rnd.Intn(4) == 0 {
				k, del := key(), rnd.Intn(4) == 0
				v := []byte(fmt.Sprintf("put %d", step))
				if del {
					v = nil
				}
				m.put(k, v, del)
				model[string(k)] = entry{key: k, value: v, tombstone: del}
				continue
			}
			ops := make([]batchOp, 1+rnd.Intn(96))
			for i := range ops {
				op := batchOp{kind: walPut, key: key(), value: []byte(fmt.Sprintf("batch %d op %d", step, i))}
				if i > 0 && rnd.Intn(3) == 0 {
					op.key = ops[rnd.Intn(i)].key // repeated within the batch: the last op wins
				}
				if rnd.Intn(5) == 0 {
					op.kind, op.value = walDelete, nil
				}
				ops[i] = op
			}
			for _, op := range ops { // batch order, before putBatch sorts ops
				model[string(op.key)] = entry{key: op.key, value: op.value, tombstone: op.kind == walDelete}
			}
			m.putBatch(ops)
		}
		if m.len() != len(model) {
			t.Fatalf("round %d: memtable holds %d keys, model %d", round, m.len(), len(model))
		}
		for k, want := range model {
			got, ok := memGet(m, []byte(k))
			if !ok || got.tombstone != want.tombstone || !bytes.Equal(got.value, want.value) {
				t.Fatalf("round %d, %d keys: get(%s) = %q tombstone %v, %v; model has %q tombstone %v", round, len(model), k, got.value, got.tombstone, ok, want.value, want.tombstone)
			}
		}
		for i := 0; i <= universe; i++ {
			k := fmt.Sprintf("k%05d", i)
			if _, ok := memGet(m, []byte(k)); ok != (model[k].key != nil) {
				t.Fatalf("round %d: get(%s) found %v, model %v", round, k, ok, model[k].key != nil)
			}
		}
	}
}

// TestMemtableFilterSkipsTheSkiplist: a key the filter rejects is answered
// without reading a node — the test takes the skiplist away, so a walk
// would dereference nil — and a key it admits is looked up in the list.
func TestMemtableFilterSkipsTheSkiplist(t *testing.T) {
	m := newMemtable(1, 0)
	for i := 0; i < 500; i++ {
		m.put([]byte(fmt.Sprintf("k%05d", i)), []byte("v"), false)
	}
	var rejected []byte
	for i := 500; rejected == nil; i++ {
		k := []byte(fmt.Sprintf("k%05d", i))
		if !m.filter.mayContain(keyHash(k)) {
			rejected = k
		}
	}
	head := m.head
	m.head = nil
	if _, ok := memGet(m, rejected); ok {
		t.Fatalf("get(%s) found a key the filter rejects", rejected)
	}
	m.head = head
	if _, ok := memGet(m, []byte("k00123")); !ok {
		t.Fatal("get(k00123) missed a key the memtable holds")
	}
}

// TestMemtableFilterAfterReopen: WAL replay puts every key into the
// recovery memtable's filter, tombstones included — keys deleted after
// their flush stay hidden after the reopen, and every other key is found.
func TestMemtableFilterAfterReopen(t *testing.T) {
	dir := t.TempDir()
	tr, err := Open(Options{Dir: dir, MemtableBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, tr, 0, 100, "flushed")
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	fill(t, tr, 100, 500, "logged")
	deleted := map[int]bool{}
	for i := 3; i < 600; i += 40 {
		deleted[i] = true
		if err := tr.Delete([]byte(fmt.Sprintf("key-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr, err = Open(Options{Dir: dir, MemtableBytes: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if n := tr.mem.len(); n != 503 {
		t.Fatalf("the recovery memtable holds %d keys, want the 500 logged and 3 tombstones of flushed keys", n)
	}
	for i := 0; i < 600; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		if (i >= 100 || deleted[i]) && !tr.mem.filter.mayContain(keyHash(k)) {
			t.Fatalf("%s replayed but not in the memtable's filter", k)
		}
		if ok, err := tr.View(k, func([]byte) {}); err != nil || ok == deleted[i] {
			t.Fatalf("View(%s) = %v, %v; deleted %v", k, ok, err, deleted[i])
		}
	}
}

// TestDeleteInMemtableHidesRun: a tombstone in the mutable memtable, and in
// a frozen one, hides the version a run holds.
func TestDeleteInMemtableHidesRun(t *testing.T) {
	tr := openTest(t, Options{MemtableBytes: 1 << 30})
	fill(t, tr, 0, 10, "v")
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	k := []byte("key-00003")
	if err := tr.Delete(k); err != nil {
		t.Fatal(err)
	}
	absent := func(where string) {
		t.Helper()
		if ok, err := tr.View(k, func([]byte) {}); ok || err != nil {
			t.Fatalf("View(%s) with its tombstone in the %s memtable = %v, %v", k, where, ok, err)
		}
	}
	absent("mutable")
	tr.wmu.Lock()
	tr.mu.Lock()
	err := tr.rotateLocked()
	tr.mu.Unlock()
	tr.wmu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	absent("mutable or frozen")
}

// TestMemtableFilterHammer races View against putBatch and rotations on one
// tree: a writer applies batches of versioned values and deletes while
// readers check every key against the committed versions. A live key must
// read a version no older than the one committed before the read, a key
// whose delete was committed must read absent, and a key never written must
// never be found.
func TestMemtableFilterHammer(t *testing.T) {
	tr := openTest(t, Options{MemtableBytes: 4 << 10, MaxImmutables: 4, MaxRuns: 3})
	const nlive, ndead = 300, 100
	live := make([][]byte, nlive)
	var committed [nlive]atomic.Int64
	for i := range live {
		live[i] = []byte(fmt.Sprintf("live-%04d", i))
		if err := tr.Put(live[i], recycleValue(live[i], 0)); err != nil {
			t.Fatal(err)
		}
	}
	dead := make([][]byte, ndead)
	for i := range dead {
		dead[i] = []byte(fmt.Sprintf("dead-%04d", i))
		if err := tr.Put(dead[i], []byte("doomed")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var deleted atomic.Int64 // dead[:deleted] have committed deletes
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rnd.Intn(nlive)
				lo := committed[i].Load()
				var v int64
				var verr error
				ok, err := tr.View(live[i], func(val []byte) { v, verr = recycleVersion(live[i], val) })
				hi := committed[i].Load() + 1
				if err != nil || !ok || verr != nil || v < lo || v > hi {
					t.Errorf("View(%s) = version %d, %v, %v, %v; model allows [%d, %d]", live[i], v, ok, err, verr, lo, hi)
					return
				}
				d := rnd.Intn(ndead)
				gone := int64(d) < deleted.Load()
				if ok, err := tr.View(dead[d], func([]byte) {}); err != nil || gone && ok {
					t.Errorf("View(%s) = %v, %v after its delete committed", dead[d], ok, err)
					return
				}
				never := []byte(fmt.Sprintf("never-%04d", rnd.Intn(1000)))
				if ok, err := tr.View(never, func([]byte) {}); err != nil || ok {
					t.Errorf("View(%s) = %v, %v; it was never written", never, ok, err)
					return
				}
			}
		}(int64(r))
	}
	rnd := rand.New(rand.NewSource(99))
	b := NewBatch(32)
	for batch := 0; batch < 400 && !t.Failed(); batch++ {
		b.Reset()
		picks := make([]int, 24)
		last := map[int]int{} // key → its last position in the batch
		for j := range picks {
			picks[j] = rnd.Intn(nlive)
			last[picks[j]] = j
		}
		next := map[int]int64{}
		for j, i := range picks {
			v := int64(-1) // an op a later one on its key replaces: never visible
			if last[i] == j {
				v = committed[i].Load() + 1
				next[i] = v
			}
			b.Put(live[i], recycleValue(live[i], v))
		}
		d := deleted.Load()
		if batch%4 == 0 && d < ndead {
			b.Delete(dead[d])
		}
		if err := tr.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		for i, v := range next {
			committed[i].Store(v)
		}
		if batch%4 == 0 && d < ndead {
			deleted.Store(d + 1)
		}
	}
	close(stop)
	wg.Wait()
	if st := tr.Stats(); st.Flushes < 10 {
		t.Fatalf("%d flushes: the writer did not rotate the memtable often enough to race it", st.Flushes)
	}
}

// TestMemtableFilterSizing: the first memtable after Open has a filter of
// the floor's size, and a rotation sizes the next one's for the keys of the
// memtable it replaces — the smallest power of two of bits not below ten a
// key, which is five or more a key for twice those keys.
func TestMemtableFilterSizing(t *testing.T) {
	bits := func(m *memtable) int { return 8 * len(m.filter.bits) }
	if got := bits(newMemtable(1, 0)); got != 8192 {
		t.Fatalf("a filter after no keys has %d bits, want 8 192 (512 keys)", got)
	}
	if got := bits(newMemtable(1, 3500)); got != 65536 {
		t.Fatalf("a filter after 3 500 keys has %d bits, want 65 536", got)
	}
	tr := openTest(t, Options{MemtableBytes: 1 << 30})
	if got := bits(tr.mem); got != 8192 {
		t.Fatalf("the memtable after Open has a %d-bit filter, want the floor's 8 192", got)
	}
	fill(t, tr, 0, 3000, "v")
	tr.wmu.Lock()
	tr.mu.Lock()
	err := tr.rotateLocked()
	tr.mu.Unlock()
	tr.wmu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got := bits(tr.mem); got != 32768 {
		t.Fatalf("after a rotation of 3 000 keys the filter has %d bits, want 32 768", got)
	}
}

// TestMemFilterFalsePositives: a key filter holding the keys it was sized
// for lets under 1 % of absent keys through, for keys that differ only in
// their last digits. Probes that masked the low bits of FNV-1a let 4–9 %
// through.
func TestMemFilterFalsePositives(t *testing.T) {
	for _, n := range []int{1000, 7000} {
		for _, form := range []string{"%012d", "key%05d-run"} {
			f := newKeyFilter(n)
			for i := 0; i < n; i++ {
				f.add(keyHash([]byte(fmt.Sprintf(form, 2*i))))
			}
			const absent = 20000
			maybe := 0
			for i := 0; i < absent; i++ {
				if f.mayContain(keyHash([]byte(fmt.Sprintf(form, 2*i+1)))) {
					maybe++
				}
			}
			if maybe*100 >= absent {
				t.Errorf("%d keys like %q: %d of %d absent keys read \"maybe\", want under 1 %%", n, form, maybe, absent)
			}
		}
	}
}
