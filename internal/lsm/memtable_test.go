package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

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
	m := newMemtable(1)
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

	e, ok := m.get(key(0))
	if !ok {
		t.Fatal("key 0 missing")
	}
	_ = append(e.key, "XXXXXX"...)
	if got, ok := m.get(key(1)); !ok || !bytes.Equal(got.key, key(1)) {
		t.Fatalf("appending to a returned key overwrote the next one: %q, %v", got.key, ok)
	}
}
