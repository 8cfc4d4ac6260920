package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/lsm"
)

// TestLookupRefusesWrongArity: a key with more or fewer fields than the
// dataset's primary key is refused with Delete's error, not encoded, missed
// and reported as "not found".
func TestLookupRefusesWrongArity(t *testing.T) {
	p := openTestPartition(t, testDataset())
	insertRecs(t, p, tweetRec("t1", "alice", nil))
	for _, pk := range [][]adm.Value{nil, {adm.String("t1"), adm.String("t1")}} {
		rec, ok, err := p.Lookup(pk)
		derr := p.Delete(pk)
		if err == nil || ok || rec != nil {
			t.Fatalf("Lookup of %d key values = %v, %v, %v; want a refusal", len(pk), rec, ok, err)
		}
		if derr == nil || err.Error() != derr.Error() {
			t.Fatalf("Lookup of %d key values refused with %q, Delete with %v", len(pk), err, derr)
		}
	}
	if _, ok, err := p.Lookup([]adm.Value{adm.String("t1")}); !ok || err != nil {
		t.Fatalf("Lookup(t1) = %v, %v after the refusals", ok, err)
	}
}

// lookupPartition opens a partition over a block cache of a few 512-byte
// blocks per shard and stores n records in runs, so nearly every cold
// Lookup misses and borrows the buffer of a block evicted before it.
func lookupPartition(t *testing.T, n int) (*Partition, *lsm.BlockCache, [][]byte) {
	t.Helper()
	cache := lsm.NewBlockCache(16 << 10)
	m := NewManager("A", t.TempDir(), lsm.Options{MemtableBytes: 64 << 10, BlockBytes: 512, BlockCache: cache})
	t.Cleanup(func() { m.Close() })
	p, err := m.OpenPartition(testDataset())
	if err != nil {
		t.Fatal(err)
	}
	stored := make([][]byte, n)
	var frame [][]byte
	for i := range stored {
		stored[i] = adm.Encode(tweetRec(fmt.Sprintf("t%05d", i), fmt.Sprintf("user-%d", i%7), nil))
		if frame = append(frame, stored[i]); len(frame) == 64 || i == n-1 {
			if err := p.InsertFrame(frame); err != nil {
				t.Fatal(err)
			}
			frame = nil
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	return p, cache, stored
}

// TestLookupOutlivesRecycledBlocks: Lookup decodes the record inside the
// tree's point read, from the block the read pinned, and the record it
// returns keeps none of that block. Each record looked up is held while
// enough cold lookups follow to recycle every buffer in the cache, then
// must still encode to the bytes stored.
func TestLookupOutlivesRecycledBlocks(t *testing.T) {
	const n = 2000
	p, cache, stored := lookupPartition(t, n)
	rnd := rand.New(rand.NewSource(1))
	before := cache.Stats()
	for round := 0; round < 20; round++ {
		i := rnd.Intn(n)
		held, ok, err := p.Lookup([]adm.Value{adm.String(fmt.Sprintf("t%05d", i))})
		if err != nil || !ok {
			t.Fatalf("Lookup(t%05d) = %v, %v", i, ok, err)
		}
		for j := 0; j < 200; j++ {
			k := rnd.Intn(n)
			if rec, ok, err := p.Lookup([]adm.Value{adm.String(fmt.Sprintf("t%05d", k))}); err != nil || !ok || !bytes.Equal(adm.Encode(rec), stored[k]) {
				t.Fatalf("Lookup(t%05d) = %v, %v, %v", k, rec, ok, err)
			}
		}
		if got := adm.Encode(held); !bytes.Equal(got, stored[i]) {
			t.Fatalf("record t%05d changed after its block was recycled:\n got %q\nwant %q", i, got, stored[i])
		}
	}
	if after := cache.Stats(); after.Evictions-before.Evictions < 1000 || after.Misses-before.Misses < 1000 {
		t.Fatalf("%d misses and %d evictions over the lookups; want most of them to recycle", after.Misses-before.Misses, after.Evictions-before.Evictions)
	}
}

// TestLookupCopiesNoValue: a hot Lookup allocates exactly what DecodeOne of
// the stored record allocates — the key is built on the stack, and the
// tree's read hands the decode the stored bytes in place, so there is no
// copy of the value. It holds from a run's cached block and from the
// memtable alike.
func TestLookupCopiesNoValue(t *testing.T) {
	p, _, stored := lookupPartition(t, 2000)
	decode := testing.AllocsPerRun(200, func() {
		if _, err := adm.DecodeOne(stored[7]); err != nil {
			t.Fatal(err)
		}
	})
	want := decode
	lookup := func(pk []adm.Value) func() {
		return func() {
			if _, ok, err := p.Lookup(pk); !ok || err != nil {
				t.Fatalf("Lookup(%v) = %v, %v", pk, ok, err)
			}
		}
	}
	inRun := lookup([]adm.Value{adm.String("t00007")})
	inRun() // the block is resident from here on
	if got := testing.AllocsPerRun(200, inRun); got != want {
		t.Errorf("a hot Lookup from a run allocates %v objects, want DecodeOne's %v", got, want)
	}
	insertRecs(t, p, tweetRec("fresh", "user-1", nil))
	if got := testing.AllocsPerRun(200, lookup([]adm.Value{adm.String("fresh")})); got != want {
		t.Errorf("a Lookup from the memtable allocates %v objects, want DecodeOne's %v", got, want)
	}
}
