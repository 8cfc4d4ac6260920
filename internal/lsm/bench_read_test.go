package lsm

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// benchTree builds a flushed tree with n records entirely on disk, so every
// read goes through the run read path rather than the memtable.
func benchTree(b *testing.B, n int, cache *BlockCache, m *Metrics) *Tree {
	b.Helper()
	tr, err := Open(Options{
		Dir:           b.TempDir(),
		MemtableBytes: 1 << 20,
		MaxRuns:       64,
		BlockCache:    cache,
		Metrics:       m,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { tr.Close() })
	val := make([]byte, 100)
	for i := 0; i < n; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("key-%08d", i)), val); err != nil {
			b.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := tr.Merge(); err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkReadPath is the read-path acceptance benchmark: hot gets must be
// served entirely from the block cache (zero disk reads per op — asserted,
// not just measured), cold gets pay one block read each, and a full scan
// reads each 32 KiB block exactly once. The hot/cold ratio is the headline
// number behind "read path at memory speed".
func BenchmarkReadPath(b *testing.B) {
	const n = 50000

	b.Run("hot-get", func(b *testing.B) {
		m := &Metrics{}
		tr := benchTree(b, n, NewBlockCache(DefaultBlockCacheBytes), m)
		keys := make([][]byte, 512)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("key-%08d", rand.Intn(n)))
		}
		// Warm every benchmark key's block into the cache.
		for _, k := range keys {
			if _, ok, err := tr.Get(k); !ok || err != nil {
				b.Fatalf("warm Get(%s): ok=%v err=%v", k, ok, err)
			}
		}
		before := m.BlockReads.Value()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok, err := tr.Get(keys[i%len(keys)]); !ok || err != nil {
				b.Fatalf("Get: ok=%v err=%v", ok, err)
			}
		}
		b.StopTimer()
		reads := m.BlockReads.Value() - before
		b.ReportMetric(float64(reads)/float64(b.N), "disk-reads/op")
		if reads != 0 {
			b.Fatalf("hot gets issued %d disk reads, want 0 — every op must be a cache hit", reads)
		}
	})

	b.Run("cold-get", func(b *testing.B) {
		// No cache: every get pays the sparse-index search plus one block
		// read + CRC check from disk.
		m := &Metrics{}
		tr := benchTree(b, n, nil, m)
		keys := make([][]byte, 512)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("key-%08d", rand.Intn(n)))
		}
		before := m.BlockReads.Value()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok, err := tr.Get(keys[i%len(keys)]); !ok || err != nil {
				b.Fatalf("Get: ok=%v err=%v", ok, err)
			}
		}
		b.StopTimer()
		reads := m.BlockReads.Value() - before
		b.ReportMetric(float64(reads)/float64(b.N), "disk-reads/op")
	})

	b.Run("cold-get-cached", func(b *testing.B) {
		// A cache of a few dozen of the run's ~180 blocks, full after one pass
		// over the keys: nearly every get misses and evicts, and must borrow
		// the evicted block's buffer — one allocation per op, the value.
		m := &Metrics{}
		tr := benchTree(b, n, NewBlockCache(1<<20), m)
		keys := make([][]byte, n)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("key-%08d", i))
		}
		for _, i := range rand.Perm(n) {
			if _, ok, err := tr.Get(keys[i]); !ok || err != nil {
				b.Fatalf("warm Get(%s): ok=%v err=%v", keys[i], ok, err)
			}
		}
		order := rand.Perm(n)
		var before, after runtime.MemStats
		reads := m.BlockReads.Value()
		b.ReportAllocs()
		b.ResetTimer()
		runtime.ReadMemStats(&before)
		for i := 0; i < b.N; i++ {
			if _, ok, err := tr.Get(keys[order[i%n]]); !ok || err != nil {
				b.Fatalf("Get: ok=%v err=%v", ok, err)
			}
		}
		runtime.ReadMemStats(&after)
		b.StopTimer()
		b.ReportMetric(float64(m.BlockReads.Value()-reads)/float64(b.N), "disk-reads/op")
		// allocs/op as the benchmark line prints it: whole objects per op.
		if allocs := (after.Mallocs - before.Mallocs) / uint64(b.N); allocs > 1 {
			b.Fatalf("cold cached gets allocate %d objects/op, want 1 — a miss must borrow an evicted buffer", allocs)
		}
	})

	b.Run("scan", func(b *testing.B) {
		m := &Metrics{}
		tr := benchTree(b, n, nil, m)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			before := m.BlockReads.Value()
			count := 0
			if err := tr.Scan(nil, nil, func(k, v []byte) bool {
				count++
				return true
			}); err != nil {
				b.Fatal(err)
			}
			if count != n {
				b.Fatalf("scan yielded %d, want %d", count, n)
			}
			reads := m.BlockReads.Value() - before
			// Each entry costs ~119 block bytes (12-byte key + 100-byte value
			// + flags + two length varints + its 4-byte offset-table slot); a
			// full scan must read each ~32 KiB block exactly once.
			if bound := int64(n*119/defaultBlockBytes) + 2; reads > bound {
				b.Fatalf("scan issued %d block reads, bound %d", reads, bound)
			}
			b.ReportMetric(float64(reads), "disk-reads/scan")
		}
	})
}
