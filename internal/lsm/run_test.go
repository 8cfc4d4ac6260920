package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// buildBigRun writes n sequential entries with valSize-byte values and
// returns the opened run under cfg.
func buildBigRun(t *testing.T, dir string, n, valSize int, cfg runConfig) *run {
	t.Helper()
	path := filepath.Join(dir, "run-000001.lsm")
	rw, err := newRunWriter(path, nil, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{'v'}, valSize)
	for i := 0; i < n; i++ {
		if err := rw.add(entry{key: []byte(fmt.Sprintf("key-%08d", i)), value: val}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := rw.finish()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.close() })
	return r
}

// runGet probes one run the way Tree.Get does: hash once, then the run.
func runGet(r *run, key []byte) (entry, bool, error) {
	h1, h2 := bloomHashes(key)
	return r.get(key, h1, h2)
}

// TestRunSparseIndexIsOBlocks is the memory-bound structural test: a run's
// resident index must be one entry per ~32 KiB block, not one per record —
// the whole point of replacing the old format's full key array.
func TestRunSparseIndexIsOBlocks(t *testing.T) {
	const n, valSize = 20000, 100
	r := buildBigRun(t, t.TempDir(), n, valSize, runConfig{})
	if r.len() != n {
		t.Fatalf("run holds %d entries, want %d", r.len(), n)
	}
	st, err := r.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	// Every block but the last is closed at >= the 32 KiB target, so the
	// block count is bounded by ceil(fileSize/target) — and the file size
	// itself bounds the data section.
	maxBlocks := int(st.Size()/defaultBlockBytes) + 1
	if len(r.blocks) > maxBlocks {
		t.Fatalf("sparse index has %d blocks for a %d-byte file, bound is %d", len(r.blocks), st.Size(), maxBlocks)
	}
	if len(r.blocks) >= n/10 {
		t.Fatalf("index has %d entries for %d records — not sparse", len(r.blocks), n)
	}
	// Every key must still be reachable through the sparse index.
	for _, i := range []int{0, 1, n / 3, n / 2, n - 2, n - 1} {
		key := []byte(fmt.Sprintf("key-%08d", i))
		e, ok, err := runGet(r, key)
		if err != nil || !ok {
			t.Fatalf("get(%s) = ok=%v err=%v", key, ok, err)
		}
		if len(e.value) != valSize {
			t.Fatalf("get(%s) value %d bytes, want %d", key, len(e.value), valSize)
		}
	}
	if _, ok, err := runGet(r, []byte("absent")); ok || err != nil {
		t.Fatalf("get(absent) = ok=%v err=%v", ok, err)
	}
	if _, ok, err := runGet(r, []byte("zzz-beyond-everything")); ok || err != nil {
		t.Fatalf("get(beyond) = ok=%v err=%v", ok, err)
	}
}

// TestRunScanReadBound: a full scan must read each block exactly once —
// O(entries/blockSize) disk reads, not O(entries).
func TestRunScanReadBound(t *testing.T) {
	const n, valSize = 20000, 100
	m := &Metrics{}
	r := buildBigRun(t, t.TempDir(), n, valSize, runConfig{metrics: m})
	before := m.BlockReads.Value()
	got := 0
	it := r.iter(nil, true)
	for ; it.valid(); it.next() {
		got++
	}
	if err := it.fail(); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("scan yielded %d entries, want %d", got, n)
	}
	reads := m.BlockReads.Value() - before
	st, _ := r.f.Stat()
	bound := st.Size()/defaultBlockBytes + 1
	if reads > bound {
		t.Fatalf("full scan issued %d block reads for a %d-byte run, bound is %d", reads, st.Size(), bound)
	}
	if reads != int64(len(r.blocks)) {
		t.Fatalf("scan read %d blocks, run has %d", reads, len(r.blocks))
	}
}

// TestRunHotGetsHitCacheZeroReads: once a block is cached, point gets served
// from it must issue zero disk reads — the acceptance criterion behind
// BenchmarkReadPath/hot-get.
func TestRunHotGetsHitCacheZeroReads(t *testing.T) {
	const n = 5000
	m := &Metrics{}
	cache := NewBlockCache(DefaultBlockCacheBytes)
	r := buildBigRun(t, t.TempDir(), n, 100, runConfig{metrics: m, cache: cache})
	keys := [][]byte{
		[]byte(fmt.Sprintf("key-%08d", 0)),
		[]byte(fmt.Sprintf("key-%08d", n/2)),
		[]byte(fmt.Sprintf("key-%08d", n-1)),
	}
	// Warm: first get per key may read a block.
	for _, k := range keys {
		if _, ok, err := runGet(r, k); !ok || err != nil {
			t.Fatalf("warm get(%s): ok=%v err=%v", k, ok, err)
		}
	}
	before := m.BlockReads.Value()
	for i := 0; i < 100; i++ {
		for _, k := range keys {
			if _, ok, err := runGet(r, k); !ok || err != nil {
				t.Fatalf("hot get(%s): ok=%v err=%v", k, ok, err)
			}
		}
	}
	if reads := m.BlockReads.Value() - before; reads != 0 {
		t.Fatalf("hot gets issued %d disk reads, want 0", reads)
	}
	s := cache.Stats()
	if s.Hits == 0 || s.Hits+s.Misses != s.Lookups {
		t.Fatalf("cache ledger after hot gets: hits=%d misses=%d lookups=%d", s.Hits, s.Misses, s.Lookups)
	}
}

// TestRunOpenRejectsCorruptTrailerLengths is the open-time half of the
// unvalidated-allocation regression: a trailer whose index/bloom lengths
// exceed the file must be rejected before any allocation sized from them.
func TestRunOpenRejectsCorruptTrailerLengths(t *testing.T) {
	dir := t.TempDir()
	r := buildBigRun(t, dir, 100, 50, runConfig{})
	path := r.path
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func([]byte){
		"huge index length": func(tr []byte) { binary.LittleEndian.PutUint32(tr[0:], 0xFFFFFFF0) },
		"huge bloom length": func(tr []byte) { binary.LittleEndian.PutUint32(tr[4:], 0xFFFFFFF0) },
		"wrong entry count": func(tr []byte) { binary.LittleEndian.PutUint64(tr[8:], 7) },
	} {
		corrupt := append([]byte(nil), data...)
		mut(corrupt[len(corrupt)-runTrailerLen:])
		p := filepath.Join(dir, "corrupt.lsm")
		if err := osWriteFile(p, corrupt); err != nil {
			t.Fatal(err)
		}
		if _, err := openRun(p, runConfig{}, 0); err == nil {
			t.Fatalf("%s: openRun accepted the corrupt file", name)
		}
	}
}

// TestRunOpenTruncated: any truncation — mid final block, mid index, mid
// trailer — must fail the open loudly, never produce a run that silently
// serves a prefix.
func TestRunOpenTruncated(t *testing.T) {
	dir := t.TempDir()
	r := buildBigRun(t, dir, 5000, 100, runConfig{})
	data, err := os.ReadFile(r.path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{
		len(data) - 1,               // inside the trailer
		len(data) - runTrailerLen/2, // half the trailer gone
		len(data) - 200,             // inside bloom/index
		len(data) / 2,               // inside the block section
		len(runMagic) + 10,          // almost everything gone
	} {
		p := filepath.Join(dir, "trunc.lsm")
		if err := osWriteFile(p, data[:cut]); err != nil {
			t.Fatal(err)
		}
		if _, err := openRun(p, runConfig{}, 0); err == nil {
			t.Fatalf("openRun accepted a run truncated to %d of %d bytes", cut, len(data))
		}
	}
}

// TestTreeOpenFailsOnTruncatedRun is the tree-level version: a published run
// truncated by the crash (torn final block) must fail Open loudly — the run
// was renamed into place, so its loss is real corruption, not sweepable
// debris.
func TestTreeOpenFailsOnTruncatedRun(t *testing.T) {
	dir := t.TempDir()
	tr := openTest(t, Options{Dir: dir})
	for i := 0; i < 500; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%06d", i)), bytes.Repeat([]byte{'v'}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	runs, _ := filepath.Glob(filepath.Join(dir, "run-*.lsm"))
	if len(runs) == 0 {
		t.Fatal("no runs after flush")
	}
	st, err := os.Stat(runs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(runs[0], st.Size()-13); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open accepted a tree with a truncated published run")
	}
}

// TestRunReadBlockFaultInjection covers the read:block fault point directly:
// a transient error fails the read cleanly; ErrCorruptRead flips a bit so
// the CRC rejects the block with an error that is both a checksum failure
// (the symptom) and retryable (the bytes on disk are fine) — and the
// poisoned bytes must never land in the cache.
func TestRunReadBlockFaultInjection(t *testing.T) {
	cache := NewBlockCache(DefaultBlockCacheBytes)
	cfg := runConfig{cache: cache}
	hits := 0
	cfg.fault = func(op string) error {
		if op != "read:block" {
			return nil
		}
		hits++
		switch hits {
		case 1:
			return ErrInjected
		case 2:
			return ErrCorruptRead
		}
		return nil
	}
	r := buildBigRun(t, t.TempDir(), 1000, 100, cfg)
	key := []byte(fmt.Sprintf("key-%08d", 500))

	// 1st read: transient error.
	if _, _, err := runGet(r, key); !errors.Is(err, ErrInjected) {
		t.Fatalf("first get error = %v, want ErrInjected", err)
	}
	// 2nd read: injected bit flip — checksum failure, marked retryable.
	_, _, err := runGet(r, key)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped read error = %v, want ErrChecksum", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("flipped read error = %v, want also ErrInjected (retryable)", err)
	}
	if s := cache.Stats(); s.Bytes != 0 {
		t.Fatalf("corrupt block bytes landed in the cache: %d resident", s.Bytes)
	}
	// 3rd read: clean — disk bytes were never harmed.
	if _, ok, err := runGet(r, key); !ok || err != nil {
		t.Fatalf("post-fault get: ok=%v err=%v", ok, err)
	}
}

// TestRunIterFailSurfacesReadError: an iterator that dies mid-scan must
// report the error through fail(), not masquerade as clean exhaustion.
func TestRunIterFailSurfacesReadError(t *testing.T) {
	// Let the first block load so the iterator starts; kill the second.
	cfg := runConfig{}
	n := 0
	cfg.fault = func(op string) error {
		if op != "read:block" {
			return nil
		}
		n++
		if n == 2 {
			return ErrInjected
		}
		return nil
	}
	r := buildBigRun(t, t.TempDir(), 5000, 100, cfg)
	if len(r.blocks) < 3 {
		t.Fatalf("need >= 3 blocks, got %d", len(r.blocks))
	}
	it := r.iter(nil, true)
	seen := 0
	for ; it.valid(); it.next() {
		seen++
	}
	if err := it.fail(); !errors.Is(err, ErrInjected) {
		t.Fatalf("fail() = %v after %d entries, want ErrInjected", err, seen)
	}
	if seen >= r.len() {
		t.Fatalf("iterator claimed all %d entries despite a failed block read", seen)
	}
}

// TestMergePropagatesReadError: a block read failure while merging must fail
// the merge — not silently truncate the output run.
func TestMergePropagatesReadError(t *testing.T) {
	dir := t.TempDir()
	a := buildRun(t, dir, 1, []entry{e("a", "1"), e("b", "2")})
	defer a.close()
	failing := runConfig{}
	n := 0
	failing.fault = func(op string) error {
		if op == "read:block" {
			n++
			return ErrInjected
		}
		return nil
	}
	rw, err := newRunWriter(filepath.Join(dir, "run-000002.lsm"), nil, 4, failing)
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.add(e("c", "3")); err != nil {
		t.Fatal(err)
	}
	if err := rw.add(e("d", "4")); err != nil {
		t.Fatal(err)
	}
	b, err := rw.finish()
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()

	_, err = mergeRuns(filepath.Join(dir, "run-000003.lsm"), []*run{b, a}, runConfig{})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("mergeRuns = %v, want ErrInjected from the failed input read", err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "run-000003.lsm*")); len(tmps) != 0 {
		t.Fatalf("failed merge left files behind: %v", tmps)
	}
}

// TestRunMultiBlockIterFrom checks iteration starting inside and between
// blocks of a multi-block run — sparse-index seek plus in-block search.
func TestRunMultiBlockIterFrom(t *testing.T) {
	const n = 5000
	r := buildBigRun(t, t.TempDir(), n, 100, runConfig{})
	if len(r.blocks) < 3 {
		t.Fatalf("need a multi-block run, got %d blocks", len(r.blocks))
	}
	for _, start := range []int{0, 1, n / 3, n / 2, n - 1} {
		from := []byte(fmt.Sprintf("key-%08d", start))
		it := r.iter(from, true)
		count := 0
		expect := start
		for ; it.valid(); it.next() {
			ent, err := it.curr()
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("key-%08d", expect); string(ent.key) != want {
				t.Fatalf("iter(from=%s) entry %d = %q, want %q", from, count, ent.key, want)
			}
			expect++
			count++
		}
		if err := it.fail(); err != nil {
			t.Fatal(err)
		}
		if count != n-start {
			t.Fatalf("iter(from=%s) yielded %d entries, want %d", from, count, n-start)
		}
	}
	// A from between two keys starts at the next key.
	it := r.iter([]byte("key-00000010x"), true)
	if !it.valid() {
		t.Fatal("iter between keys is empty")
	}
	if ent, _ := it.curr(); string(ent.key) != "key-00000011" {
		t.Fatalf("iter between keys starts at %q, want key-00000011", ent.key)
	}
}
