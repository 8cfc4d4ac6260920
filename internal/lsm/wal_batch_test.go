package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// newestSeg returns the path of the highest-numbered WAL segment in dir.
func newestSeg(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatalf("no WAL segments in %s", dir)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

func TestApplyBatchBasic(t *testing.T) {
	tr := openTest(t, Options{})
	b := NewBatch(4)
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), []byte("2"))
	b.Delete([]byte("a"))
	b.Put([]byte("c"), []byte("3"))
	if err := tr.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tr.Get([]byte("a")); ok {
		t.Fatal("delete inside batch did not win over earlier put")
	}
	for k, want := range map[string]string{"b": "2", "c": "3"} {
		v, ok, err := tr.Get([]byte(k))
		if err != nil || !ok || string(v) != want {
			t.Fatalf("Get(%s) = %q, %v, %v; want %q", k, v, ok, err, want)
		}
	}
	// The batch is reusable after Reset.
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len after Reset = %d", b.Len())
	}
	b.Put([]byte("d"), []byte("4"))
	if err := tr.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := tr.Get([]byte("d")); !ok || string(v) != "4" {
		t.Fatalf("Get(d) after reused batch = %q, %v", v, ok)
	}
}

func TestApplyBatchDuplicateKeyLastWins(t *testing.T) {
	tr := openTest(t, Options{})
	b := NewBatch(3)
	b.Put([]byte("x"), []byte("1"))
	b.Put([]byte("x"), []byte("2"))
	b.Put([]byte("x"), []byte("3"))
	if err := tr.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := tr.Get([]byte("x")); !ok || string(v) != "3" {
		t.Fatalf("Get(x) = %q, %v; want last writer 3", v, ok)
	}
}

// TestWALBatchRecovery crashes a tree after a batch commit and verifies the
// composite WAL record replays the whole batch.
func TestWALBatchRecovery(t *testing.T) {
	dir := t.TempDir()
	tr, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(64)
	for i := 0; i < 64; i++ {
		b.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	b.Delete([]byte("k007"))
	if err := tr.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: close handles, skip memtable flush.
	tr.mu.Lock()
	tr.wal.f.Close()
	tr.mu.Unlock()

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if v, ok, _ := re.Get([]byte("k063")); !ok || string(v) != "v63" {
		t.Fatalf("recovered Get(k063) = %q, %v", v, ok)
	}
	if _, ok, _ := re.Get([]byte("k007")); ok {
		t.Fatal("recovery resurrected key deleted within the batch")
	}
	if n, _ := re.Len(); n != 63 {
		t.Fatalf("recovered Len = %d, want 63", n)
	}
}

// TestWALBatchTornTailAtomic truncates the WAL at every byte offset inside a
// one-op batch (the shape every Put writes) followed by a multi-op batch, and
// verifies recovery drops each torn record as a unit — records before the
// cut always survive, and no partial prefix of a batch ever applies.
func TestWALBatchTornTailAtomic(t *testing.T) {
	dir := t.TempDir()
	tr, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Put([]byte("pre"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// "pre" lives in the first segment; the swept records will land at
	// offset 0 of the fresh segment the reopen creates.
	preSeg := newestSeg(t, dir)
	preBytes, err := os.ReadFile(preSeg)
	if err != nil {
		t.Fatal(err)
	}

	tr, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Put([]byte("single"), []byte("s")); err != nil {
		t.Fatal(err)
	}
	// The one-op batch ends where the segment file ends now.
	batchSeg := newestSeg(t, dir)
	if batchSeg == preSeg {
		t.Fatalf("reopen did not rotate to a new segment (still %s)", preSeg)
	}
	fi, err := os.Stat(batchSeg)
	if err != nil {
		t.Fatal(err)
	}
	singleEnd := int(fi.Size())
	if singleEnd == 0 {
		t.Fatal("one-op batch added no bytes")
	}
	b := NewBatch(3)
	b.Put([]byte("batch-a"), []byte("aa"))
	b.Put([]byte("batch-b"), []byte("bb"))
	b.Delete([]byte("pre"))
	if err := tr.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(batchSeg)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) <= singleEnd {
		t.Fatal("batch record added no bytes")
	}

	for cut := 0; cut < len(full); cut++ {
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, filepath.Base(preSeg)), preBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cutDir, filepath.Base(batchSeg)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(Options{Dir: cutDir})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if v, ok, _ := re.Get([]byte("pre")); !ok || string(v) != "1" {
			t.Fatalf("cut %d: record before torn batch lost (got %q, %v)", cut, v, ok)
		}
		if _, ok, _ := re.Get([]byte("single")); ok != (cut >= singleEnd) {
			t.Fatalf("cut %d: one-op batch (ends at %d) present=%v", cut, singleEnd, ok)
		}
		for _, k := range []string{"batch-a", "batch-b"} {
			if _, ok, _ := re.Get([]byte(k)); ok {
				t.Fatalf("cut %d: torn batch partially applied (%s present)", cut, k)
			}
		}
		re.Close()
	}

	// The intact file replays both records in full, including the delete.
	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok, _ := re.Get([]byte("pre")); ok {
		t.Fatal("batch delete of pre not replayed")
	}
	for k, want := range map[string]string{"single": "s", "batch-a": "aa", "batch-b": "bb"} {
		if v, ok, _ := re.Get([]byte(k)); !ok || string(v) != want {
			t.Fatalf("intact replay Get(%s) = %q, %v", k, v, ok)
		}
	}
}

// TestWALBatchCorruptCRCDropped flips one byte inside a committed batch
// record and verifies replay rejects the whole batch.
func TestWALBatchCorruptCRCDropped(t *testing.T) {
	dir := t.TempDir()
	tr, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tr.Put([]byte("pre"), []byte("1"))
	b := NewBatch(2)
	b.Put([]byte("ba"), []byte("x"))
	b.Put([]byte("bb"), []byte("y"))
	if err := tr.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	tr.Close()

	path := newestSeg(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // corrupt the batch's last value byte
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if v, ok, _ := re.Get([]byte("pre")); !ok || string(v) != "1" {
		t.Fatalf("record before corrupt batch lost (got %q, %v)", v, ok)
	}
	for _, k := range []string{"ba", "bb"} {
		if _, ok, _ := re.Get([]byte(k)); ok {
			t.Fatalf("corrupt batch partially applied (%s present)", k)
		}
	}
}

// legacyWALRecord encodes a top-level single-mutation record the way builds
// before the batch-only writer did:
//
//	crc32(le u32) kind(1) klen(uvarint) vlen(uvarint) key value
//
// Nothing in the package writes this shape anymore; replay must still read
// it from a data directory an earlier build left behind.
func legacyWALRecord(kind walRecordKind, key, value []byte) []byte {
	body := []byte{byte(kind)}
	body = binary.AppendUvarint(body, uint64(len(key)))
	body = binary.AppendUvarint(body, uint64(len(value)))
	body = append(append(body, key...), value...)
	return append(binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(body)), body...)
}

// TestWALMixedRecordKindsReplayInOrder hand-builds a segment that interleaves
// legacy top-level walPut/walDelete records with composite batch records —
// the tail an earlier build's Put/Delete/ApplyBatch mix left — and verifies
// recovery applies them in log order (last writer wins across kinds), and
// that a torn legacy record at the tail is dropped like any torn record.
func TestWALMixedRecordKindsReplayInOrder(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(filepath.Join(dir, "wal-000001.log"), false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	legacy := func(kind walRecordKind, key, value string) {
		t.Helper()
		if _, err := w.f.Write(legacyWALRecord(kind, []byte(key), []byte(value))); err != nil {
			t.Fatal(err)
		}
	}
	batch := func(ops ...batchOp) {
		t.Helper()
		if err := w.appendBatch(ops); err != nil {
			t.Fatal(err)
		}
	}
	// 1. legacy puts
	legacy(walPut, "a", "old")
	legacy(walPut, "gone", "x")
	// 2. batch overwrites a, creates b
	batch(batchOp{walPut, []byte("a"), []byte("batched")}, batchOp{walPut, []byte("b"), []byte("1")})
	// 3. legacy delete between batches
	legacy(walDelete, "gone", "")
	// 4. second batch overwrites b, deletes a
	batch(batchOp{walPut, []byte("b"), []byte("2")}, batchOp{kind: walDelete, key: []byte("a")})
	// 5. legacy put after the last batch, then a torn legacy record
	legacy(walPut, "c", "3")
	torn := legacyWALRecord(walPut, []byte("torn"), []byte("never"))
	if _, err := w.f.Write(torn[:len(torn)-2]); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	m := &Metrics{}
	re, err := Open(Options{Dir: dir, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := m.RecoveryReplayed.Value(); got != 8 {
		t.Fatalf("replayed %d mutations, want 8 (3 legacy puts + 1 legacy delete + 4 batched)", got)
	}
	if _, ok, _ := re.Get([]byte("a")); ok {
		t.Fatal("batch delete after legacy put not replayed in order")
	}
	if _, ok, _ := re.Get([]byte("gone")); ok {
		t.Fatal("legacy delete between batches not replayed in order")
	}
	if v, ok, _ := re.Get([]byte("b")); !ok || string(v) != "2" {
		t.Fatalf("Get(b) = %q, %v; want later batch to win", v, ok)
	}
	if v, ok, _ := re.Get([]byte("c")); !ok || string(v) != "3" {
		t.Fatalf("Get(c) = %q, %v; legacy put after the last batch lost", v, ok)
	}
	if _, ok, _ := re.Get([]byte("torn")); ok {
		t.Fatal("torn legacy record applied")
	}
	if n, _ := re.Len(); n != 2 {
		t.Fatalf("recovered Len = %d, want 2", n)
	}
}

// TestWALBatchGroupCommitSyncs verifies a batch is one fsync: with
// SyncWAL=1, each ApplyBatch pays exactly one WAL fsync regardless of its
// size, and with SyncWAL=0 none.
func TestWALBatchGroupCommitSyncs(t *testing.T) {
	for _, tc := range []struct{ syncWAL, want int }{{0, 0}, {1, 3}} {
		m := &Metrics{}
		tr := openTest(t, Options{SyncWAL: tc.syncWAL, Metrics: m})
		for round := 0; round < 3; round++ {
			b := NewBatch(100)
			for i := 0; i < 100; i++ {
				b.Put([]byte(fmt.Sprintf("k%d-%03d", round, i)), []byte("v"))
			}
			if err := tr.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if got := m.WALSyncs.Value(); got != int64(tc.want) {
			t.Fatalf("SyncWAL=%d: %d WAL fsyncs after 3 batches, want %d", tc.syncWAL, got, tc.want)
		}
	}
}

// TestWALFailedWriteWedges fails a segment's write: it may have left part of
// a record in the file, where replay stops, so every later append must be
// refused rather than acked and never replayed.
func TestWALFailedWriteWedges(t *testing.T) {
	w, err := openWAL(filepath.Join(t.TempDir(), "wal-000001.log"), false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.f.Close()
	op := []batchOp{{walPut, []byte("k"), []byte("v")}}
	if err := w.appendBatch(op); err == nil || errors.Is(err, ErrWALBroken) {
		t.Fatalf("append to a closed file = %v, want its write error", err)
	}
	if err := w.appendBatch(op); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("append after a failed write = %v, want ErrWALBroken", err)
	}
}
