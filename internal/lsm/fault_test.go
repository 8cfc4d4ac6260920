package lsm

import (
	"errors"
	"fmt"
	"testing"
)

// hookOn returns a FaultHook that returns inject the nth time (1-based) op
// is hit, and nil otherwise.
func hookOn(op string, nth int, inject error) FaultHook {
	hits := 0
	return func(got string) error {
		if got != op {
			return nil
		}
		hits++
		if hits == nth {
			return inject
		}
		return nil
	}
}

// TestInjectedAppendErrorIsTransient: a clean injected failure fails that
// Put only — nothing reaches the WAL or memtable, and the tree keeps
// working.
func TestInjectedAppendErrorIsTransient(t *testing.T) {
	tr, err := Open(Options{Dir: t.TempDir(), FaultHook: hookOn("wal.appendBatch", 2, ErrInjected)})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	if err := tr.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put([]byte("k2"), []byte("v2")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Put under injected fault = %v, want ErrInjected", err)
	}
	if _, ok, _ := tr.Get([]byte("k2")); ok {
		t.Fatal("failed Put left a record behind")
	}
	if err := tr.Put([]byte("k3"), []byte("v3")); err != nil {
		t.Fatalf("tree unusable after transient injected fault: %v", err)
	}
	if n, _ := tr.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
}

// TestTornBatchWedgesWALAndReplayDropsIt: an injected torn write leaves a
// prefix of the batch record on disk, wedges the log (ErrWALBroken), and a
// reopen — the crashed node's recovery — replays everything before the torn
// batch and nothing from it.
func TestTornBatchWedgesWALAndReplayDropsIt(t *testing.T) {
	dir := t.TempDir()
	tr, err := Open(Options{Dir: dir, FaultHook: hookOn("wal.appendBatch", 2, ErrTornWrite)})
	if err != nil {
		t.Fatal(err)
	}

	first := NewBatch(4)
	for i := 0; i < 4; i++ {
		first.Put([]byte(fmt.Sprintf("a%02d", i)), []byte("v"))
	}
	if err := tr.ApplyBatch(first); err != nil {
		t.Fatal(err)
	}
	second := NewBatch(4)
	for i := 0; i < 4; i++ {
		second.Put([]byte(fmt.Sprintf("b%02d", i)), []byte("v"))
	}
	if err := tr.ApplyBatch(second); !errors.Is(err, ErrTornWrite) {
		t.Fatalf("ApplyBatch under torn write = %v, want ErrTornWrite", err)
	}

	// The log is wedged: the tree must be abandoned like a crashed node's.
	if err := tr.Put([]byte("late"), []byte("v")); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("Put after torn write = %v, want ErrWALBroken", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	n, err := re.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("replay recovered %d records, want the 4 before the torn batch", n)
	}
	if _, ok, _ := re.Get([]byte("b00")); ok {
		t.Fatal("torn batch partially applied on replay")
	}
}

// TestTornSingleAppendRecovery mirrors the batch case for the one-op batch
// a Put or Delete writes.
func TestTornSingleAppendRecovery(t *testing.T) {
	dir := t.TempDir()
	tr, err := Open(Options{Dir: dir, FaultHook: hookOn("wal.appendBatch", 3, ErrTornWrite)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Put([]byte("torn"), []byte("v")); !errors.Is(err, ErrTornWrite) {
		t.Fatalf("Put under torn write = %v, want ErrTornWrite", err)
	}
	if err := tr.Delete([]byte("k0")); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("Delete after torn write = %v, want ErrWALBroken", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n, _ := re.Len(); n != 2 {
		t.Fatalf("replay recovered %d records, want 2", n)
	}
	if _, ok, _ := re.Get([]byte("torn")); ok {
		t.Fatal("torn record visible after replay")
	}
}

// TestInjectedSyncErrorLeavesRecordUnacked: a failed fsync fails the Put
// (so the caller will not ack it) but the tree survives; on the Put's
// retry the upsert is idempotent.
func TestInjectedSyncErrorLeavesRecordUnacked(t *testing.T) {
	tr, err := Open(Options{Dir: t.TempDir(), SyncWAL: 1, FaultHook: hookOn("wal.sync", 2, ErrInjected)})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Put([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put([]byte("k2"), []byte("v")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Put under failed fsync = %v, want ErrInjected", err)
	}
	// Retry converges: idempotent upsert.
	if err := tr.Put([]byte("k2"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if n, _ := tr.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
}
