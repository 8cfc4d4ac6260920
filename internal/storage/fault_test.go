package storage

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/lsm"
)

// frameOf encodes n sequential tweet records as a frame.
func frameOf(start, n int) [][]byte {
	recs := make([][]byte, 0, n)
	for i := start; i < start+n; i++ {
		rec := tweetRec(fmt.Sprintf("t%04d", i), fmt.Sprintf("user%d", i%7), &adm.Point{X: float64(i % 90), Y: float64(i % 45)})
		recs = append(recs, adm.Encode(rec))
	}
	return recs
}

// TestDataErrorClassification: record-caused failures are DataErrors,
// injected environmental failures are not.
func TestDataErrorClassification(t *testing.T) {
	ds := testDataset()
	fire := false
	m := NewManager("A", t.TempDir(), lsm.Options{FaultHook: func(op string) error {
		if fire && strings.HasSuffix(op, "wal.appendBatch") {
			return lsm.ErrInjected
		}
		return nil
	}})
	defer m.Close()
	p, err := m.OpenPartition(ds)
	if err != nil {
		t.Fatal(err)
	}

	bad := (&adm.RecordBuilder{}).Add("id", adm.String("x")).MustBuild()
	if err := p.InsertFrame(encodeFrame(bad)); !IsDataError(err) {
		t.Fatalf("validation failure = %v, want DataError", err)
	}

	fire = true
	if err := p.InsertFrame(encodeFrame(tweetRec("t1", "u", nil))); err == nil || IsDataError(err) {
		t.Fatalf("injected WAL failure = %v, want non-data error", err)
	}
}

// TestInsertFrameNamesEveryRefusal: a 128-record frame with refusals at
// positions 0, 64 and 127 gets one DataError that names all three, with the
// partition untouched, and the 125 survivors then cost one WAL append per
// tree — one call, where a retry of one-record frames costs one per record
// per tree (381 for a frame of 128 with one refusal).
func TestInsertFrameNamesEveryRefusal(t *testing.T) {
	lm := &lsm.Metrics{}
	m := NewManager("A", t.TempDir(), lsm.Options{Metrics: lm})
	defer m.Close()
	ds := testDataset()
	p, err := m.OpenPartition(ds)
	if err != nil {
		t.Fatal(err)
	}
	insertRecs(t, p, tweetRec("kept", "alice", nil))
	appends := lm.WALAppends.Value()

	frame := frameOf(0, 128)
	frame[0] = adm.Encode((&adm.RecordBuilder{}).Add("id", adm.String("x")).MustBuild())
	frame[64] = adm.Encode((&adm.RecordBuilder{}).Add("user_name", adm.String("u")).Add("message_text", adm.String("m")).MustBuild())
	frame[127] = []byte{0xEE, 0x01}
	err = p.InsertFrame(frame)
	var de *DataError
	if !errors.As(err, &de) || !IsDataError(err) {
		t.Fatalf("InsertFrame = %v, want a DataError", err)
	}
	var pos []int
	for _, r := range de.Refused {
		if r.Err == nil {
			t.Fatalf("refusal of record %d has no cause", r.Pos)
		}
		pos = append(pos, r.Pos)
		if want := fmt.Sprintf("record %d: %v", r.Pos, r.Err); !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
	if fmt.Sprint(pos) != "[0 64 127]" {
		t.Fatalf("refused positions = %v, want [0 64 127]", pos)
	}
	if n, err := p.Count(); err != nil || n != 1 {
		t.Fatalf("Count = %d, %v after the refusal; want 1 (partition untouched)", n, err)
	}
	if err := p.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
	if got := lm.WALAppends.Value(); got != appends {
		t.Fatalf("the refused frame appended %d WAL records, want 0", got-appends)
	}

	survivors := append(append([][]byte(nil), frame[1:64]...), frame[65:127]...)
	if err := p.InsertFrame(survivors); err != nil {
		t.Fatal(err)
	}
	if got, want := lm.WALAppends.Value()-appends, int64(1+len(ds.Indexes)); got != want {
		t.Fatalf("the survivors cost %d WAL appends, want %d: one per tree", got, want)
	}
	if n, err := p.Count(); err != nil || n != 126 {
		t.Fatalf("Count = %d, %v; want 126", n, err)
	}
	if err := p.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
}

// TestInsertFrameFaultFallbackNoLossNoPhantoms: a frame whose batched
// insert dies on an environmental fault is retried once, whole (exactly
// what storeRuntime does), and the partition ends with every record exactly
// once — none lost, none phantom, secondaries consistent.
func TestInsertFrameFaultFallbackNoLossNoPhantoms(t *testing.T) {
	ds := testDataset()
	armed := false
	fired := 0
	m := NewManager("A", t.TempDir(), lsm.Options{FaultHook: func(op string) error {
		if armed && strings.HasSuffix(op, "primary/wal.appendBatch") {
			armed = false
			fired++
			return lsm.ErrInjected
		}
		return nil
	}})
	defer m.Close()
	p, err := m.OpenPartition(ds)
	if err != nil {
		t.Fatal(err)
	}

	if err := p.InsertFrame(frameOf(0, 10)); err != nil {
		t.Fatal(err)
	}

	armed = true
	frame := frameOf(10, 10)
	if err := p.InsertFrame(frame); err == nil || IsDataError(err) {
		t.Fatalf("InsertFrame under fault = %v, want environmental error", err)
	}
	if fired != 1 {
		t.Fatalf("fault fired %d times, want 1", fired)
	}
	// The store stage's retry: the same frame, once.
	if err := p.InsertFrame(frame); err != nil {
		t.Fatal(err)
	}

	n, err := p.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("Count = %d, want 20 (no loss, no phantoms)", n)
	}
	if err := p.VerifyIndexes(); err != nil {
		t.Fatalf("index consistency after the retry: %v", err)
	}
}

// TestInsertFrameTornPrimaryRecovery kills the primary WAL mid-frame with a
// torn write — the crash-mid-InsertFrame case. The node is "dead" (the
// wedged tree refuses writes); reopening from disk must replay every frame
// before the torn one and drop the torn batch atomically, with secondaries
// agreeing (primary batch precedes secondary batches, so a torn primary
// means no secondary writes for that frame).
func TestInsertFrameTornPrimaryRecovery(t *testing.T) {
	ds := testDataset()
	dir := t.TempDir()
	frameNo := 0
	m := NewManager("A", dir, lsm.Options{FaultHook: func(op string) error {
		if strings.HasSuffix(op, "primary/wal.appendBatch") {
			frameNo++
			if frameNo == 3 {
				return lsm.ErrTornWrite
			}
		}
		return nil
	}})
	p, err := m.OpenPartition(ds)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		if err := p.InsertFrame(frameOf(i*8, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.InsertFrame(frameOf(16, 8)); !errors.Is(err, lsm.ErrTornWrite) {
		t.Fatalf("InsertFrame mid-crash = %v, want ErrTornWrite", err)
	}
	// The tree is wedged exactly like a crashed node's.
	if err := p.InsertFrame(frameOf(24, 8)); !errors.Is(err, lsm.ErrWALBroken) {
		t.Fatalf("InsertFrame after crash = %v, want ErrWALBroken", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery: reopen the node's storage from disk and replay.
	re := NewManager("A", dir, lsm.Options{})
	defer re.Close()
	rp, err := re.OpenPartition(ds)
	if err != nil {
		t.Fatal(err)
	}
	n, err := rp.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 16 {
		t.Fatalf("recovered %d records, want the 16 from whole frames (torn frame dropped atomically)", n)
	}
	if err := rp.VerifyIndexes(); err != nil {
		t.Fatalf("index consistency after replay: %v", err)
	}
	// Replaying the lost frame (what at-least-once does for un-acked
	// records) converges idempotently.
	if err := rp.InsertFrame(frameOf(16, 8)); err != nil {
		t.Fatal(err)
	}
	if err := rp.InsertFrame(frameOf(8, 8)); err != nil { // duplicate frame: upsert
		t.Fatal(err)
	}
	if n, _ = rp.Count(); n != 24 {
		t.Fatalf("after replay Count = %d, want 24", n)
	}
	if err := rp.VerifyIndexes(); err != nil {
		t.Fatalf("index consistency after replay+retry: %v", err)
	}
}

// TestInsertFrameTornSecondaryRecovery tears the WAL of a secondary tree
// mid-frame instead: on replay the primary holds the frame but the
// secondary dropped its torn batch — re-inserting the frame (the replay of
// un-acked records) must restore full index consistency.
func TestInsertFrameTornSecondaryRecovery(t *testing.T) {
	ds := testDataset()
	dir := t.TempDir()
	hits := 0
	m := NewManager("A", dir, lsm.Options{FaultHook: func(op string) error {
		if strings.HasSuffix(op, "userIdx/wal.appendBatch") {
			hits++
			if hits == 2 {
				return lsm.ErrTornWrite
			}
		}
		return nil
	}})
	p, err := m.OpenPartition(ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.InsertFrame(frameOf(0, 6)); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertFrame(frameOf(6, 6)); !errors.Is(err, lsm.ErrTornWrite) {
		t.Fatalf("InsertFrame = %v, want ErrTornWrite", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	re := NewManager("A", dir, lsm.Options{})
	defer re.Close()
	rp, err := re.OpenPartition(ds)
	if err != nil {
		t.Fatal(err)
	}
	// Primary has 12 records, userIdx only 6: divergence VerifyIndexes must
	// catch...
	if err := rp.VerifyIndexes(); err == nil {
		t.Fatal("VerifyIndexes missed a torn secondary")
	}
	// ...and replaying the un-acked frame must repair.
	if err := rp.InsertFrame(frameOf(6, 6)); err != nil {
		t.Fatal(err)
	}
	if err := rp.VerifyIndexes(); err != nil {
		t.Fatalf("index consistency after replay: %v", err)
	}
	if n, _ := rp.Count(); n != 12 {
		t.Fatalf("Count = %d, want 12", n)
	}
}

// TestRemovePartitionIdx: a discarded replica's directory is gone and a
// reopened partition starts empty.
func TestRemovePartitionIdx(t *testing.T) {
	ds := testDataset("A", "B")
	m := NewManager("B", t.TempDir(), lsm.Options{})
	defer m.Close()
	p, err := m.OpenPartitionIdx(ds, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	insertRecs(t, p, tweetRec("t1", "u", nil))
	if err := m.RemovePartitionIdx(ds, 0, true); err != nil {
		t.Fatal(err)
	}
	if got := m.PartitionIdx(ds.QualifiedName(), 0); got != nil {
		t.Fatal("removed partition still registered")
	}
	re, err := m.OpenPartitionIdx(ds, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := re.Count(); n != 0 {
		t.Fatalf("reopened partition has %d records, want 0 (directory removed)", n)
	}
}

// TestStatsDoesNotQueueBehindDurableWrite: InsertFrame holds p.mu across
// every tree's durable write, write-stall wait included, and Stats is what
// the governor's backpressure signal and the metrics scrape call — the
// reader that is supposed to notice a backed-up LSM. So with the primary's
// flusher parked (at flush:bg, off every lock) and an InsertFrame stalled
// behind the full immutable queue, Partition.Stats and Manager.Stats must
// still answer, and must show the backlog.
func TestStatsDoesNotQueueBehindDurableWrite(t *testing.T) {
	var armed atomic.Bool
	armed.Store(true)
	stop, release := make(chan struct{}), make(chan struct{})
	resume := sync.OnceFunc(func() { close(stop); close(release) })
	lm := &lsm.Metrics{}
	m := NewManager("A", t.TempDir(), lsm.Options{
		MemtableBytes: 1 << 10, MaxImmutables: 1, Metrics: lm,
		FaultHook: func(op string) error {
			if strings.HasSuffix(op, "primary/flush:bg") && armed.CompareAndSwap(true, false) {
				<-release
			}
			return nil
		}})
	defer m.Close()
	defer resume() // before Close, which joins the parked flusher
	p, err := m.OpenPartition(testDataset())
	if err != nil {
		t.Fatal(err)
	}

	// Insert until a frame stalls: the parked flusher never drains the one
	// queued memtable, so the write that next needs to rotate waits — inside
	// InsertFrame, holding p.mu — until release.
	inserted := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			if err := p.InsertFrame(frameOf(i*10, 10)); err != nil {
				inserted <- err
				return
			}
			select {
			case <-stop:
				inserted <- nil
				return
			default:
			}
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); lm.WriteStalls.Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no InsertFrame stalled behind the parked flusher")
		}
	}

	for name, stats := range map[string]func() lsm.Stats{"Partition.Stats": p.Stats, "Manager.Stats": m.Stats} {
		got := make(chan lsm.Stats, 1)
		go func() { got <- stats() }()
		select {
		case st := <-got:
			if st.MemtableBytes == 0 || st.Immutables == 0 || st.WriteStalls == 0 {
				t.Errorf("%s = %+v, want the stalled write's memtable bytes, queued immutable and stall", name, st)
			}
		case <-time.After(100 * time.Millisecond):
			t.Errorf("%s blocked behind a stalled InsertFrame", name)
		}
	}
	resume()
	if err := <-inserted; err != nil {
		t.Fatalf("InsertFrame: %v", err)
	}
}

// TestUpsertRetryAfterSecondaryErrorConverges: an upsert frame that moves t1
// from alice to bob fails on userIdx's WAL after the primary took it, and is
// retried the way the store operator retries it. A retry that read the
// record it replaced would read bob — its own first attempt — and never
// learn of alice's entry. The blind retry puts the same entries again: the
// indexes check out, the search refuses alice's entry, and one merge of
// userIdx drops it.
func TestUpsertRetryAfterSecondaryErrorConverges(t *testing.T) {
	var armed atomic.Bool
	lm := &lsm.Metrics{}
	m := NewManager("A", t.TempDir(), lsm.Options{Metrics: lm, FaultHook: func(op string) error {
		if strings.HasSuffix(op, "userIdx/wal.appendBatch") && armed.CompareAndSwap(true, false) {
			return lsm.ErrInjected
		}
		return nil
	}})
	defer m.Close()
	p, err := m.OpenPartition(testDataset())
	if err != nil {
		t.Fatal(err)
	}
	insertRecs(t, p, tweetRec("t1", "alice", nil))

	armed.Store(true)
	frame := encodeFrame(tweetRec("t1", "bob", nil))
	if err := p.InsertFrame(frame); !errors.Is(err, lsm.ErrInjected) {
		t.Fatalf("InsertFrame under the fault = %v, want ErrInjected", err)
	}
	if err := p.InsertFrame(frame); err != nil {
		t.Fatalf("the retry: %v", err)
	}
	if err := p.VerifyIndexes(); err != nil {
		t.Fatalf("after the retry: %v", err)
	}
	if ids, err := searchIDs(p.SearchBTree("userIdx", adm.String("alice"))); err != nil || ids != "" {
		t.Fatalf("SearchBTree(alice) = %q, %v; want nothing", ids, err)
	}
	if ids, err := searchIDs(p.SearchBTree("userIdx", adm.String("bob"))); err != nil || ids != "t1" {
		t.Fatalf("SearchBTree(bob) = %q, %v; want t1", ids, err)
	}

	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	idx := p.secondaries["userIdx"]
	if err := idx.Merge(); err != nil {
		t.Fatal(err)
	}
	if n, err := idx.Len(); err != nil || n != 1 {
		t.Fatalf("userIdx holds %d entries after a merge (%v), want 1: bob's", n, err)
	}
	if n := lm.StaleDropped.Value(); n != 1 {
		t.Fatalf("the merge dropped %d stale entries, want 1: alice's", n)
	}
}
