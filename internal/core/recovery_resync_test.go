package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/lsm"
	"asterixfeeds/internal/storage"
)

// seedPartition opens partition idx of ds on node and fills it with n
// records.
func seedPartition(t *testing.T, h *harness, ds *storage.Dataset, node string, idx, n int) *storage.Partition {
	t.Helper()
	sm, _ := h.cluster.Node(node).Service(storage.ServiceName).(*storage.Manager)
	p, err := sm.OpenPartitionIdx(ds, idx, false)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = adm.Encode(tweet(i, idx, "seed"))
	}
	if err := p.InsertFrame(recs); err != nil {
		t.Fatal(err)
	}
	return p
}

func replicaOn(h *harness, ds *storage.Dataset, node string, idx int) *storage.Partition {
	sm, _ := h.cluster.Node(node).Service(storage.ServiceName).(*storage.Manager)
	if sm == nil {
		return nil
	}
	return sm.PartitionIdx(ds.QualifiedName(), idx)
}

// TestResyncCopiesPrimaryToReplica: the happy path of replica bootstrap —
// the promoted partition's contents land in a fresh replica on the distinct
// nodegroup successor.
func TestResyncCopiesPrimaryToReplica(t *testing.T) {
	h := newHarness(t, "A", "B", "C")
	ds := h.declareTweetDataset("RS", "B", "C")
	ds.Replicated = true
	seedPartition(t, h, ds, "B", 0, 40)

	conn := &Connection{}
	if err := h.mgr.resyncReplicaLocked(conn, ds, 0); err != nil {
		t.Fatal(err)
	}
	rp := replicaOn(h, ds, "C", 0)
	if rp == nil {
		t.Fatal("resync did not open a replica partition on C")
	}
	if n, _ := rp.Count(); n != 40 {
		t.Fatalf("replica has %d records, want 40", n)
	}
	if got := conn.ResyncDegradations(); len(got) != 0 {
		t.Fatalf("unexpected degradations: %v", got)
	}
}

// TestResyncPartialCopyDiscardsAndRetries: an injected failure mid-copy
// must not leave a torn replica behind — the partial directory is discarded
// and the retry converges to a full copy.
func TestResyncPartialCopyDiscardsAndRetries(t *testing.T) {
	h := newHarness(t, "A", "B", "C")
	var hits atomic.Int64
	h.mgr.opt.FaultHook = func(point string) error {
		if point == "resync:insert" && hits.Add(1) == 10 {
			return lsm.ErrInjected
		}
		return nil
	}
	ds := h.declareTweetDataset("RS", "B", "C")
	ds.Replicated = true
	seedPartition(t, h, ds, "B", 0, 40)

	conn := &Connection{}
	if err := h.mgr.resyncReplicaLocked(conn, ds, 0); err != nil {
		t.Fatal(err)
	}
	rp := replicaOn(h, ds, "C", 0)
	if rp == nil {
		t.Fatal("retry did not open a replica partition")
	}
	if n, _ := rp.Count(); n != 40 {
		t.Fatalf("replica has %d records after retry, want 40 (partial copy must be discarded, not resumed)", n)
	}
	if got := conn.ResyncDegradations(); len(got) != 0 {
		t.Fatalf("unexpected degradations: %v", got)
	}
}

// TestResyncAbandonedRecordsDegradation: when every copy attempt fails the
// partial replica is removed and the failure is surfaced as a degradation —
// never a silent nil with a torn tree left to be promoted later.
func TestResyncAbandonedRecordsDegradation(t *testing.T) {
	h := newHarness(t, "A", "B", "C")
	h.mgr.opt.FaultHook = func(point string) error {
		if point == "resync:insert" {
			return lsm.ErrInjected
		}
		return nil
	}
	ds := h.declareTweetDataset("RS", "B", "C")
	ds.Replicated = true
	seedPartition(t, h, ds, "B", 0, 10)

	conn := &Connection{}
	if err := h.mgr.resyncReplicaLocked(conn, ds, 0); err != nil {
		t.Fatal(err)
	}
	if rp := replicaOn(h, ds, "C", 0); rp != nil {
		t.Fatal("abandoned resync left a partial replica registered")
	}
	degs := conn.ResyncDegradations()
	if len(degs) != 1 || !strings.Contains(degs[0], "abandoned") {
		t.Fatalf("degradations = %v, want one abandoned-resync entry", degs)
	}
}

// TestResyncDegradesWithoutLiveTarget: a dead target records a degradation
// instead of silently succeeding.
func TestResyncDegradesWithoutLiveTarget(t *testing.T) {
	h := newHarness(t, "A", "B", "C")
	ds := h.declareTweetDataset("RS", "B", "C")
	ds.Replicated = true
	seedPartition(t, h, ds, "B", 0, 5)
	h.cluster.KillNode("C")

	conn := &Connection{}
	if err := h.mgr.resyncReplicaLocked(conn, ds, 0); err != nil {
		t.Fatal(err)
	}
	degs := conn.ResyncDegradations()
	if len(degs) != 1 || !strings.Contains(degs[0], "down") {
		t.Fatalf("degradations = %v, want one target-down entry", degs)
	}
}

// TestAckLossIsReplayedNotLost: dropped ack messages (the "ack:<node>"
// fault point) must not lose records — the at-least-once sweeper replays
// the un-acked records and the idempotent upsert converges to the exact
// record set.
func TestAckLossIsReplayedNotLost(t *testing.T) {
	h := newHarness(t, "A", "B")
	var drops atomic.Int64
	h.mgr.opt.FaultHook = func(point string) error {
		// Drop the first 5 ack deliveries.
		if strings.HasPrefix(point, "ack:") && drops.Add(1) <= 5 {
			return lsm.ErrInjected
		}
		return nil
	}
	const total = 400
	ds := h.declareTweetDataset("Tweets", "B")
	h.declarePrimaryFeed("F", makeGen(total, 0), 1, "")
	conn, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "AtLeastOnce")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "all records persisted despite ack loss", func() bool {
		return h.datasetCount(ds) == total
	})
	// The dropped acks left their records tracked: the sweeper must replay
	// them (the idempotent upsert keeps the count stable).
	waitFor(t, 10*time.Second, "at-least-once replay of un-acked records", func() bool {
		return conn.Metrics.Replayed.Value() > 0
	})
	if drops.Load() < 5 {
		t.Fatalf("ack-loss fault fired %d times, want 5", drops.Load())
	}
	if err := h.mgr.DisconnectFeed("feeds", "F", "Tweets"); err != nil {
		t.Fatal(err)
	}
	if n := h.datasetCount(ds); n != total {
		t.Fatalf("final count %d, want %d (no loss, no phantoms)", n, total)
	}
}
