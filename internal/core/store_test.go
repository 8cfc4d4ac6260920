package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/lsm"
	"asterixfeeds/internal/metadata"
	"asterixfeeds/internal/storage"
)

// storeRefusalFeed declares on node A a dataset with a secondary index,
// whose storage manager counts WAL appends in the returned metrics, and a
// feed of count records on one partition in which bad(i) makes record i
// lack its primary key. The feed's frames reach the store whole: no UDF.
func storeRefusalFeed(h *harness, count int, bad func(i int) bool) (*storage.Dataset, *lsm.Metrics) {
	h.t.Helper()
	lm := &lsm.Metrics{}
	h.cluster.Node("A").SetService(storage.ServiceName,
		storage.NewManager("A", filepath.Join(h.t.TempDir(), "A"), lsm.Options{Metrics: lm}))
	rt := adm.MustRecordType("TweetsType", true, []adm.Field{
		{Name: "id", Type: adm.TString},
		{Name: "message_text", Type: adm.TString},
	})
	ds := &storage.Dataset{
		Dataverse:  "feeds",
		Name:       "Tweets",
		Type:       rt,
		PrimaryKey: []string{"id"},
		NodeGroup:  []string{"A"},
		Indexes:    []storage.IndexDecl{{Name: "textIdx", Field: "message_text", Kind: storage.BTree}},
	}
	if err := h.catalog.CreateDataset(ds); err != nil {
		h.t.Fatal(err)
	}
	h.declarePrimaryFeed("F", func(partition int, sink RecordSink, stop <-chan struct{}) error {
		for i := 0; i < count; i++ {
			rec := tweet(i, partition, fmt.Sprintf("text %d", i))
			if bad(i) {
				rec = (&adm.RecordBuilder{}).Add("message_text", adm.String("no key")).MustBuild()
			}
			if err := sink.Emit(rec); err != nil {
				return nil
			}
		}
		return nil
	}, 1, "")
	return ds, lm
}

// TestStoreRefusalsAreSoftFailures: under at-least-once, every 10th record
// lacks its primary key. The store refuses each of them as a soft failure of
// its own — logged under the store, counted, acked — and stores the rest of
// its frame in one more call: one WAL append per tree per frame, never one
// per record. Nothing is left pending and nothing replays.
func TestStoreRefusalsAreSoftFailures(t *testing.T) {
	h := newHarness(t, "A")
	const total, badCount = 400, 40
	ds, lm := storeRefusalFeed(h, total, func(i int) bool { return i%10 == 9 })
	trees := int64(1 + len(ds.Indexes))
	var frames atomic.Int64 // store frames: each delivers one grouped ack
	h.mgr.opt.FaultHook = func(point string) error {
		if point == "ack:A" {
			frames.Add(1)
		}
		return nil
	}
	conn, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "AtLeastOnce")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "every record stored or refused", func() bool {
		return conn.Metrics.Persisted.Total() == total-badCount &&
			conn.Metrics.SoftFailures.Value() == badCount && conn.PendingAcks() == 0
	})
	if n := h.datasetCount(ds); n != total-badCount {
		t.Fatalf("dataset holds %d records, want %d", n, total-badCount)
	}
	if n := conn.Log.Total(); n != badCount {
		t.Fatalf("exception log holds %d entries, want %d", n, badCount)
	}
	for _, e := range conn.Log.Entries() {
		if e.Operator != "store:feeds.Tweets" || e.Node != "A" {
			t.Fatalf("exception logged by %s on %s, want store:feeds.Tweets on A", e.Operator, e.Node)
		}
	}
	if n := conn.Metrics.Replayed.Value(); n != 0 {
		t.Fatalf("%d records replayed, want none", n)
	}
	if n := conn.Metrics.StoreErrors.Value(); n != 0 {
		t.Fatalf("%d store errors, want none", n)
	}
	// Each frame is one call for its survivors: trees appends, or none when
	// every record of it was refused. The retry of one-record frames costs
	// trees appends per survivor.
	appends, n := lm.WALAppends.Value(), frames.Load()
	if appends%trees != 0 || appends == 0 || appends/trees > n {
		t.Fatalf("%d WAL appends over %d trees for %d frames: want one per tree per frame", appends, trees, n)
	}
	if conn.State() != ConnConnected {
		t.Fatalf("state = %v; the feed must survive store refusals", conn.State())
	}
}

// TestStoreRefusalRecoveryDisabledTerminates: with recover.soft.failure
// false, the first refused record fails the connection.
func TestStoreRefusalRecoveryDisabledTerminates(t *testing.T) {
	h := newHarness(t, "A")
	storeRefusalFeed(h, 100, func(i int) bool { return i == 30 })
	fragile := &metadata.PolicyDecl{Name: "Fragile", Params: map[string]string{
		metadata.ParamRecoverSoft: "false",
	}}
	if err := h.catalog.CreatePolicy(fragile); err != nil {
		t.Fatal(err)
	}
	conn, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "Fragile")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "connection failed by the refusal", func() bool {
		return conn.State() == ConnFailed
	})
	if conn.Err() == nil {
		t.Fatal("failed connection has no error")
	}
	if n := conn.Log.Total(); n != 1 {
		t.Fatalf("exception log holds %d entries, want 1", n)
	}
}

// TestStoreRefusalsCountConsecutiveInFrameOrder: max.consecutive.soft.failures
// counts store refusals in frame order, where a stored record resets the
// count. Refusals that alternate with good records never reach a bound of
// 2, though a frame holds many of them; two refusals in a row do.
func TestStoreRefusalsCountConsecutiveInFrameOrder(t *testing.T) {
	for _, c := range []struct {
		name string
		bad  func(i int) bool
		fail bool
	}{
		{"alternating", func(i int) bool { return i%2 == 1 }, false},
		{"two in a row", func(i int) bool { return i == 40 || i == 41 }, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newHarness(t, "A")
			storeRefusalFeed(h, 100, c.bad)
			limited := &metadata.PolicyDecl{Name: "Limited", Params: map[string]string{
				metadata.ParamRecoverSoft:     "true",
				metadata.ParamMaxSoftFailures: "2",
			}}
			if err := h.catalog.CreatePolicy(limited); err != nil {
				t.Fatal(err)
			}
			conn, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "Limited")
			if err != nil {
				t.Fatal(err)
			}
			if c.fail {
				waitFor(t, 10*time.Second, "connection failed at the bound", func() bool {
					return conn.State() == ConnFailed
				})
				var bound *errTooManySoftFailures
				if !errors.As(conn.Err(), &bound) {
					t.Fatalf("connection failed with %v, want the consecutive bound", conn.Err())
				}
				return
			}
			waitFor(t, 10*time.Second, "every record stored or refused", func() bool {
				return conn.Metrics.Persisted.Total() == 50 && conn.Metrics.SoftFailures.Value() == 50
			})
			if conn.State() != ConnConnected {
				t.Fatalf("state = %v, err %v; alternating refusals must not reach the bound", conn.State(), conn.Err())
			}
		})
	}
}
