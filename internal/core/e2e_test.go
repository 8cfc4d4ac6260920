package core

import (
	"slices"
	"strings"
	"testing"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/metadata"
	"asterixfeeds/internal/storage"
)

func TestConnectPrimaryFeedNoUDF(t *testing.T) {
	h := newHarness(t, "A", "B")
	ds := h.declareTweetDataset("Tweets")
	h.declarePrimaryFeed("TwitterFeed", makeGen(500, 0), 1, "")

	conn, err := h.mgr.ConnectFeed("feeds", "TwitterFeed", "Tweets", "Basic")
	if err != nil {
		t.Fatal(err)
	}
	if conn.State() != ConnConnected {
		t.Fatalf("state = %v", conn.State())
	}
	waitFor(t, 10*time.Second, "all 500 records persisted", func() bool {
		return h.datasetCount(ds) == 500
	})
	if got := conn.Metrics.Persisted.Total(); got != 500 {
		t.Fatalf("persisted metric = %d, want 500", got)
	}
	intake, compute, store := conn.Locations()
	if len(intake) != 1 || len(compute) != 0 || len(store) != 2 {
		t.Fatalf("locations = %v %v %v", intake, compute, store)
	}
}

func TestConnectUnknowns(t *testing.T) {
	h := newHarness(t, "A")
	h.declareTweetDataset("Tweets")
	h.declarePrimaryFeed("F", makeGen(1, 0), 1, "")
	if _, err := h.mgr.ConnectFeed("feeds", "Nope", "Tweets", ""); err == nil {
		t.Fatal("unknown feed connected")
	}
	if _, err := h.mgr.ConnectFeed("feeds", "F", "Nope", ""); err == nil {
		t.Fatal("unknown dataset connected")
	}
	if _, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "NoSuchPolicy"); err == nil {
		t.Fatal("unknown policy connected")
	}
}

func TestDoubleConnectRejected(t *testing.T) {
	h := newHarness(t, "A")
	h.declareTweetDataset("Tweets")
	h.declarePrimaryFeed("F", makeGen(0, time.Millisecond), 1, "")
	if _, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", ""); err == nil {
		t.Fatal("double connect accepted")
	}
}

func TestFeedWithExternalUDF(t *testing.T) {
	h := newHarness(t, "A", "B")
	ds := h.declareTweetDataset("ProcessedTweets")
	h.declarePrimaryFeed("ProcessedTwitterFeed", makeGen(200, 0), 1, "tweetlib#sentimentAnalysis")

	conn, err := h.mgr.ConnectFeed("feeds", "ProcessedTwitterFeed", "ProcessedTweets", "Basic")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "200 processed records", func() bool {
		return h.datasetCount(ds) == 200
	})
	// Verify the UDF was applied: every stored record carries sentiment.
	checkStoredField(t, h, ds.NodeGroup, ds.QualifiedName(), "sentiment")
	if got := conn.Metrics.Computed.Total(); got != 200 {
		t.Fatalf("computed metric = %d", got)
	}
}

func checkStoredField(t *testing.T, h *harness, nodegroup []string, qname, field string) {
	t.Helper()
	checked := 0
	for _, node := range nodegroup {
		sm := storageManagerAt(t, h, node)
		p := sm.Partition(qname)
		if p == nil {
			continue
		}
		err := p.Scan(func(rec *adm.Record) bool {
			if _, ok := rec.Field(field); !ok {
				t.Fatalf("stored record lacks %s: %s", field, rec)
			}
			checked++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if checked == 0 {
		t.Fatal("no stored records to check")
	}
}

func TestCascadeNetworkSharedHead(t *testing.T) {
	h := newHarness(t, "A", "B", "C")
	raw := h.declareTweetDataset("Tweets")
	processed := h.declareTweetDataset("ProcessedTweets")

	h.declarePrimaryFeed("TwitterFeed", makeGen(0, 200*time.Microsecond), 1, "")
	h.declareSecondaryFeed("ProcessedTwitterFeed", "TwitterFeed", "tweetlib#sentimentAnalysis")

	// Connect the secondary FIRST: the head must be constructed for it
	// (order of connecting related feeds is not important, §6.3).
	connP, err := h.mgr.ConnectFeed("feeds", "ProcessedTwitterFeed", "ProcessedTweets", "Basic")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "secondary ingesting", func() bool {
		return h.datasetCount(processed) > 20
	})

	// Now connect the parent: it must reuse the existing head (fetch
	// once), adding only a tail.
	connR, err := h.mgr.ConnectFeed("feeds", "TwitterFeed", "Tweets", "Basic")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "primary ingesting", func() bool {
		return h.datasetCount(raw) > 20
	})

	// Exactly one head: the joint for the primary feed is in shared mode.
	intakeLocs, _, _ := connR.Locations()
	fm := feedManagerAtNode(t, h, intakeLocs[0])
	j, ok := fm.Joint("feeds.TwitterFeed", 0)
	if !ok {
		t.Fatal("head joint missing")
	}
	if j.Mode() != JointShared {
		t.Fatalf("head joint mode = %v, want shared", j.Mode())
	}
	if len(j.Subscribers()) != 2 {
		t.Fatalf("head subscribers = %v", j.Subscribers())
	}

	// Raw dataset records must NOT have sentiment; processed must.
	checkStoredField(t, h, processed.NodeGroup, processed.QualifiedName(), "sentiment")
	sm := storageManagerAt(t, h, raw.NodeGroup[0])
	p := sm.Partition(raw.QualifiedName())
	p.Scan(func(rec *adm.Record) bool {
		if _, has := rec.Field("sentiment"); has {
			t.Fatal("raw dataset contains processed record")
		}
		return false
	})
	_ = connP
}

func TestThirdLevelCascadeWithJointReuse(t *testing.T) {
	// Tracking ids belong to one connection: a child subscribed to a tracked
	// parent's compute joint must see plain records, assign its own ids when
	// it is tracked itself, and ack only into its own tracker.
	for _, tc := range []struct{ name, pol2, pol3 string }{
		{"Basic", "Basic", "Basic"},
		{"AtLeastOnce", "AtLeastOnce", "AtLeastOnce"},
		{"UntrackedChildOfTrackedParent", "AtLeastOnce", "Basic"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, "A", "B")
			d1 := h.declareTweetDataset("D1")
			d2 := h.declareTweetDataset("D2")
			d3 := h.declareTweetDataset("D3")

			// The source holds its records back until all three tails are
			// subscribed, so every dataset must receive every record.
			const emitted = 500
			start := make(chan struct{})
			gen := makeGen(emitted, 0)
			h.declarePrimaryFeed("F1", func(partition int, sink RecordSink, stop <-chan struct{}) error {
				select {
				case <-start:
				case <-stop:
					return nil
				}
				return gen(partition, sink, stop)
			}, 1, "")
			h.declareSecondaryFeed("F2", "F1", "addHashTags")
			h.declareSecondaryFeed("F3", "F2", "tweetlib#sentimentAnalysis")

			conn1, err := h.mgr.ConnectFeed("feeds", "F1", "D1", "Basic")
			if err != nil {
				t.Fatal(err)
			}
			conn2, err := h.mgr.ConnectFeed("feeds", "F2", "D2", tc.pol2)
			if err != nil {
				t.Fatal(err)
			}
			conn3, err := h.mgr.ConnectFeed("feeds", "F3", "D3", tc.pol3)
			if err != nil {
				t.Fatal(err)
			}
			// F3's source must be F2's compute joint, not the head: it applies
			// only its own UDF.
			if conn3.sourceSignature != "feeds.F1:addHashTags" {
				t.Fatalf("F3 source = %q, want F2's joint", conn3.sourceSignature)
			}
			if len(conn3.stages) != 1 {
				t.Fatalf("F3 stages = %d, want 1 (only sentiment)", len(conn3.stages))
			}
			for _, conn := range []*Connection{conn1, conn2, conn3} {
				waitSubscribed(t, h, conn)
			}
			close(start)

			waitFor(t, 15*time.Second, "all three datasets complete", func() bool {
				return h.datasetCount(d1) == emitted && h.datasetCount(d2) == emitted && h.datasetCount(d3) == emitted
			})
			checkStoredField(t, h, d3.NodeGroup, d3.QualifiedName(), "topics")
			checkStoredField(t, h, d3.NodeGroup, d3.QualifiedName(), "sentiment")
			checkStoredField(t, h, d2.NodeGroup, d2.QualifiedName(), "topics")
			for _, conn := range []*Connection{conn2, conn3} {
				if n := conn.Metrics.SoftFailures.Value(); n != 0 {
					t.Fatalf("%s: %d soft failures", conn.id, n)
				}
				waitFor(t, 5*time.Second, conn.id+" acks drained", func() bool { return conn.PendingAcks() == 0 })
				if conn.tracker != nil {
					if acked, _ := conn.tracker.stats(); acked != emitted {
						t.Fatalf("%s: tracker saw %d acks for %d records", conn.id, acked, emitted)
					}
				}
			}
		})
	}
}

// waitSubscribed blocks until conn's intake has subscribed to every partition
// of its source joint; records deposited from then on reach the connection.
func waitSubscribed(t *testing.T, h *harness, conn *Connection) {
	t.Helper()
	intake, _, _ := conn.Locations()
	waitFor(t, 10*time.Second, conn.id+" subscribed", func() bool {
		for i, node := range intake {
			j, ok := feedManagerAtNode(t, h, node).Joint(conn.sourceSignature, i)
			if !ok {
				return false
			}
			if _, ok := j.Subscription(conn.subID); !ok {
				return false
			}
		}
		return true
	})
}

func TestSecondaryFeedSkipsLevelsWhenAncestorsUnconnected(t *testing.T) {
	// Connecting F3 with nothing else connected must compose both UDFs in
	// its own tail (Listing 5.6).
	h := newHarness(t, "A")
	d3 := h.declareTweetDataset("D3")
	h.declarePrimaryFeed("F1", makeGen(100, 0), 1, "")
	h.declareSecondaryFeed("F2", "F1", "addHashTags")
	h.declareSecondaryFeed("F3", "F2", "tweetlib#sentimentAnalysis")

	conn, err := h.mgr.ConnectFeed("feeds", "F3", "D3", "Basic")
	if err != nil {
		t.Fatal(err)
	}
	if conn.sourceSignature != "feeds.F1" {
		t.Fatalf("source = %q, want head joint", conn.sourceSignature)
	}
	if len(conn.stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(conn.stages))
	}
	waitFor(t, 10*time.Second, "100 records through both UDFs", func() bool {
		return h.datasetCount(d3) == 100
	})
	checkStoredField(t, h, d3.NodeGroup, d3.QualifiedName(), "topics")
	checkStoredField(t, h, d3.NodeGroup, d3.QualifiedName(), "sentiment")
}

func TestDisconnectGraceful(t *testing.T) {
	h := newHarness(t, "A")
	ds := h.declareTweetDataset("Tweets")
	h.declarePrimaryFeed("F", makeGen(0, 100*time.Microsecond), 1, "")
	conn, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "Basic")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "some ingestion", func() bool { return h.datasetCount(ds) > 50 })
	if err := h.mgr.DisconnectFeed("feeds", "F", "Tweets"); err != nil {
		t.Fatal(err)
	}
	if conn.State() != ConnDisconnected {
		t.Fatalf("state = %v", conn.State())
	}
	// Ingestion has stopped: count stabilizes.
	n1 := h.datasetCount(ds)
	time.Sleep(100 * time.Millisecond)
	n2 := h.datasetCount(ds)
	if n2 != n1 {
		t.Fatalf("records still arriving after disconnect: %d -> %d", n1, n2)
	}
	// Disconnecting again errors.
	if err := h.mgr.DisconnectFeed("feeds", "F", "Tweets"); err == nil {
		t.Fatal("double disconnect accepted")
	}
	// Reconnect works (head is rebuilt).
	if _, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "Basic"); err != nil {
		t.Fatalf("reconnect: %v", err)
	}
	waitFor(t, 10*time.Second, "ingestion resumed", func() bool { return h.datasetCount(ds) > n2 })
}

func TestPartialDismantling(t *testing.T) {
	// Figure 5.10: disconnecting a parent feed with a connected child
	// keeps the shared portions alive; only persistence to the parent's
	// dataset stops.
	h := newHarness(t, "A", "B")
	dsP := h.declareTweetDataset("Raw")
	dsC := h.declareTweetDataset("Processed")
	h.declarePrimaryFeed("P", makeGen(0, 100*time.Microsecond), 1, "addHashTags")
	h.declareSecondaryFeed("C", "P", "tweetlib#sentimentAnalysis")

	connP, err := h.mgr.ConnectFeed("feeds", "P", "Raw", "Basic")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.mgr.ConnectFeed("feeds", "C", "Processed", "Basic"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "both ingesting", func() bool {
		return h.datasetCount(dsP) > 20 && h.datasetCount(dsC) > 20
	})

	if err := h.mgr.DisconnectFeed("feeds", "P", "Raw"); err != nil {
		t.Fatal(err)
	}
	if connP.State() != ConnDisconnectedKeepAlive {
		t.Fatalf("parent state = %v, want keep-alive (child still attached)", connP.State())
	}
	// Parent dataset stops growing; child keeps growing.
	nP := h.datasetCount(dsP)
	nC := h.datasetCount(dsC)
	waitFor(t, 10*time.Second, "child still ingesting", func() bool {
		return h.datasetCount(dsC) > nC+20
	})
	if got := h.datasetCount(dsP); got != nP {
		t.Fatalf("parent dataset grew after disconnect: %d -> %d", nP, got)
	}

	// Disconnecting the child sweeps the kept-alive parent away too.
	if err := h.mgr.DisconnectFeed("feeds", "C", "Processed"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "parent fully dismantled", func() bool {
		return connP.State() == ConnDisconnected
	})
}

func TestSoftFailuresAreSkippedAndLogged(t *testing.T) {
	h := newHarness(t, "A")
	ds := h.declareTweetDataset("Tweets")
	h.mgr.Functions().Register(FailEveryN("lib#flaky", 10))
	h.declarePrimaryFeed("F", makeGen(200, 0), 1, "lib#flaky")

	conn, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "Basic")
	if err != nil {
		t.Fatal(err)
	}
	// Every 10th record fails: 20 of 200 skipped.
	waitFor(t, 10*time.Second, "180 records persisted", func() bool {
		return h.datasetCount(ds) == 180
	})
	if got := conn.Metrics.SoftFailures.Value(); got != 20 {
		t.Fatalf("soft failures = %d, want 20", got)
	}
	if conn.Log.Total() != 20 {
		t.Fatalf("exception log = %d entries, want 20", conn.Log.Total())
	}
	if conn.State() != ConnConnected {
		t.Fatalf("state = %v; feed must survive soft failures", conn.State())
	}
	entries := conn.Log.Entries()
	if !strings.Contains(entries[0].Operator, "flaky") {
		t.Fatalf("log operator = %q", entries[0].Operator)
	}
}

func TestSoftFailureRecoveryDisabledTerminates(t *testing.T) {
	h := newHarness(t, "A")
	h.declareTweetDataset("Tweets")
	h.mgr.Functions().Register(FailEveryN("lib#flaky2", 5))
	h.declarePrimaryFeed("F", makeGen(100, 0), 1, "lib#flaky2")

	noRecover := &metadata.PolicyDecl{Name: "Fragile", Params: map[string]string{
		metadata.ParamRecoverSoft: "false",
	}}
	if err := h.catalog.CreatePolicy(noRecover); err != nil {
		t.Fatal(err)
	}
	conn, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "Fragile")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "feed terminated by soft failure", func() bool {
		return conn.State() == ConnFailed
	})
	if conn.Err() == nil {
		t.Fatal("failed connection has no error")
	}
}

func TestConsecutiveSoftFailureBudgetTerminates(t *testing.T) {
	h := newHarness(t, "A")
	h.declareTweetDataset("Tweets")
	// Every record fails: systematic bug.
	h.mgr.Functions().Register(FailEveryN("lib#always", 1))
	h.declarePrimaryFeed("F", makeGen(500, 0), 1, "lib#always")
	limited := &metadata.PolicyDecl{Name: "Limited", Params: map[string]string{
		metadata.ParamRecoverSoft:     "true",
		metadata.ParamMaxSoftFailures: "50",
	}}
	if err := h.catalog.CreatePolicy(limited); err != nil {
		t.Fatal(err)
	}
	conn, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "Limited")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "feed ended after failure budget", func() bool {
		return conn.State() == ConnFailed
	})
}

func TestAdaptorGiveUpTerminatesFeed(t *testing.T) {
	h := newHarness(t, "A")
	h.declareTweetDataset("Tweets")
	alias := "gen-broken"
	h.mgr.Adaptors().Register(alias, func(map[string]string) (ConfiguredAdaptor, error) {
		return &InProcessAdaptor{Gen: func(int, RecordSink, <-chan struct{}) error {
			return errAdaptorDown
		}, Push: true}, nil
	})
	if err := h.catalog.CreateFeed(&metadata.FeedDecl{
		Dataverse: "feeds", Name: "Broken", Primary: true, AdaptorName: alias,
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := h.mgr.ConnectFeed("feeds", "Broken", "Tweets", "Basic")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "connection failed on adaptor give-up", func() bool {
		return conn.State() == ConnFailed
	})
}

var errAdaptorDown = errSentinel("external source unreachable")

type errSentinel string

func (e errSentinel) Error() string { return string(e) }

func storageManagerAt(t *testing.T, h *harness, node string) *storage.Manager {
	t.Helper()
	sm, _ := h.cluster.Node(node).Service(storage.ServiceName).(*storage.Manager)
	if sm == nil {
		t.Fatalf("node %s has no storage manager", node)
	}
	return sm
}

func feedManagerAtNode(t *testing.T, h *harness, node string) *FeedManager {
	t.Helper()
	fm, _ := h.cluster.Node(node).Service(FeedManagerService).(*FeedManager)
	if fm == nil {
		t.Fatalf("node %s has no feed manager", node)
	}
	return fm
}

func TestComputeNodeFailureRecovery(t *testing.T) {
	h := newHarness(t, "A", "B", "C", "D")
	// Store on A+B only, so killing the compute node doesn't lose a
	// partition.
	ds := h.declareTweetDataset("Tweets", "A", "B")
	h.declarePrimaryFeed("F", makeGen(0, 100*time.Microsecond), 1, "tweetlib#sentimentAnalysis")

	conn, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "FaultTolerant", WithComputeCount(1))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "initial ingestion", func() bool { return h.datasetCount(ds) > 50 })

	_, compute, _ := conn.Locations()
	intake, _, _ := conn.Locations()
	victim := ""
	for _, c := range compute {
		if !slices.Contains(intake, c) && c != "A" && c != "B" {
			victim = c
			break
		}
	}
	if victim == "" {
		t.Skipf("no isolated compute node to kill: intake=%v compute=%v", intake, compute)
	}
	if err := h.cluster.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	// Recovery: connection returns to connected on a substitute node and
	// ingestion continues.
	waitFor(t, 15*time.Second, "recovered", func() bool {
		if conn.State() != ConnConnected {
			return false
		}
		_, newCompute, _ := conn.Locations()
		return !slices.Contains(newCompute, victim)
	})
	n := h.datasetCount(ds)
	waitFor(t, 15*time.Second, "ingestion resumed after recovery", func() bool {
		return h.datasetCount(ds) > n+50
	})
}

func TestStoreNodeFailureTerminatesFeed(t *testing.T) {
	h := newHarness(t, "A", "B")
	h.declareTweetDataset("Tweets", "A", "B")
	h.declarePrimaryFeed("F", makeGen(0, 100*time.Microsecond), 1, "")
	conn, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "FaultTolerant")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "ingesting", func() bool {
		return conn.Metrics.Persisted.Total() > 10
	})
	// Kill a store node that hosts no intake.
	intake, _, _ := conn.Locations()
	victim := "B"
	if slices.Contains(intake, "B") {
		victim = "A"
	}
	if err := h.cluster.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "terminated on store loss", func() bool {
		return conn.State() == ConnFailed
	})
	if conn.Err() == nil || !strings.Contains(conn.Err().Error(), "store") {
		t.Fatalf("failure cause = %v", conn.Err())
	}
}

func TestHardFailureRecoveryDisabledTerminates(t *testing.T) {
	h := newHarness(t, "A", "B", "C")
	h.declareTweetDataset("Tweets", "A")
	h.declarePrimaryFeed("F", makeGen(0, 100*time.Microsecond), 1, "tweetlib#sentimentAnalysis")
	fragile := &metadata.PolicyDecl{Name: "NoHard", Params: map[string]string{
		metadata.ParamRecoverHard: "false",
	}}
	if err := h.catalog.CreatePolicy(fragile); err != nil {
		t.Fatal(err)
	}
	conn, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "NoHard")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "ingesting", func() bool {
		return conn.Metrics.Persisted.Total() > 10
	})
	_, compute, _ := conn.Locations()
	victim := ""
	for _, c := range compute {
		if c != "A" {
			victim = c
			break
		}
	}
	if victim == "" {
		t.Skip("no non-store compute node")
	}
	h.cluster.KillNode(victim)
	waitFor(t, 15*time.Second, "terminated per policy", func() bool {
		return conn.State() == ConnFailed
	})
}

func TestIntakeNodeFailureRebuildsHead(t *testing.T) {
	h := newHarness(t, "A", "B", "C")
	ds := h.declareTweetDataset("Tweets", "C")
	h.declarePrimaryFeed("F", makeGen(0, 100*time.Microsecond), 1, "")
	conn, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "FaultTolerant")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "ingesting", func() bool { return h.datasetCount(ds) > 20 })
	intake, _, _ := conn.Locations()
	victim := intake[0]
	if victim == "C" {
		t.Skip("intake co-located with the only store partition")
	}
	h.cluster.KillNode(victim)
	waitFor(t, 15*time.Second, "head rebuilt and reconnected", func() bool {
		if conn.State() != ConnConnected {
			return false
		}
		newIntake, _, _ := conn.Locations()
		return len(newIntake) > 0 && newIntake[0] != victim
	})
	n := h.datasetCount(ds)
	waitFor(t, 15*time.Second, "ingestion resumed after head recovery", func() bool {
		return h.datasetCount(ds) > n+20
	})
}

func TestAtLeastOnceDeliveryAcrossComputeFailure(t *testing.T) {
	h := newHarness(t, "A", "B", "C")
	ds := h.declareTweetDataset("Tweets", "A")
	const total = 3000
	h.declarePrimaryFeed("F", makeGen(total, 50*time.Microsecond), 1, "tweetlib#sentimentAnalysis")

	alo := &metadata.PolicyDecl{Name: "ALO-FT", Params: map[string]string{
		metadata.ParamAtLeastOnce: "true",
		metadata.ParamRecoverHard: "true",
		metadata.ParamRecoverSoft: "true",
	}}
	if err := h.catalog.CreatePolicy(alo); err != nil {
		t.Fatal(err)
	}
	conn, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "ALO-FT", WithComputeCount(1))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "ingestion underway", func() bool {
		return conn.Metrics.Persisted.Total() > 200
	})
	_, compute, _ := conn.Locations()
	intake, _, _ := conn.Locations()
	victim := ""
	for _, c := range compute {
		if c != "A" && !slices.Contains(intake, c) {
			victim = c
		}
	}
	if victim == "" {
		t.Skip("no isolated compute node")
	}
	h.cluster.KillNode(victim)

	// Despite records lost in flight at the moment of failure, the
	// tracking/ack/replay machinery re-delivers them: the dataset
	// eventually holds every distinct record (primary keys deduplicate
	// the at-least-once replays).
	waitFor(t, 60*time.Second, "all records eventually persisted", func() bool {
		return h.datasetCount(ds) == total
	})
	if conn.PendingAcks() != 0 {
		waitFor(t, 10*time.Second, "acks drained", func() bool { return conn.PendingAcks() == 0 })
	}
}

func TestElasticScaleOut(t *testing.T) {
	h := newHarness(t, "A", "B", "C", "D")
	ds := h.declareTweetDataset("Tweets", "A")
	// A latency-bound UDF at 500us/record caps one compute partition at
	// ~2000 rec/s; the generator pushes ~10000 rec/s (20-record bursts
	// every 2ms).
	h.mgr.Functions().Register(DelayFunction("lib#slow", 500*time.Microsecond))
	h.declarePrimaryFeed("F", makeBurstGen(0, 20, 2*time.Millisecond), 1, "lib#slow")

	elastic := &metadata.PolicyDecl{Name: "Elastic2", Params: map[string]string{
		metadata.ParamElastic:      "true",
		metadata.ParamMemoryBudget: "500",
	}}
	if err := h.catalog.CreatePolicy(elastic); err != nil {
		t.Fatal(err)
	}
	conn, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "Elastic2", WithComputeCount(1))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "elastic scale-out", func() bool {
		return conn.ComputeCount() > 1
	})
	events := conn.ElasticEvents()
	if len(events) == 0 || !strings.Contains(events[0], "scale-out") {
		t.Fatalf("elastic events = %v", events)
	}
	// Pipeline still works after re-structuring.
	n := h.datasetCount(ds)
	waitFor(t, 15*time.Second, "still ingesting after scale-out", func() bool {
		return h.datasetCount(ds) > n+100
	})
}

func TestDiscardPolicyEndToEnd(t *testing.T) {
	h := newHarness(t, "A")
	h.declareTweetDataset("Tweets")
	h.mgr.Functions().Register(DelayFunction("lib#slow2", 2*time.Millisecond))
	h.declarePrimaryFeed("F", makeGen(2000, 0), 1, "lib#slow2")
	discard := &metadata.PolicyDecl{Name: "Discard2", Params: map[string]string{
		metadata.ParamDiscard:      "true",
		metadata.ParamMemoryBudget: "100",
	}}
	if err := h.catalog.CreatePolicy(discard); err != nil {
		t.Fatal(err)
	}
	conn, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "Discard2", WithComputeCount(1))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, "overload handled by discarding", func() bool {
		st := h.subscriptionStats(conn)
		return st.Discarded > 0
	})
	if conn.State() != ConnConnected {
		t.Fatalf("state = %v", conn.State())
	}
}

func (h *harness) subscriptionStats(conn *Connection) SubscriptionStats {
	h.t.Helper()
	intake, _, _ := conn.Locations()
	var total SubscriptionStats
	for part, loc := range intake {
		fm, _ := h.cluster.Node(loc).Service(FeedManagerService).(*FeedManager)
		if fm == nil {
			continue
		}
		j, ok := fm.Joint(conn.sourceSignature, part)
		if !ok {
			continue
		}
		if s, ok := j.Subscription(conn.subID); ok {
			st := s.Stats()
			total.Discarded += st.Discarded
			total.ThrottledOut += st.ThrottledOut
			total.SpilledTotal += st.SpilledTotal
			total.Received += st.Received
			total.Backlog += st.Backlog
		}
	}
	return total
}

func TestSpillPolicyEndToEndNoLoss(t *testing.T) {
	h := newHarness(t, "A")
	ds := h.declareTweetDataset("Tweets")
	h.mgr.Functions().Register(DelayFunction("lib#slow3", 500*time.Microsecond))
	const total = 2000
	h.declarePrimaryFeed("F", makeGen(total, 0), 1, "lib#slow3")
	spill := &metadata.PolicyDecl{Name: "Spill2", Params: map[string]string{
		metadata.ParamSpill:        "true",
		metadata.ParamMemoryBudget: "100",
	}}
	if err := h.catalog.CreatePolicy(spill); err != nil {
		t.Fatal(err)
	}
	conn, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "Spill2", WithComputeCount(1))
	if err != nil {
		t.Fatal(err)
	}
	// The burst exceeds memory budget; spill defers but loses nothing.
	waitFor(t, 60*time.Second, "all records persisted despite spilling", func() bool {
		return h.datasetCount(ds) == total
	})
	if st := h.subscriptionStats(conn); st.SpilledTotal == 0 {
		t.Fatal("spill policy never spilled under overload")
	}
}

func TestManagerConnectionsListing(t *testing.T) {
	h := newHarness(t, "A")
	h.declareTweetDataset("Tweets")
	h.declarePrimaryFeed("F", makeGen(0, time.Millisecond), 1, "")
	if _, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", ""); err != nil {
		t.Fatal(err)
	}
	conns := h.mgr.Connections()
	if len(conns) != 1 || conns[0].Feed().Name != "F" {
		t.Fatalf("Connections() = %v", conns)
	}
	if _, ok := h.mgr.Connection("feeds", "F", "Tweets"); !ok {
		t.Fatal("Connection lookup failed")
	}
	if err := h.mgr.DisconnectFeed("feeds", "Nope", "Tweets"); err == nil {
		t.Fatal("disconnect of unconnected feed accepted")
	}
}
