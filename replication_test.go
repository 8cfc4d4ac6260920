package asterixfeeds

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/core"
	"asterixfeeds/internal/storage"
)

// TestReplicatedDatasetSurvivesStoreNodeLoss exercises the §9.2.2 extension:
// with `with replication`, the loss of a store node promotes the in-sync
// replica instead of terminating the feed, and (with at-least-once) no
// records are lost.
func TestReplicatedDatasetSurvivesStoreNodeLoss(t *testing.T) {
	inst := startTest(t, "A", "B", "C")
	inst.MustExec(`use dataverse feeds;
		create type Tweet as open { id: string, message_text: string };
		create dataset Tweets(Tweet) primary key id with replication;`)
	ds, _ := inst.Catalog().Dataset("feeds", "Tweets")
	if !ds.Replicated {
		t.Fatal("with replication clause not honored")
	}
	// Store partitions on A and B; replicas cross-hosted (0 on B, 1 on A).
	ds.NodeGroup = []string{"A", "B"}

	const total = 4000
	inst.MustExec(`use dataverse feeds;
		create feed F using tweetgen_adaptor ("rate"="4000", "count"="4000", "seed"="31");
		connect feed F to dataset Tweets using policy AtLeastOnce;`)
	conn, _ := inst.Feeds().Connection("feeds", "F", "Tweets")

	// Let roughly half the stream land, then kill store node B.
	waitCount(t, inst, "Tweets", total/3, 20*time.Second)
	if err := inst.KillNode("B"); err != nil {
		t.Fatal(err)
	}

	// The connection must survive via replica promotion, not fail.
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if st := conn.State(); st == core.ConnFailed {
			t.Fatalf("connection failed despite replication: %v", conn.Err())
		}
		if len(conn.Recoveries()) > 0 && conn.State() == core.ConnConnected {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(conn.Recoveries()) == 0 {
		t.Fatal("no recovery recorded after store-node loss")
	}
	// The nodegroup now points partition 1 at the promoted replica host.
	for _, n := range ds.NodeGroup {
		if n == "B" {
			t.Fatalf("dead node still in nodegroup: %v", ds.NodeGroup)
		}
	}

	// All records eventually persist: pre-failure data survives in the
	// promoted replica; in-flight records are replayed by at-least-once.
	waitIngested(t, inst, "feeds", "F", "Tweets", total, 60*time.Second)
}

// TestReplicationKeepsReplicaInSync checks the synchronous-mirroring write
// path directly.
func TestReplicationKeepsReplicaInSync(t *testing.T) {
	inst := startTest(t, "A", "B")
	inst.MustExec(`use dataverse feeds;
		create type Tweet as open { id: string, message_text: string };
		create dataset Tweets(Tweet) primary key id with replication;
		create feed F using tweetgen_adaptor ("rate"="100000", "count"="500", "seed"="33");
		connect feed F to dataset Tweets using policy Basic;`)
	waitIngested(t, inst, "feeds", "F", "Tweets", 500, 20*time.Second)

	ds, _ := inst.Catalog().Dataset("feeds", "Tweets")
	for i := range ds.NodeGroup {
		replicaNode := ds.ReplicaOf(i)
		if replicaNode == "" {
			t.Fatalf("partition %d has no replica", i)
		}
		primarySM, err := inst.StorageManager(ds.NodeGroup[i])
		if err != nil {
			t.Fatal(err)
		}
		replicaSM, err := inst.StorageManager(replicaNode)
		if err != nil {
			t.Fatal(err)
		}
		prim := primarySM.PartitionIdx(ds.QualifiedName(), i)
		repl := replicaSM.PartitionIdx(ds.QualifiedName(), i)
		if prim == nil || repl == nil {
			t.Fatalf("partition %d: primary or replica not open", i)
		}
		// Mirror writes are synchronous per frame, but waitCount can return
		// between a primary insert and its mirror landing; poll until the
		// counts converge instead of sleeping a fixed amount.
		deadline := time.Now().Add(10 * time.Second)
		for {
			np, _ := prim.Count()
			nr, _ := repl.Count()
			if np == nr && np > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("partition %d: primary has %d records, replica %d", i, np, nr)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func TestUnreplicatedStoreLossStillTerminates(t *testing.T) {
	// Without the extension, the paper's behaviour is preserved: store
	// node loss ends the feed early.
	inst := startTest(t, "A", "B")
	inst.MustExec(`use dataverse feeds;
		create type Tweet as open { id: string, message_text: string };
		create dataset Tweets(Tweet) primary key id;
		create feed F using tweetgen_adaptor ("rate"="2000", "seed"="35");
		connect feed F to dataset Tweets using policy FaultTolerant;`)
	conn, _ := inst.Feeds().Connection("feeds", "F", "Tweets")
	waitCount(t, inst, "Tweets", 100, 20*time.Second)
	intake, _, _ := conn.Locations()
	victim := "B"
	for _, n := range intake {
		if n == "B" {
			victim = "A"
		}
	}
	if err := inst.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for conn.State() != core.ConnFailed && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if conn.State() != core.ConnFailed {
		t.Fatalf("unreplicated dataset survived store loss: %v", conn.State())
	}
}

func TestFeedMaintainsSecondaryIndexes(t *testing.T) {
	// Records ingested through a feed must appear in secondary indexes,
	// exactly like inserted ones (§5.3.1's IndexInsert semantics).
	inst := startTest(t, "A")
	inst.MustExec(`use dataverse feeds;
		create type GT as open { id: string, message_text: string };
		create dataset GTs(GT) primary key id;
		create index locIdx on GTs(location) type rtree;
		create function locate($t) {
			record-merge($t, {"location": create-point($t.longitude, $t.latitude)})
		};
		create feed F using tweetgen_adaptor ("rate"="50000", "count"="300", "seed"="91")
			apply function locate;
		connect feed F to dataset GTs using policy Basic;`)
	waitIngested(t, inst, "feeds", "F", "GTs", 300, 20*time.Second)

	sm, err := inst.StorageManager("A")
	if err != nil {
		t.Fatal(err)
	}
	part := sm.Partition("feeds.GTs")
	if part == nil {
		t.Fatal("partition not open")
	}
	everywhere := adm.Rectangle{Low: adm.Point{X: -180, Y: -90}, High: adm.Point{X: 180, Y: 90}}
	recs, err := part.SearchRTree("locIdx", everywhere)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 300 {
		t.Fatalf("rtree holds %d entries, want 300", len(recs))
	}
}

// replicaPartitions returns partition i of ds on its primary's node and on
// its replica's node; either is nil when that node does not hold it open.
func replicaPartitions(t *testing.T, inst *Instance, ds *storage.Dataset, i int) (prim, repl *storage.Partition) {
	t.Helper()
	primarySM, err := inst.StorageManager(ds.NodeGroup[i])
	if err != nil {
		t.Fatal(err)
	}
	replicaSM, err := inst.StorageManager(ds.ReplicaOf(i))
	if err != nil {
		t.Fatal(err)
	}
	return primarySM.PartitionIdx(ds.QualifiedName(), i), replicaSM.PartitionIdx(ds.QualifiedName(), i)
}

// insertStatements runs one insert statement per key into Tweets.
func insertStatements(inst *Instance, keys []string) {
	var b strings.Builder
	b.WriteString("use dataverse feeds;\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "insert into dataset Tweets ({\"id\": %q, \"message_text\": \"statement\"});\n", k)
	}
	inst.MustExec(b.String())
}

// TestStatementInsertReachesReplica: an insert statement into a replicated
// dataset writes each partition's replica as the feed store stage does, so
// every replica holds what its primary holds.
func TestStatementInsertReachesReplica(t *testing.T) {
	inst := startTest(t, "A", "B")
	inst.MustExec(`use dataverse feeds;
		create type Tweet as open { id: string, message_text: string };
		create dataset Tweets(Tweet) primary key id with replication;`)
	ds, _ := inst.Catalog().Dataset("feeds", "Tweets")
	var keys []string
	for i := 0; i < 20; i++ {
		keys = append(keys, fmt.Sprintf("s%02d", i))
	}
	insertStatements(inst, keys)

	total := 0
	for i := range ds.NodeGroup {
		prim, repl := replicaPartitions(t, inst, ds, i)
		if prim == nil || repl == nil {
			t.Fatalf("partition %d: primary open %v, replica open %v", i, prim != nil, repl != nil)
		}
		np, _ := prim.Count()
		nr, _ := repl.Count()
		if np != nr {
			t.Fatalf("partition %d: primary has %d records, replica %d", i, np, nr)
		}
		total += np
	}
	if total != len(keys) {
		t.Fatalf("primaries hold %d records, want %d", total, len(keys))
	}
}

// TestStatementInsertAfterReplicaPromotion: with a feed attached to a
// replicated dataset on [A, B], statement inserts reach B's replica, so
// killing B loses none of them; and after the promotion makes the nodegroup
// [A, A], a statement insert puts each key in its own hash partition, not
// in A's first one.
func TestStatementInsertAfterReplicaPromotion(t *testing.T) {
	inst := startTest(t, "A", "B", "C")
	inst.MustExec(`use dataverse feeds;
		create type Tweet as open { id: string, message_text: string };
		create dataset Tweets(Tweet) primary key id with replication;`)
	ds, _ := inst.Catalog().Dataset("feeds", "Tweets")
	ds.NodeGroup = []string{"A", "B"}
	inst.MustExec(`use dataverse feeds;
		create feed F using tweetgen_adaptor ("rate"="4000", "count"="200", "seed"="37");
		connect feed F to dataset Tweets using policy AtLeastOnce;`)
	conn, _ := inst.Feeds().Connection("feeds", "F", "Tweets")
	waitIngested(t, inst, "feeds", "F", "Tweets", 200, 20*time.Second)

	var keys []string
	for i := 0; i < 20; i++ {
		keys = append(keys, fmt.Sprintf("s%02d", i))
	}
	insertStatements(inst, keys)
	before, err := inst.DatasetCount("Tweets")
	if err != nil || before != 220 {
		t.Fatalf("DatasetCount = %d, %v before the kill; want 220", before, err)
	}

	if err := inst.KillNode("B"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for len(conn.Recoveries()) == 0 || conn.State() != core.ConnConnected {
		if conn.State() == core.ConnFailed {
			t.Fatalf("connection failed despite replication: %v", conn.Err())
		}
		if time.Now().After(deadline) {
			t.Fatal("no recovery after the kill")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := fmt.Sprint(ds.NodeGroup); got != "[A A]" {
		t.Fatalf("nodegroup after the promotion = %s, want [A A]", got)
	}
	if n, err := inst.DatasetCount("Tweets"); err != nil || n != before {
		t.Fatalf("DatasetCount = %d, %v after the kill; want %d", n, err, before)
	}

	insertStatements(inst, keys)
	if n, err := inst.DatasetCount("Tweets"); err != nil || n != before {
		t.Fatalf("DatasetCount = %d, %v after re-inserting; want %d", n, err, before)
	}
	sm, err := inst.StorageManager("A")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		rec := (&adm.RecordBuilder{}).Add("id", adm.String(k)).MustBuild()
		home, err := ds.PartitionOf(rec)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ds.NodeGroup {
			_, found, err := sm.PartitionIdx(ds.QualifiedName(), i).Lookup([]adm.Value{adm.String(k)})
			if err != nil {
				t.Fatal(err)
			}
			if found != (i == home) {
				t.Fatalf("key %s found in partition %d: %v; its hash partition is %d", k, i, found, home)
			}
		}
	}
}
