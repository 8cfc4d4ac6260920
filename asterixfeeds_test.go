package asterixfeeds

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/core"
	"asterixfeeds/internal/hyracks"
)

func startTest(t *testing.T, nodes ...string) *Instance {
	t.Helper()
	inst, err := Start(Config{
		Nodes: nodes,
		Hyracks: hyracks.Config{
			HeartbeatInterval: 10 * time.Millisecond,
			HeartbeatTimeout:  150 * time.Millisecond,
		},
		Feeds: core.Options{
			MetricsWindow: 50 * time.Millisecond,
			AckTimeout:    200 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	return inst
}

const tweetDDL = `
use dataverse feeds;
create type TwitterUser as open {
	screen_name: string,
	lang: string,
	friends_count: int32,
	statuses_count: int32,
	name: string,
	followers_count: int32
};
create type Tweet as open {
	id: string,
	user: TwitterUser,
	latitude: double?,
	longitude: double?,
	created_at: string,
	message_text: string,
	country: string?
};
create dataset Tweets(Tweet) primary key id;
`

func TestDDLAndInsertAndQuery(t *testing.T) {
	inst := startTest(t, "A", "B")
	inst.MustExec(tweetDDL)

	res := inst.MustExec(`insert into dataset Tweets (
		{"id": "t1",
		 "user": {"screen_name": "u", "lang": "en", "friends_count": 1,
		          "statuses_count": 2, "name": "U", "followers_count": 3},
		 "created_at": "2015-01-01",
		 "message_text": "hello #world"} );`)
	if res[0].Kind != "insert" || res[0].Value.(adm.Int64) != 1 {
		t.Fatalf("insert result = %+v", res[0])
	}

	v, err := inst.Query(`for $t in dataset Tweets return $t.id`)
	if err != nil {
		t.Fatal(err)
	}
	items := v.(*adm.OrderedList).Items
	if len(items) != 1 || items[0].(adm.String) != "t1" {
		t.Fatalf("query = %s", v)
	}
}

func TestInsertListOfRecords(t *testing.T) {
	inst := startTest(t, "A")
	inst.MustExec(tweetDDL)
	inst.MustExec(`insert into dataset Tweets (
		for $i in [{"id":"a"},{"id":"b"},{"id":"c"}]
		return {"id": $i.id,
			"user": {"screen_name":"u","lang":"en","friends_count":1,"statuses_count":1,"name":"n","followers_count":1},
			"created_at": "2015-01-01", "message_text": "m"} );`)
	n, err := inst.DatasetCount("Tweets")
	if err != nil || n != 3 {
		t.Fatalf("count = %d, %v", n, err)
	}
}

func TestEndToEndFeedViaAQL(t *testing.T) {
	inst := startTest(t, "A", "B")
	inst.MustExec(tweetDDL)
	inst.MustExec(`
		create feed TwitterFeed using tweetgen_adaptor ("rate"="3000", "count"="600", "seed"="7");
		connect feed TwitterFeed to dataset Tweets using policy Basic;
	`)
	waitCount(t, inst, "Tweets", 600, 20*time.Second)
	inst.MustExec(`disconnect feed TwitterFeed from dataset Tweets;`)
}

func waitCount(t *testing.T, inst *Instance, dataset string, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		n, err := inst.DatasetCount(dataset)
		if err != nil {
			t.Fatal(err)
		}
		if n >= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	n, _ := inst.DatasetCount(dataset)
	t.Fatalf("dataset %s reached %d records, want %d", dataset, n, want)
}

// waitIngested is waitCount with a registry-backed first tier (feedwatch):
// the connection's own series say when the pipeline has plausibly drained —
// persisted reached the target and no acks are pending — and only then does
// the expensive partition scan run to confirm. Polling the registry instead
// of scanning also means the wait cannot return between a primary insert
// and its ack, which is what made fixed-sleep waits flaky.
func waitIngested(t *testing.T, inst *Instance, dv, feed, dataset string, want int, timeout time.Duration) {
	t.Helper()
	conn, ok := inst.Feeds().Connection(dv, feed, dataset)
	if !ok {
		t.Fatalf("no connection %s.%s -> %s", dv, feed, dataset)
	}
	reg := inst.Registry()
	prefix := "feed." + conn.ID()
	// The persisted series counts this connection's records only; the count
	// target covers the whole dataset, which may hold records from before
	// this connection (a restarted instance). The difference at entry is the
	// cheap-tier threshold — understating it only costs extra scans.
	base, err := inst.DatasetCount(dataset)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		persisted, _ := reg.Value(prefix + ".persisted")
		pending, _ := reg.Value(prefix + ".pending_acks")
		if persisted >= int64(want-base) && pending == 0 {
			n, err := inst.DatasetCount(dataset)
			if err != nil {
				t.Fatal(err)
			}
			if n >= want {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	persisted, _ := reg.Value(prefix + ".persisted")
	n, _ := inst.DatasetCount(dataset)
	t.Fatalf("dataset %s reached %d records (persisted metric %d), want %d", dataset, n, persisted, want)
}

// connSeries counts the registry series published under one connection's
// "feed.<id>." prefix — the restart test uses it to prove teardown
// unregisters a connection and a recovered feed re-registers exactly one
// set of series, no leaks and no duplicates.
func connSeries(inst *Instance, connID string) int {
	n := 0
	for _, s := range inst.Registry().Snapshot() {
		if strings.HasPrefix(s.Name, "feed."+connID+".") {
			n++
		}
	}
	return n
}

func TestCascadeViaAQLWithAQLFunction(t *testing.T) {
	inst := startTest(t, "A", "B")
	inst.MustExec(tweetDDL)
	// Listing 4.2 + 4.4 + 4.7, adapted: an AQL UDF extracting hashtags.
	inst.MustExec(`
		create type ProcessedTweet as open { id: string, message_text: string };
		create dataset ProcessedTweets(ProcessedTweet) primary key id;

		create function addHashTags($x) {
			let $topics := (for $token in word-tokens($x.message_text)
				where starts-with($token, "#")
				return $token)
			return record-merge($x, {"topics": $topics})
		};

		create feed TwitterFeed using tweetgen_adaptor ("rate"="2000", "seed"="3");
		create secondary feed ProcessedTwitterFeed from feed TwitterFeed apply function addHashTags;

		connect feed TwitterFeed to dataset Tweets using policy Basic;
		connect feed ProcessedTwitterFeed to dataset ProcessedTweets using policy Basic;
	`)
	waitCount(t, inst, "Tweets", 100, 20*time.Second)
	waitCount(t, inst, "ProcessedTweets", 100, 20*time.Second)

	// Processed records carry topics. (The built-in addHashTags shadows the
	// AQL declaration: see TestBuiltinShadowsAQLFunction.)
	sawTopics := false
	err := inst.ScanDataset("ProcessedTweets", func(rec *adm.Record) bool {
		topics, ok := rec.Field("topics")
		if !ok {
			t.Fatalf("processed record lacks topics: %s", rec)
		}
		if len(topics.(*adm.OrderedList).Items) > 0 {
			sawTopics = true
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawTopics {
		t.Fatal("no record had extracted hashtags")
	}
	inst.MustExec(`
		disconnect feed ProcessedTwitterFeed from dataset ProcessedTweets;
		disconnect feed TwitterFeed from dataset Tweets;
	`)
}

// TestBuiltinShadowsAQLFunction pins the resolution order: a feed's function
// name is looked up in the function registry before the catalog, so an AQL
// function declared under a built-in's name (as bench/'s cascade declares
// addHashTags) is never compiled — the Go built-in runs instead.
func TestBuiltinShadowsAQLFunction(t *testing.T) {
	inst := startTest(t, "A")
	inst.MustExec(tweetDDL)
	inst.MustExec(`
		create dataset ProcessedTweets(Tweet) primary key id;
		create function addHashTags($x) { record-merge($x, {"compiled": true}) };
		create feed TwitterFeed using tweetgen_adaptor ("rate"="2000", "count"="200", "seed"="13");
		create secondary feed ProcessedFeed from feed TwitterFeed apply function addHashTags;
		connect feed TwitterFeed to dataset Tweets using policy Basic;
		connect feed ProcessedFeed to dataset ProcessedTweets using policy Basic;
	`)
	waitCount(t, inst, "ProcessedTweets", 200, 20*time.Second)
	err := inst.ScanDataset("ProcessedTweets", func(rec *adm.Record) bool {
		_, topics := rec.Field("topics")
		_, compiled := rec.Field("compiled")
		if !topics || compiled {
			t.Fatalf("record not processed by the built-in addHashTags: %s", rec)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCustomPolicyViaAQL(t *testing.T) {
	inst := startTest(t, "A")
	inst.MustExec(`use dataverse feeds;
		create ingestion policy Spill_then_Throttle from policy Spill
			(("max.spill.size.on.disk"="512MB","excess.records.throttle"="true"));`)
	p, ok := inst.Catalog().Policy("Spill_then_Throttle")
	if !ok {
		t.Fatal("custom policy not stored")
	}
	if p.Param("max.spill.size.on.disk", "") != "512MB" {
		t.Fatalf("params = %v", p.Params)
	}
}

func TestSecondaryIndexViaAQL(t *testing.T) {
	inst := startTest(t, "A")
	inst.MustExec(`use dataverse feeds;
		create type PT as open { id: string, location: point? };
		create dataset PTs(PT) primary key id;
		create index locationIndex on PTs(location) type rtree;
	`)
	// Insert records with points; then search through the partition API.
	inst.MustExec(`insert into dataset PTs (
		for $i in [1, 2, 3]
		return {"id": "r" + lowercase("X") + "x", "location": create-point(1.0, 2.0)} );`)
	// Note: ids collide above (same string), so only 1 record survives —
	// upsert semantics.
	n, _ := inst.DatasetCount("PTs")
	if n != 1 {
		t.Fatalf("count after colliding inserts = %d, want 1 (upsert)", n)
	}
	sm, err := inst.StorageManager("A")
	if err != nil {
		t.Fatal(err)
	}
	part := sm.Partition("feeds.PTs")
	if part == nil {
		t.Fatal("partition not open")
	}
	recs, err := part.SearchRTree("locationIndex", adm.Rectangle{Low: adm.Point{X: 0, Y: 0}, High: adm.Point{X: 5, Y: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("rtree search = %d records", len(recs))
	}
}

func TestSpatialAggregationOverIngestedTweets(t *testing.T) {
	// End-to-end Listing 3.3: ingest tweets via a feed, then run the
	// spatial aggregation query over the persisted dataset.
	inst := startTest(t, "A", "B")
	inst.MustExec(tweetDDL)
	inst.MustExec(`
		create feed F using tweetgen_adaptor ("rate"="5000", "count"="400", "seed"="5");
		connect feed F to dataset Tweets;
	`)
	waitCount(t, inst, "Tweets", 400, 20*time.Second)

	v, err := inst.Query(`for $tweet in dataset Tweets
		let $loc := create-point($tweet.longitude, $tweet.latitude)
		let $region := create-rectangle(create-point(-130.0, 20.0), create-point(-60.0, 50.0))
		where spatial-intersect($loc, $region)
		group by $c := spatial-cell($loc, create-point(-130.0, 20.0), 10.0, 10.0) with $tweet
		return {"cell": $c, "count": count($tweet)}`)
	if err != nil {
		t.Fatal(err)
	}
	cells := v.(*adm.OrderedList).Items
	if len(cells) == 0 {
		t.Fatal("no cells")
	}
	total := int64(0)
	for _, c := range cells {
		n, _ := c.(*adm.Record).Field("count")
		total += int64(n.(adm.Int64))
	}
	if total != 400 {
		t.Fatalf("aggregated %d tweets, want 400", total)
	}
}

func TestExecErrors(t *testing.T) {
	inst := startTest(t, "A")
	for _, src := range []string{
		`create dataset D(NoType) primary key id;`,
		`create index i on NoDataset(f);`,
		`connect feed NoFeed to dataset NoDataset;`,
		`create feed F using no_such_adaptor;`,
		`insert into dataset Nope ( {"id": 1} );`,
		`create type T as open { f: NoSuchType };`,
		`for $x in dataset Nope return $x`,
	} {
		if _, err := inst.Exec(src); err == nil {
			t.Errorf("Exec(%q) succeeded", src)
		}
	}
	// Duplicate dataverse without IF NOT EXISTS errors; with it, succeeds.
	inst.MustExec(`create dataverse dv1;`)
	if _, err := inst.Exec(`create dataverse dv1;`); err == nil {
		t.Error("duplicate dataverse accepted")
	}
	inst.MustExec(`create dataverse dv1 if not exists;`)
}

func TestQueryWithStoredFunction(t *testing.T) {
	inst := startTest(t, "A")
	inst.MustExec(`use dataverse feeds;
		create function shout($x) { record-merge($x, {"loud": uppercase($x.word)}) };`)
	v, err := inst.Query(`for $r in [{"word": "hey"}] return shout($r)`)
	if err != nil {
		t.Fatal(err)
	}
	rec := v.(*adm.OrderedList).Items[0].(*adm.Record)
	if loud, _ := rec.Field("loud"); loud.(adm.String) != "HEY" {
		t.Fatalf("stored function result = %s", rec)
	}
}

func TestAddNodeAndKillNode(t *testing.T) {
	inst := startTest(t, "A")
	if err := inst.AddNode("B"); err != nil {
		t.Fatal(err)
	}
	if len(inst.Cluster().AliveNodes()) != 2 {
		t.Fatal("node not added")
	}
	if err := inst.KillNode("B"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(inst.Cluster().AliveNodes()) != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := inst.Cluster().AliveNodes(); len(got) != 1 || got[0] != "A" {
		t.Fatalf("alive = %v", got)
	}
}

func TestUseDataverseSwitchesNamespace(t *testing.T) {
	inst := startTest(t, "A")
	inst.MustExec(`use dataverse one; create type T as open { id: string }; create dataset D(T) primary key id;`)
	inst.MustExec(`use dataverse two; create type T as open { id: string }; create dataset D(T) primary key id;`)
	if inst.Dataverse() != "two" {
		t.Fatalf("dataverse = %q", inst.Dataverse())
	}
	if _, ok := inst.Catalog().Dataset("one", "D"); !ok {
		t.Fatal("dataset in dataverse one missing")
	}
	if _, ok := inst.Catalog().Dataset("two", "D"); !ok {
		t.Fatal("dataset in dataverse two missing")
	}
}

func TestBatchInsertRepeatedStatements(t *testing.T) {
	// The Table 5.1 mechanism: repeated insert statements each pay the
	// per-statement compile+schedule cost but still work correctly.
	inst := startTest(t, "A")
	inst.MustExec(`use dataverse feeds;
		create type U as open { id: string };
		create dataset Users(U) primary key id;`)
	for batch := 0; batch < 5; batch++ {
		var b strings.Builder
		b.WriteString("insert into dataset Users ( [")
		for i := 0; i < 20; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, `{"id": "u-%d-%d"}`, batch, i)
		}
		b.WriteString("] );")
		inst.MustExec(b.String())
	}
	n, err := inst.DatasetCount("Users")
	if err != nil || n != 100 {
		t.Fatalf("count = %d, %v; want 100", n, err)
	}
}
