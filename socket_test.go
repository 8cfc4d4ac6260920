package asterixfeeds

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/storage"
	"asterixfeeds/internal/tweetgen"
)

// TestSocketAdaptorEndToEnd exercises the full external-source path of the
// paper's experiments: a standalone TweetGen TCP server pushes JSON tweets;
// the generic socket adaptor dials it, performs the initial handshake,
// parses, and the feed persists into an indexed dataset.
func TestSocketAdaptorEndToEnd(t *testing.T) {
	srv := tweetgen.NewServer(tweetgen.ConstantPattern(5000, 30*time.Second), 51)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	inst := startTest(t, "A", "B")
	inst.MustExec(tweetDDL)
	inst.MustExec(fmt.Sprintf(`use dataverse feeds;
		create feed SocketFeed using socket_adaptor ("sockets"="%s");
		connect feed SocketFeed to dataset Tweets using policy Basic;`, addr))

	waitCount(t, inst, "Tweets", 500, 20*time.Second)
	if srv.Sent() < 500 {
		t.Fatalf("server pushed only %d tweets", srv.Sent())
	}
	inst.MustExec(`disconnect feed SocketFeed from dataset Tweets;`)
}

// TestSocketAdaptorParallelPartitions runs one adaptor instance per
// configured socket address (the paper's 6-generator setup of §5.7.3).
func TestSocketAdaptorParallelPartitions(t *testing.T) {
	var addrs string
	for i := 0; i < 3; i++ {
		srv := tweetgen.NewServer(tweetgen.ConstantPattern(3000, 30*time.Second), int64(60+i))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if i > 0 {
			addrs += ","
		}
		addrs += addr
	}
	inst := startTest(t, "A", "B", "C")
	inst.MustExec(tweetDDL)
	inst.MustExec(fmt.Sprintf(`use dataverse feeds;
		create feed MultiFeed using socket_adaptor ("sockets"="%s");
		connect feed MultiFeed to dataset Tweets using policy Basic;`, addrs))

	conn, _ := inst.Feeds().Connection("feeds", "MultiFeed", "Tweets")
	intake, _, _ := conn.Locations()
	if len(intake) != 3 {
		t.Fatalf("intake parallelism = %d, want 3 (one per socket)", len(intake))
	}
	waitCount(t, inst, "Tweets", 900, 20*time.Second)
}

// TestSocketAdaptorSourceOutage verifies §6.2.3's external-source failure
// handling: when the source dies for good, the adaptor retries, gives up,
// and the feed terminates.
func TestSocketAdaptorSourceOutage(t *testing.T) {
	srv := tweetgen.NewServer(tweetgen.ConstantPattern(2000, 30*time.Second), 71)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inst := startTest(t, "A")
	inst.MustExec(tweetDDL)
	inst.MustExec(fmt.Sprintf(`use dataverse feeds;
		create feed OutageFeed using socket_adaptor ("sockets"="%s");
		connect feed OutageFeed to dataset Tweets using policy Basic;`, addr))
	waitCount(t, inst, "Tweets", 100, 20*time.Second)

	// The external source goes away permanently.
	srv.Close()
	conn, _ := inst.Feeds().Connection("feeds", "OutageFeed", "Tweets")
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if conn.State().String() == "failed" {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("feed state = %v after source outage, want failed", conn.State())
}

// tweetGenLines reads n lines off a TweetGen server the way the socket
// adaptor would: the wire format as the source really writes it.
func tweetGenLines(t *testing.T, n int, seed int64) []string {
	t.Helper()
	srv := tweetgen.NewServer(tweetgen.ConstantPattern(100000, 30*time.Second), seed)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GO\n")); err != nil {
		t.Fatal(err)
	}
	lines := make([]string, 0, n)
	sc := bufio.NewScanner(conn)
	for len(lines) < n && sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < n {
		t.Fatalf("TweetGen server sent %d lines, want %d: %v", len(lines), n, sc.Err())
	}
	return lines
}

// TestSocketAdaptorSoftFailsBadLines pushes good TweetGen lines interleaved
// with every kind of line the adaptor must skip. Each good record has to be
// stored and equal adm.Parse of its own line: a record that aliased the
// scanner's buffer or the adaptor's scratch would be stored with a later
// line's bytes under its key. Nothing bad may reach the store, and the feed
// ends on the end-of-stream line instead of reconnecting.
func TestSocketAdaptorSoftFailsBadLines(t *testing.T) {
	good := tweetGenLines(t, 400, 81)
	bad := []string{
		good[0][:len(good[0])/2], // truncated record
		`42`,
		`[1,2]`,
		``,
		`   `,
		`{"id":"dup","id":"dup","created_at":"x","message_text":"y"}`,
		strings.Repeat("[", 1<<22-2), // the longest line the scanner hands over
		`{"id":"unterminated`,
		good[1] + ` trailing`,
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hungUp := make(chan error, 1) // the one result of the serving goroutine
	go func() {
		hungUp <- func() error {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			if _, err := r.ReadString('\n'); err != nil { // the adaptor's "GO"
				return err
			}
			w := bufio.NewWriter(conn)
			for i, line := range good {
				w.WriteString(bad[i%len(bad)])
				w.WriteByte('\n')
				w.WriteString(line)
				if i%7 == 0 {
					w.WriteByte('\r')
				}
				w.WriteByte('\n')
			}
			w.WriteString("!EOS\r\n")
			w.WriteString(good[0] + "\n") // after the end of the stream: never read
			if err := w.Flush(); err != nil {
				return err
			}
			// An adaptor that honours !EOS hangs up; one that does not keeps
			// the connection and this read never returns.
			if _, err := r.ReadByte(); err != io.EOF {
				return fmt.Errorf("after !EOS the adaptor did not hang up: %v", err)
			}
			return nil
		}()
	}()

	inst := startTest(t, "A")
	inst.MustExec(tweetDDL)
	inst.MustExec(fmt.Sprintf(`use dataverse feeds;
		create feed BadLines using socket_adaptor ("sockets"="%s");
		connect feed BadLines to dataset Tweets using policy Basic;`, ln.Addr()))

	select {
	case err := <-hungUp:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the adaptor never reached !EOS")
	}
	waitCount(t, inst, "Tweets", len(good), 20*time.Second)

	want := make(map[string]*adm.Record, len(good))
	for _, line := range good {
		v, err := adm.Parse(line)
		if err != nil {
			t.Fatal(err)
		}
		rec := v.(*adm.Record)
		idv, _ := rec.Field("id")
		id, _ := adm.AsString(idv)
		want[id] = rec
	}
	stored := 0
	err = inst.ScanDataset("Tweets", func(rec *adm.Record) bool {
		stored++
		idv, _ := rec.Field("id")
		id, _ := adm.AsString(idv)
		if w, ok := want[id]; !ok {
			t.Errorf("stored a record no good line carried: %s", rec)
		} else if !adm.Equal(rec, w) {
			t.Errorf("record %q stored as\n%s\nwant\n%s", id, rec, w)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if stored != len(good) {
		t.Errorf("stored %d records, want %d", stored, len(good))
	}
	conn, _ := inst.Feeds().Connection("feeds", "BadLines", "Tweets")
	if n := conn.Metrics.SoftFailures.Value(); n != 0 {
		t.Errorf("soft_failures = %d, want 0: a bad line reached the store", n)
	}
	if n := conn.Metrics.StoreErrors.Value(); n != 0 {
		t.Errorf("store_errors = %d, want 0", n)
	}
	if s := conn.State().String(); s == "failed" {
		t.Errorf("feed state = %s after a graceful end of stream", s)
	}
}

// TestSocketAdaptorUpsertsWherePartitionOfPlaced: records written straight
// into the partitions PartitionOf picks, then upserted under the same keys
// by a socket feed — whose hash connector reads the key off the encoded
// bytes — must replace them in place. A connector that routed one key
// elsewhere would leave it on two partitions.
func TestSocketAdaptorUpsertsWherePartitionOfPlaced(t *testing.T) {
	lines := tweetGenLines(t, 300, 91)
	inst := startTest(t, "A", "B", "C")
	inst.MustExec(tweetDDL)
	ds, _ := inst.Catalog().Dataset("feeds", "Tweets")
	if len(ds.NodeGroup) != 3 {
		t.Fatalf("Tweets spans %d partitions, want 3", len(ds.NodeGroup))
	}
	partition := func(i int) *storage.Partition {
		sm, err := inst.StorageManager(ds.NodeGroup[i])
		if err != nil {
			t.Fatal(err)
		}
		p, err := sm.OpenPartitionIdx(ds, i, false)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	frames := make([][][]byte, len(ds.NodeGroup))
	for _, line := range lines {
		v, err := adm.Parse(line)
		if err != nil {
			t.Fatal(err)
		}
		i, err := ds.PartitionOf(v.(*adm.Record))
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = append(frames[i], adm.Encode(v))
	}
	for i, frame := range frames {
		if len(frame) == 0 {
			t.Fatalf("no key placed on partition %d", i)
		}
		if err := partition(i).InsertFrame(frame); err != nil {
			t.Fatal(err)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil { // the adaptor's "GO"
			return
		}
		w := bufio.NewWriter(conn)
		for _, line := range lines {
			w.WriteString(strings.TrimSuffix(line, "}") + `,"version":2}` + "\n")
		}
		w.WriteString("!EOS\n")
		w.Flush()
		io.Copy(io.Discard, conn) // until the adaptor hangs up
	}()
	inst.MustExec(fmt.Sprintf(`use dataverse feeds;
		create feed Upserts using socket_adaptor ("sockets"="%s");
		connect feed Upserts to dataset Tweets using policy Basic;`, ln.Addr()))

	var where map[string][]int // key → the partitions holding it
	deadline := time.Now().Add(20 * time.Second)
	for {
		upserted := 0
		where = map[string][]int{}
		for i := range ds.NodeGroup {
			err := partition(i).Scan(func(rec *adm.Record) bool {
				idv, _ := rec.Field("id")
				id, _ := adm.AsString(idv)
				where[id] = append(where[id], i)
				if _, ok := rec.Field("version"); ok {
					upserted++
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if upserted == len(lines) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d records upserted", upserted, len(lines))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(where) != len(lines) {
		t.Fatalf("%d distinct keys stored, want %d", len(where), len(lines))
	}
	for id, parts := range where {
		if len(parts) != 1 {
			t.Errorf("key %s is on partitions %v", id, parts)
		}
	}
}

// TestFileFeedAdaptor exercises the built-in file_feed adaptor used by the
// batch-inserts experiment (Listing 5.16): a disk-resident record file acts
// as the external data source.
func TestFileFeedAdaptor(t *testing.T) {
	path := t.TempDir() + "/tweets.adm"
	var lines string
	for i := 0; i < 150; i++ {
		lines += fmt.Sprintf("{\"id\": \"f-%03d\", \"message_text\": \"from file #%d\"}\n", i, i)
	}
	if err := osWriteFile(path, []byte(lines)); err != nil {
		t.Fatal(err)
	}
	inst := startTest(t, "A")
	inst.MustExec(`use dataverse feeds;
		create type DiskTweet as open { id: string, message_text: string };
		create dataset DiskTweets(DiskTweet) primary key id;`)
	inst.MustExec(fmt.Sprintf(`use dataverse feeds;
		create feed UsersOnDisk using file_feed ("path"="%s", "format"="adm");
		connect feed UsersOnDisk to dataset DiskTweets using policy Basic;`, path))
	waitCount(t, inst, "DiskTweets", 150, 20*time.Second)
}
