package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/hyracks"
	"asterixfeeds/internal/metadata"
)

func TestUDFFilteringDropsRecords(t *testing.T) {
	// A UDF returning nil filters the record out of the feed entirely; one
	// returning an error soft-fails it. Either way the record ends at Assign,
	// so under AtLeastOnce Assign must ack it: left pending it would be
	// replayed through the UDF until the sweeper gave up on it.
	for _, policy := range []string{"Basic", "AtLeastOnce"} {
		for _, failing := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/failing=%v", policy, failing), func(t *testing.T) {
				h := newHarness(t, "A")
				// An ack timeout no run reaches: a pending record cannot be
				// cleared by the sweeper, only by an ack.
				h.remakeManager(Options{AckTimeout: time.Minute, FrameCapacity: 16})
				ds := h.declareTweetDataset("Tweets")
				var applied atomic.Int64
				h.mgr.Functions().Register(&FuncRecordFunction{
					FuncName: "lib#evenOnly",
					Fn: func(rec *adm.Record) (*adm.Record, error) {
						applied.Add(1)
						seq, _ := rec.Field("seq")
						switch n := int64(seq.(adm.Int64)); {
						case n%2 != 0:
							return nil, nil
						case failing && n%4 == 0:
							return nil, fmt.Errorf("seq %d is unprocessable", n)
						}
						return rec, nil
					},
				})
				const emitted = 200
				persisted, bad := emitted/2, 0
				if failing {
					persisted, bad = emitted/4, emitted/4
				}
				h.declarePrimaryFeed("F", makeGen(emitted, 0), 1, "lib#evenOnly")
				conn, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", policy)
				if err != nil {
					t.Fatal(err)
				}
				waitFor(t, 10*time.Second, "every record persisted or ended at Assign", func() bool {
					return h.datasetCount(ds) == persisted && applied.Load() >= emitted
				})
				waitFor(t, 5*time.Second, "no pending acks", func() bool { return conn.PendingAcks() == 0 })
				// Filtering is not an exception; a UDF error is exactly one.
				if got := conn.Metrics.SoftFailures.Value(); got != int64(bad) {
					t.Fatalf("soft failures = %d, want %d", got, bad)
				}
				// Stable: no stragglers arrive, nothing is replayed.
				n := waitStable(t, 5*time.Second, 200*time.Millisecond, func() int { return h.datasetCount(ds) })
				if n != persisted {
					t.Fatalf("final count = %d, want %d", n, persisted)
				}
				if got := applied.Load(); got != emitted {
					t.Fatalf("UDF applied %d times for %d records", got, emitted)
				}
				if got := conn.Metrics.Replayed.Value(); got != 0 {
					t.Fatalf("replayed %d records", got)
				}
			})
		}
	}
}

func TestRecoveryDurationsRecorded(t *testing.T) {
	h := newHarness(t, "A", "B", "C", "D")
	h.declareTweetDataset("Tweets", "A")
	h.declarePrimaryFeed("F", makeGen(0, 100*time.Microsecond), 1, "tweetlib#sentimentAnalysis")
	conn, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "FaultTolerant", WithComputeCount(1))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "ingesting", func() bool {
		return conn.Metrics.Persisted.Total() > 50
	})
	intake, compute, _ := conn.Locations()
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
	waitFor(t, 15*time.Second, "recovery recorded", func() bool {
		return len(conn.Recoveries()) == 1
	})
	d := conn.Recoveries()[0]
	if d <= 0 || d > 10*time.Second {
		t.Fatalf("recovery duration = %v", d)
	}
}

func TestAtLeastOnceDrainsWithoutFailures(t *testing.T) {
	// Without any failure, every tracked record is acknowledged and
	// intake memory drains to zero.
	h := newHarness(t, "A")
	ds := h.declareTweetDataset("Tweets")
	h.declarePrimaryFeed("F", makeGen(300, 0), 1, "")
	conn, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "AtLeastOnce")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "300 persisted", func() bool { return h.datasetCount(ds) == 300 })
	waitFor(t, 10*time.Second, "acks drained", func() bool { return conn.PendingAcks() == 0 })
	if got := conn.Metrics.Replayed.Value(); got != 0 {
		t.Fatalf("replays without failures = %d", got)
	}
}

func TestElasticScaleInAfterLoadDrops(t *testing.T) {
	h := newHarness(t, "A", "B", "C")
	h.declareTweetDataset("Tweets", "A")
	h.mgr.Functions().Register(DelayFunction("lib#slow4", 500*time.Microsecond))
	// Burst hard for a while, then go quiet.
	gen := func(partition int, sink RecordSink, stop <-chan struct{}) error {
		deadline := time.Now().Add(600 * time.Millisecond)
		i := 0
		for time.Now().Before(deadline) {
			for b := 0; b < 20; b++ {
				if err := sink.Emit(tweet(i, partition, "x")); err != nil {
					return nil
				}
				i++
			}
			select {
			case <-stop:
				return nil
			case <-time.After(2 * time.Millisecond):
			}
		}
		// Quiet period: a trickle to keep the pipeline alive.
		for {
			select {
			case <-stop:
				return nil
			case <-time.After(20 * time.Millisecond):
			}
			if err := sink.Emit(tweet(i, partition, "x")); err != nil {
				return nil
			}
			i++
		}
	}
	h.mgr.Adaptors().Register("gen-burst", func(map[string]string) (ConfiguredAdaptor, error) {
		return &InProcessAdaptor{Gen: gen, Push: true}, nil
	})
	if err := h.catalog.CreateFeed(&metadata.FeedDecl{
		Dataverse: "feeds", Name: "F", Primary: true,
		AdaptorName: "gen-burst", Function: "lib#slow4",
	}); err != nil {
		t.Fatal(err)
	}
	elastic := &metadata.PolicyDecl{Name: "Elastic3", Params: map[string]string{
		metadata.ParamElastic:      "true",
		metadata.ParamMemoryBudget: "300",
	}}
	if err := h.catalog.CreatePolicy(elastic); err != nil {
		t.Fatal(err)
	}
	conn, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "Elastic3", WithComputeCount(1))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, "scale-out during burst", func() bool {
		return conn.ComputeCount() > 1
	})
	waitFor(t, 30*time.Second, "scale-in during quiet period", func() bool {
		for _, ev := range conn.ElasticEvents() {
			if strings.Contains(ev, "scale-in") {
				return true
			}
		}
		return false
	})
}

func TestManagerCloseIsIdempotentAndStopsConnections(t *testing.T) {
	h := newHarness(t, "A")
	h.declareTweetDataset("Tweets")
	h.declarePrimaryFeed("F", makeGen(0, time.Millisecond), 1, "")
	conn, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "Basic")
	if err != nil {
		t.Fatal(err)
	}
	h.mgr.Close()
	h.mgr.Close() // idempotent
	if st := conn.State(); st != ConnDisconnected {
		t.Fatalf("state after close = %v", st)
	}
	if _, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "Basic"); err == nil {
		t.Fatal("connect on closed manager succeeded")
	}
}

func TestSubscriptionSpillThenThrottleCustomPolicy(t *testing.T) {
	// Listing 4.6's custom policy: spill to a bounded file, then throttle
	// once the spillage budget is exhausted.
	j := newJoint("feeds.F", "A", 0)
	pol := &Policy{
		MemoryBudgetRecords: 10,
		Spill:               true,
		Throttle:            true,
		MaxSpillBytes:       600, // tiny: a few frames
		ThrottleMinRatio:    0.05,
	}
	spillPath := t.TempDir() + "/custom.spill"
	s, err := j.Subscribe("c", pol, spillPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		f := newTestFrame(byte(i))
		j.Deposit(f)
	}
	st := s.Stats()
	if st.SpilledTotal == 0 {
		t.Fatal("custom policy never spilled")
	}
	if st.ThrottledOut == 0 {
		t.Fatal("custom policy never throttled after spill budget exhausted")
	}
}

func newTestFrame(b byte) *hyracks.Frame {
	f := hyracks.NewFrame(1)
	f.Append([]byte{b})
	return f
}

func TestConcurrentConnectDisconnect(t *testing.T) {
	// Hammer connect/disconnect across several feeds concurrently; the
	// manager must stay consistent and every connection must terminate
	// cleanly.
	h := newHarness(t, "A", "B")
	for i := 0; i < 4; i++ {
		h.declareTweetDataset(fmt.Sprintf("D%d", i))
		h.declarePrimaryFeed(fmt.Sprintf("F%d", i), makeGen(0, 500*time.Microsecond), 1, "")
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			feed, ds := fmt.Sprintf("F%d", i), fmt.Sprintf("D%d", i)
			for round := 0; round < 3; round++ {
				if _, err := h.mgr.ConnectFeed("feeds", feed, ds, "Basic"); err != nil {
					t.Errorf("connect %s: %v", feed, err)
					return
				}
				time.Sleep(30 * time.Millisecond)
				if err := h.mgr.DisconnectFeed("feeds", feed, ds); err != nil {
					t.Errorf("disconnect %s: %v", feed, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, c := range h.mgr.Connections() {
		if st := c.State(); st != ConnDisconnected {
			t.Errorf("connection %s ended in state %v", c.ID(), st)
		}
	}
}
