// Policies: Chapter 7's data-indigestion scenario. The same overloading
// square-wave workload runs under the Discard, Throttle, and Spill
// policies; each policy's handling of excess records is reported, plus a
// custom Spill_then_Throttle policy composed from a builtin (Listing 4.6).
//
// The second act demonstrates the ingestion governor's priority classes:
// a high-priority at-least-once feed and a low-priority flood share one
// node with a deliberately tiny memory budget. The flood gets metered and
// shed; the critical feed loses nothing.
package main

import (
	"fmt"
	"log"
	"time"

	"asterixfeeds"
	"asterixfeeds/internal/core"
	"asterixfeeds/internal/governor"
	"asterixfeeds/internal/hyracks"
	"asterixfeeds/internal/lsm"
)

func main() {
	for _, policy := range []string{"Discard", "Throttle", "Spill", "Spill_then_Throttle"} {
		if err := runOnce(policy); err != nil {
			log.Fatalf("%s: %v", policy, err)
		}
	}
	if err := runPriorityDemo(); err != nil {
		log.Fatalf("priority demo: %v", err)
	}
}

// runPriorityDemo floods a budget-constrained node from a low-priority feed
// while a high-priority feed ingests beside it, then reports what the
// governor shed and what each feed kept.
func runPriorityDemo() error {
	inst, err := asterixfeeds.Start(asterixfeeds.Config{
		Nodes:    []string{"nc1"},
		Hyracks:  hyracks.Config{QueueDepth: 8},
		Feeds:    core.Options{FrameCapacity: 16},
		LSM:      lsm.Options{MemtableBytes: 32 << 10},
		Governor: governor.Config{BudgetBytes: 256 << 10},
	})
	if err != nil {
		return err
	}
	defer inst.Close()

	inst.MustExec(`
		use dataverse feeds;
		create type Tweet as open { id: string, message_text: string };
		create dataset Critical(Tweet) primary key id;
		create dataset BestEffort(Tweet) primary key id;

		create ingestion policy CriticalPolicy from policy Spill
			(("at.least.once.enabled"="true", "ingestion.priority"="high"));
		create ingestion policy BestEffortPolicy from policy Discard
			(("memory.budget.records"="1000000", "ingestion.priority"="low"));
	`)
	// The flood's compute stage is latency-bound far below its intake rate,
	// so only governor shedding keeps its backlog — and the node — bounded.
	inst.Feeds().Functions().Register(core.DelayFunction("lib#slow_path", 2*time.Millisecond))
	inst.MustExec(`
		use dataverse feeds;
		create feed CriticalFeed using tweetgen_adaptor
			("rate"="500", "count"="1000", "seed"="1");
		create feed FloodFeed using tweetgen_adaptor
			("rate"="40000", "count"="60000", "seed"="2")
			apply function "lib#slow_path";
	`)
	flood, err := inst.Feeds().ConnectFeed("feeds", "FloodFeed", "BestEffort", "BestEffortPolicy")
	if err != nil {
		return err
	}
	critical, err := inst.Feeds().ConnectFeed("feeds", "CriticalFeed", "Critical", "CriticalPolicy")
	if err != nil {
		return err
	}

	for critical.Metrics.Persisted.Total() < 1000 || critical.PendingAcks() > 0 {
		if critical.State() == core.ConnFailed {
			return fmt.Errorf("critical feed failed: %v", critical.Err())
		}
		time.Sleep(10 * time.Millisecond)
	}

	g := inst.Governor("nc1")
	var floodShed int64
	for _, a := range inst.Feeds().FeedActivity() {
		if a.Connection == flood.ID() {
			floodShed = a.GovernorShed
		}
	}
	fmt.Printf("\ngovernor priority demo (budget %d KiB):\n", g.Budget()/1024)
	fmt.Printf("  %-12s persisted=%6d shed=%6d  (high priority, at-least-once)\n",
		"CriticalFeed", critical.Metrics.Persisted.Total(), int64(0))
	fmt.Printf("  %-12s persisted=%6d shed=%6d  (low priority, best effort)\n",
		"FloodFeed", flood.Metrics.Persisted.Total(), floodShed)
	fmt.Printf("  node nc1: tracked=%d bytes, pressure=%.2f, shed %d records total\n",
		g.TrackedBytes(), g.Pressure(), g.ShedRecords.Value())
	return nil
}

func runOnce(policy string) error {
	inst, err := asterixfeeds.Start(asterixfeeds.Config{
		Nodes:   []string{"nc1", "nc2"},
		Hyracks: hyracks.Config{},
	})
	if err != nil {
		return err
	}
	defer inst.Close()

	inst.MustExec(`
		use dataverse feeds;
		create type Tweet as open { id: string, message_text: string };
		create dataset Tweets(Tweet) primary key id;

		create ingestion policy Spill_then_Throttle from policy Spill
			(("max.spill.size.on.disk"="1MB", "excess.records.throttle"="true"));
	`)
	// A latency-bound UDF caps one compute partition at ~2000 rec/s; the
	// generator alternates 1000 and 6000 rec/s.
	inst.Feeds().Functions().Register(core.DelayFunction("lib#slow", 500*time.Microsecond))
	inst.MustExec(`
		use dataverse feeds;
		create feed WaveFeed using tweetgen_adaptor
			("pattern"="<pattern><cycle repeat=\"2\"><interval><duration>0.5</duration><rate>1000</rate></interval><interval><duration>0.5</duration><rate>6000</rate></interval></cycle></pattern>")
		apply function "lib#slow";
	`)
	conn, err := inst.Feeds().ConnectFeed("feeds", "WaveFeed", "Tweets", policy,
		core.WithComputeCount(1))
	if err != nil {
		return err
	}

	time.Sleep(2500 * time.Millisecond)
	n, err := inst.DatasetCount("Tweets")
	if err != nil {
		return err
	}
	fmt.Printf("%-20s persisted=%6d softFailures=%d state=%s\n",
		policy, n, conn.Metrics.SoftFailures.Value(), conn.State())
	return nil
}
