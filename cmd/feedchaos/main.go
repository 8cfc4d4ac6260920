// Command feedchaos runs the deterministic fault-injection harness over the
// feed stack and checks ingestion invariants (at-least-once delivery,
// index consistency, replica convergence, WAL replay idempotence, and
// exact recovery of unflushed state from WAL segments).
//
// Sweep a seed range (the CI smoke run):
//
//	feedchaos -seeds 50
//
// Replay one failing seed, or an explicit fault schedule printed by a
// failed sweep:
//
//	feedchaos -seed 17
//	feedchaos -seed 17 -replay 'frame:B:Store@1:kill;core:ack:C@2:err'
//
// Shrink a failing schedule to a 1-minimal repro:
//
//	feedchaos -seed 17 -shrink
//
// Restart-under-fault mode (-restart) adds a recovery-chaos phase after the
// workload: each run's partitions are reopened with faults injected into
// recovery itself (manifest snapshot writes, mid-WAL-replay crashes), and a
// second clean restart must still recover exactly:
//
//	feedchaos -restart -seeds 50
//
// Overload mode (-overload) swaps the fault schedule for a seeded flood: a
// low-priority discard feed offering several node-memory-budgets' worth of
// data races a high-priority at-least-once feed, and the invariants move to
// the ingestion governor — bounded tracked bytes, no high-priority loss,
// and an exactly-balanced shed ledger:
//
//	feedchaos -overload -seeds 50
//
// Every failure is reported with its seed and schedule string; the same
// seed and schedule always reproduce the same interleaving and verdict.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"asterixfeeds/internal/chaos"
)

func main() {
	var (
		seeds    = flag.Int("seeds", 0, "sweep seeds 1..N with generated schedules")
		seed     = flag.Int64("seed", 1, "single seed to run (ignored with -seeds)")
		records  = flag.Int("records", 300, "records emitted per run")
		replay   = flag.String("replay", "", "explicit fault schedule (point@hit:action;...) overriding the generated one")
		shrink   = flag.Bool("shrink", false, "shrink a failing run to a minimal fault schedule")
		restart  = flag.Bool("restart", false, "add a restart-under-fault phase (crash recovery itself, then require a clean second restart)")
		overload = flag.Bool("overload", false, "run the governor overload scenario (seeded flood over the memory budget) instead of the fault harness")
		parallel = flag.Int("parallel", 4, "concurrent scenarios during a sweep")
		timeout  = flag.Duration("timeout", 60*time.Second, "per-run drain timeout")
		verbose  = flag.Bool("v", false, "report passing runs too")
	)
	flag.Parse()

	if *overload {
		if *seeds > 0 {
			os.Exit(overloadSweep(*seeds, *records, *timeout, *parallel, *verbose))
		}
		os.Exit(overloadSingle(*seed, *records, *timeout, *verbose))
	}
	if *seeds > 0 {
		os.Exit(sweep(*seeds, *records, *timeout, *parallel, *restart, *verbose))
	}
	os.Exit(single(*seed, *records, *timeout, *replay, *shrink, *restart, *verbose))
}

func overloadSingle(seed int64, records int, timeout time.Duration, verbose bool) int {
	res, err := chaos.RunOverload(chaos.OverloadScenario{Seed: seed, Records: records, Timeout: timeout})
	if err != nil {
		fmt.Fprintln(os.Stderr, "feedchaos: harness error:", err)
		return 2
	}
	reportOverload(res, verbose || !res.Passed())
	if res.Passed() {
		return 0
	}
	return 1
}

func overloadSweep(n, records int, timeout time.Duration, parallel int, verbose bool) int {
	if parallel < 1 {
		parallel = 1
	}
	type outcome struct {
		res *chaos.OverloadResult
		err error
	}
	results := make([]outcome, n+1)
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for s := 1; s <= n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := chaos.RunOverload(chaos.OverloadScenario{Seed: int64(s), Records: records, Timeout: timeout})
			results[s] = outcome{res, err}
		}(s)
	}
	wg.Wait()

	failures := 0
	for s := 1; s <= n; s++ {
		o := results[s]
		if o.err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "seed %d: harness error: %v\n", s, o.err)
			continue
		}
		if !o.res.Passed() {
			failures++
		}
		reportOverload(o.res, verbose || !o.res.Passed())
	}
	fmt.Printf("feedchaos: %d/%d overload seeds passed (%d hi records each)\n", n-failures, n, records)
	if failures > 0 {
		return 1
	}
	return 0
}

func reportOverload(res *chaos.OverloadResult, show bool) {
	if !show {
		return
	}
	status := "PASS"
	if !res.Passed() {
		status = "FAIL"
	}
	fmt.Printf("%s seed=%d budget=%d maxTracked=%d hi=%d/%d lo=%d stored + %d shed + %d discarded of %d\n",
		status, res.Seed, res.BudgetBytes, res.MaxTrackedBytes,
		res.StoredHi, res.EmittedHi, res.StoredLo, res.ShedLo, res.DiscardedLo, res.EmittedLo)
	for _, f := range res.Failures {
		fmt.Printf("    FAILED INVARIANT: %s\n", f)
	}
	if !res.Passed() {
		fmt.Printf("    replay: feedchaos -overload -seed %d\n", res.Seed)
	}
}

func single(seed int64, records int, timeout time.Duration, replay string, shrink, restart, verbose bool) int {
	sc := chaos.Scenario{Seed: seed, Records: records, Timeout: timeout, Restart: restart}
	if replay != "" {
		sched, err := chaos.ParseSchedule(replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "feedchaos:", err)
			return 2
		}
		sc.Schedule = sched
	}
	res, err := chaos.Run(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "feedchaos: harness error:", err)
		return 2
	}
	report(res, verbose || !res.Passed())
	if res.Passed() {
		return 0
	}
	if shrink {
		fmt.Printf("shrinking schedule %q...\n", res.Schedule)
		minimal, err := chaos.Shrink(sc, func(attempt chaos.Schedule, failed bool) {
			verdict := "passes"
			if failed {
				verdict = "still fails"
			}
			fmt.Printf("  %d fault(s): %s\n", len(attempt), verdict)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "feedchaos: shrink error:", err)
		} else {
			fmt.Printf("minimal repro: feedchaos -seed %d -records %d -replay '%s'\n", seed, records, minimal.String())
		}
	}
	return 1
}

func sweep(n, records int, timeout time.Duration, parallel int, restart, verbose bool) int {
	if parallel < 1 {
		parallel = 1
	}
	type outcome struct {
		res *chaos.Result
		err error
	}
	results := make([]outcome, n+1)
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for s := 1; s <= n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := chaos.Run(chaos.Scenario{Seed: int64(s), Records: records, Timeout: timeout, Restart: restart})
			results[s] = outcome{res, err}
		}(s)
	}
	wg.Wait()

	failures := 0
	for s := 1; s <= n; s++ {
		o := results[s]
		if o.err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "seed %d: harness error: %v\n", s, o.err)
			continue
		}
		if !o.res.Passed() {
			failures++
		}
		report(o.res, verbose || !o.res.Passed())
	}
	fmt.Printf("feedchaos: %d/%d seeds passed (%d records each)\n", n-failures, n, records)
	if failures > 0 {
		return 1
	}
	return 0
}

func report(res *chaos.Result, show bool) {
	if !show {
		return
	}
	status := "PASS"
	if !res.Passed() {
		status = "FAIL"
	}
	fmt.Printf("%s seed=%d schedule=%q fired=%d stored=%d/%d replayed=%d replayDropped=%d storeErrs=%d\n",
		status, res.Seed, res.Schedule, len(res.Fired), res.Stored, res.Emitted, res.Replayed, res.ReplayDropped, res.StoreErrors)
	for _, f := range res.Fired {
		fmt.Printf("    fired: %s\n", f)
	}
	for _, d := range res.Degradations {
		fmt.Printf("    degraded: %s\n", d)
	}
	if res.RestartSchedule != "" {
		fmt.Printf("    restart schedule=%q crashedOpens=%d\n", res.RestartSchedule, res.CrashedOpens)
		for _, f := range res.RestartFired {
			fmt.Printf("    restart fired: %s\n", f)
		}
	}
	for _, f := range res.Failures {
		fmt.Printf("    FAILED INVARIANT: %s\n", f)
	}
	if !res.Passed() {
		fmt.Printf("    replay: feedchaos -seed %d -replay '%s'\n", res.Seed, res.Schedule)
	}
}
