package asterixfeeds_test

// BenchmarkOverload measures the ingestion governor doing its one job:
// keeping a node's memory bounded under a sustained over-budget flood
// without hurting a high-priority feed. Three phases on a single node:
//
//  1. baseline  — the high-priority feed alone (unloaded p99 latency)
//  2. governed  — the same feed racing a low-priority flood offering ~4x
//     the node budget; tracked bytes must stay within the budget and the
//     high-priority p99 within 2x the (noise-floored) baseline
//  3. ungoverned — the identical flood with the governor in observe-only
//     mode; tracked bytes must blow through 2x the budget, demonstrating
//     the growth the governor prevents
//
// bench-smoke runs it at -benchtime=1x, so the assertions execute on every
// CI pass, not only when someone benchmarks.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"asterixfeeds"
	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/core"
	"asterixfeeds/internal/governor"
	"asterixfeeds/internal/hyracks"
	"asterixfeeds/internal/lsm"
	"asterixfeeds/internal/metadata"
	"asterixfeeds/internal/storage"
	"asterixfeeds/internal/tweetgen"
)

const (
	overloadBudget       = 512 << 10
	overloadHiRecords    = 400
	overloadLoRecords    = 128 << 10 // ~4x budget at ~16 bytes/record on the wire
	overloadNode         = "nc1"
	overloadLatencyNoise = 25 * time.Millisecond
)

type overloadPhaseResult struct {
	maxTracked int64
	maxSources map[string]int64
	hiP99      time.Duration
	shedLo     int64
}

// runOverloadPhase boots a fresh single-node instance, runs the
// high-priority feed (plus, when flood is set, the low-priority flood) to
// completion of the high-priority feed, and reports the peak
// governor-tracked bytes and the high-priority ingestion p99.
func runOverloadPhase(b *testing.B, flood, observeOnly bool) overloadPhaseResult {
	b.Helper()
	inst, err := asterixfeeds.Start(asterixfeeds.Config{
		Nodes: []string{overloadNode},
		// Small memtables and shallow execution queues keep the structurally
		// bounded layers (LSM buffers, QueueDepth-capped in-flight frames)
		// well inside the budget, so tracked bytes measure the governed
		// backlog — the term that actually grows with the flood.
		Hyracks:  hyracks.Config{QueueDepth: 8},
		Feeds:    core.Options{FrameCapacity: 16},
		LSM:      lsm.Options{MemtableBytes: 32 << 10},
		Governor: governor.Config{BudgetBytes: overloadBudget, ObserveOnly: observeOnly},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer inst.Close()

	catalog := it(b, inst)
	rt := adm.MustRecordType("BenchTweet", true, []adm.Field{
		{Name: "id", Type: adm.TString},
		{Name: "country", Type: adm.TString},
	})
	mkDataset := func(name string) {
		err := catalog.CreateDataset(&storage.Dataset{
			Dataverse: "feeds", Name: name, Type: rt,
			PrimaryKey: []string{"id"}, NodeGroup: []string{overloadNode},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	mkDataset("BenchHi")
	mkDataset("BenchLo")
	err = catalog.CreatePolicy(&metadata.PolicyDecl{Name: "BenchHi", Params: map[string]string{
		metadata.ParamAtLeastOnce:  "true",
		metadata.ParamSpill:        "true",
		metadata.ParamMemoryBudget: "200",
		metadata.ParamPriority:     "high",
	}})
	if err != nil {
		b.Fatal(err)
	}
	err = catalog.CreatePolicy(&metadata.PolicyDecl{Name: "BenchLo", Params: map[string]string{
		metadata.ParamDiscard:      "true",
		metadata.ParamMemoryBudget: "10000000",
		metadata.ParamPriority:     "low",
	}})
	if err != nil {
		b.Fatal(err)
	}
	// The flood's compute stage is latency-bound far below the adaptor's
	// rate, so without the governor its joint backlog grows with the flood.
	inst.Feeds().Functions().Register(core.DelayFunction("lib#bench_slow", 2*time.Millisecond))

	newGen := func(seed int64, count, burst int, done chan struct{}) core.GeneratorFunc {
		var once sync.Once
		return func(partition int, sink core.RecordSink, stop <-chan struct{}) error {
			defer once.Do(func() { close(done) })
			g := tweetgen.NewGenerator(seed, partition)
			for i := 0; i < count; i++ {
				select {
				case <-stop:
					return nil
				default:
				}
				if err := sink.Emit(g.Next()); err != nil {
					select {
					case <-stop:
						return nil
					case <-time.After(time.Millisecond):
					}
					i--
					continue
				}
				if burst > 0 && (i+1)%burst == 0 {
					select {
					case <-stop:
						return nil
					case <-time.After(time.Millisecond):
					}
				}
			}
			return nil
		}
	}
	hiDone := make(chan struct{})
	loDone := make(chan struct{})
	inst.Feeds().Adaptors().Register("bench_hi", func(map[string]string) (core.ConfiguredAdaptor, error) {
		return &core.InProcessAdaptor{Gen: newGen(1, overloadHiRecords, 2, hiDone), Parallelism: 1, Push: true}, nil
	})
	inst.Feeds().Adaptors().Register("bench_lo", func(map[string]string) (core.ConfiguredAdaptor, error) {
		return &core.InProcessAdaptor{Gen: newGen(2, overloadLoRecords, 80, loDone), Parallelism: 1, Push: true}, nil
	})
	mkFeed := func(name, adaptor, fn string) {
		err := catalog.CreateFeed(&metadata.FeedDecl{
			Dataverse: "feeds", Name: name, Primary: true, AdaptorName: adaptor, Function: fn,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	mkFeed("BenchHiFeed", "bench_hi", "")
	mkFeed("BenchLoFeed", "bench_lo", "lib#bench_slow")

	g := inst.Governor(overloadNode)
	if g == nil {
		b.Fatal("no governor on node")
	}
	var res overloadPhaseResult
	samplerStop := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-samplerStop:
				return
			case <-tick.C:
				if t := g.TrackedBytes(); t > res.maxTracked {
					res.maxTracked = t
					res.maxSources = g.SourceBytes()
				}
			}
		}
	}()

	var connLo *core.Connection
	if flood {
		connLo, err = inst.Feeds().ConnectFeed("feeds", "BenchLoFeed", "BenchLo", "BenchLo")
		if err != nil {
			b.Fatal(err)
		}
	}
	connHi, err := inst.Feeds().ConnectFeed("feeds", "BenchHiFeed", "BenchHi", "BenchHi")
	if err != nil {
		b.Fatal(err)
	}

	deadline := time.Now().Add(60 * time.Second)
	select {
	case <-hiDone:
	case <-time.After(time.Until(deadline)):
		b.Fatal("high-priority generator did not finish")
	}
	if flood {
		select {
		case <-loDone:
		case <-time.After(time.Until(deadline)):
			b.Fatal("flood generator did not finish")
		}
	}
	for connHi.Metrics.Persisted.Total() < overloadHiRecords || connHi.PendingAcks() > 0 {
		if connHi.State() == core.ConnFailed {
			b.Fatalf("high-priority connection failed: %v", connHi.Err())
		}
		if time.Now().After(deadline) {
			b.Fatalf("high-priority feed stalled: persisted %d/%d, pending %d",
				connHi.Metrics.Persisted.Total(), overloadHiRecords, connHi.PendingAcks())
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(samplerStop)
	samplerWG.Wait()
	res.hiP99 = connHi.Metrics.IngestionLatency.Quantile(0.99)
	if connLo != nil {
		for _, a := range inst.Feeds().FeedActivity() {
			if a.Connection == connLo.ID() {
				res.shedLo = a.GovernorShed
			}
		}
	}
	return res
}

// it creates the benchmark dataverse and returns the catalog.
func it(b *testing.B, inst *asterixfeeds.Instance) *metadata.Catalog {
	b.Helper()
	c := inst.Catalog()
	if err := c.CreateDataverse("feeds"); err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkOverload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := runOverloadPhase(b, false, false)
		gov := runOverloadPhase(b, true, false)
		ungov := runOverloadPhase(b, true, true)

		b.ReportMetric(float64(gov.maxTracked), "gov-max-bytes")
		b.ReportMetric(float64(ungov.maxTracked), "ungov-max-bytes")
		b.ReportMetric(float64(base.hiP99.Microseconds()), "hi-p99-base-us")
		b.ReportMetric(float64(gov.hiP99.Microseconds()), "hi-p99-flood-us")
		b.ReportMetric(float64(gov.shedLo), "gov-shed-recs")

		if gov.maxTracked > overloadBudget {
			b.Fatalf("governed flood: tracked bytes peaked at %d (%v), over the %d budget",
				gov.maxTracked, gov.maxSources, overloadBudget)
		}
		if gov.shedLo == 0 {
			b.Fatalf("governed flood: nothing shed (governor not engaging)")
		}
		if ungov.maxTracked <= 2*overloadBudget {
			b.Fatalf("ungoverned flood: tracked bytes peaked at %d, expected growth past 2x the %d budget",
				ungov.maxTracked, overloadBudget)
		}
		floor := base.hiP99
		if floor < overloadLatencyNoise {
			floor = overloadLatencyNoise
		}
		if gov.hiP99 > 2*floor {
			b.Fatalf("high-priority p99 under flood = %v, over 2x the unloaded baseline (%v, floored at %v)",
				gov.hiP99, base.hiP99, overloadLatencyNoise)
		}
		printOnce("overload", func() {
			fmt.Printf("overload: budget=%d governed max=%d (shed %d recs) ungoverned max=%d | hi p99 %v -> %v under flood\n",
				overloadBudget, gov.maxTracked, gov.shedLo, ungov.maxTracked, base.hiP99, gov.hiP99)
		})
	}
}
