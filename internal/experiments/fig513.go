package experiments

import (
	"fmt"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/core"
	"asterixfeeds/internal/metadata"
)

// Fig513Row is one x-position of Figure 5.13: records persisted via Feed_A
// and Feed_B under the cascade and independent network configurations, at a
// given %OVERLAP of shared pre-processing (Table 5.2).
type Fig513Row struct {
	// OverlapPct is %OVERLAP = f1/f3 (Table 5.2).
	OverlapPct int
	// CascadeA/CascadeB are records persisted by each feed in the
	// cascade network (Figure 5.11).
	CascadeA, CascadeB int64
	// IndependentA/IndependentB are records persisted by each feed in
	// the independent network (Figure 5.12).
	IndependentA, IndependentB int64
}

// Fig513Config parameterizes the fetch-once/compute-many experiment
// (§5.7.2).
type Fig513Config struct {
	Scale Scale
	// Overlaps are the %OVERLAP points; the paper uses 20, 40, 60, 80.
	Overlaps []int
	// TotalCostUnits is f3's cost (f1+f2) in spin units; Table 5.2 uses
	// 50 ms split per overlap — here a spin unit is SpinIterations loop
	// iterations.
	TotalCostUnits int
	// SpinIterations is the busy-loop length of one cost unit. The
	// default is the length that takes SpinUnit of CPU on this host.
	SpinIterations int
	// RateTwps is the per-adaptor tweet rate (overload the CPU).
	RateTwps int
	// Repetitions runs each configuration several times keeping the best
	// (highest-total) run, damping GC and scheduler noise on the shared
	// CPU.
	Repetitions int
}

// SpinUnit is the CPU time of one default cost unit. f3 then costs
// 50 × 2.5 µs = 125 µs a record, so one compute partition keeps up with
// 8 000 records/s, a third of the 25 000 twps each adaptor offers: the
// feeds are overloaded by their UDFs whatever the rest of the pipeline
// costs and however fast the host's CPU is.
const SpinUnit = 2500 * time.Nanosecond

// DefaultFig513Config returns scaled-down defaults.
func DefaultFig513Config(s Scale) Fig513Config {
	return Fig513Config{
		Scale:          s,
		Overlaps:       []int{20, 40, 60, 80},
		TotalCostUnits: 50,
		SpinIterations: spinIterationsFor(SpinUnit),
		RateTwps:       25000,
		Repetitions:    2,
	}
}

// spinIterationsFor returns the busy-loop length of core.SpinFunction that
// takes d of CPU on this host. It times the loop five times and keeps the
// fastest, so a host busy during the measurement does not shorten the unit.
func spinIterationsFor(d time.Duration) int {
	const probe = 1 << 20
	fn := core.SpinFunction("calibrate", probe)
	var rec adm.Record
	fastest := time.Duration(1<<63 - 1)
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := fn.Apply(&rec); err != nil {
			panic(err)
		}
		fastest = min(fastest, time.Since(start))
	}
	return max(1, int(int64(probe)*int64(d)/int64(max(fastest, 1))))
}

// Fig513 reproduces Figure 5.13 (and the setup of Table 5.2): for each
// %OVERLAP it runs the cascade network (shared connection, f1 computed
// once) and the independent network (two connections, f1 computed twice)
// under CPU overload with the Discard policy, and reports records persisted
// per feed in the measurement window.
func Fig513(cfg Fig513Config) ([]Fig513Row, error) {
	var rows []Fig513Row
	for _, overlap := range cfg.Overlaps {
		f1Units := cfg.TotalCostUnits * overlap / 100
		f2Units := cfg.TotalCostUnits - f1Units

		cascA, cascB, err := bestOf(cfg, true, f1Units, f2Units)
		if err != nil {
			return nil, fmt.Errorf("cascade overlap %d: %w", overlap, err)
		}
		indA, indB, err := bestOf(cfg, false, f1Units, f2Units)
		if err != nil {
			return nil, fmt.Errorf("independent overlap %d: %w", overlap, err)
		}
		rows = append(rows, Fig513Row{
			OverlapPct:   overlap,
			CascadeA:     cascA,
			CascadeB:     cascB,
			IndependentA: indA,
			IndependentB: indB,
		})
	}
	return rows, nil
}

// bestOf repeats runNetwork keeping the run with the highest total.
func bestOf(cfg Fig513Config, cascade bool, f1Units, f2Units int) (int64, int64, error) {
	reps := cfg.Repetitions
	if reps < 1 {
		reps = 1
	}
	var bestA, bestB int64
	for r := 0; r < reps; r++ {
		a, b, err := runNetwork(cfg, cascade, f1Units, f2Units)
		if err != nil {
			return 0, 0, err
		}
		if a+b > bestA+bestB {
			bestA, bestB = a, b
		}
	}
	return bestA, bestB, nil
}

// runNetwork builds either the cascade (Figure 5.11) or the independent
// (Figure 5.12) configuration and measures records persisted per feed over
// the run window. Everything runs on one node with single compute
// partitions: the CPU is the contended resource, exactly as in §5.7.2.
func runNetwork(cfg Fig513Config, cascade bool, f1Units, f2Units int) (persistedA, persistedB int64, err error) {
	inst, err := startInstance(1, cfg.Scale.Window)
	if err != nil {
		return 0, 0, err
	}
	defer inst.Close()
	if _, err := inst.Exec(tweetDDL); err != nil {
		return 0, 0, err
	}
	for _, ds := range []string{"D1", "D2"} {
		if err := declareTweetDataset(inst, ds); err != nil {
			return 0, 0, err
		}
	}

	// Synthetic spin UDFs, as in §5.7.2: f1 and f2 burn CPU proportional
	// to their cost units; f3 = f2(f1(x)).
	reg := inst.Feeds().Functions()
	reg.Register(spinFn("exp#f1", f1Units*cfg.SpinIterations))
	reg.Register(spinFn("exp#f2", f2Units*cfg.SpinIterations))
	reg.Register(spinFn("exp#f3", (f1Units+f2Units)*cfg.SpinIterations))

	discard, _ := inst.Catalog().Policy("Discard")
	exp := discard.Clone("Exp_Discard")
	exp.Params[metadata.ParamMemoryBudget] = "1000"
	if err := inst.Catalog().CreatePolicy(exp); err != nil {
		return 0, 0, err
	}

	adaptor := fmt.Sprintf(`tweetgen_adaptor ("rate"="%d", "seed"="13")`, cfg.RateTwps)
	if cascade {
		_, err = inst.Exec(fmt.Sprintf(`use dataverse feeds;
			create feed FeedA using %s apply function "exp#f1";
			create secondary feed FeedB from feed FeedA apply function "exp#f2";`, adaptor))
	} else {
		_, err = inst.Exec(fmt.Sprintf(`use dataverse feeds;
			create feed FeedA using %s apply function "exp#f1";
			create feed FeedB using %s apply function "exp#f3";`, adaptor, adaptor))
	}
	if err != nil {
		return 0, 0, err
	}
	connA, err := inst.Feeds().ConnectFeed("feeds", "FeedA", "D1", "Exp_Discard", core.WithComputeCount(1))
	if err != nil {
		return 0, 0, err
	}
	connB, err := inst.Feeds().ConnectFeed("feeds", "FeedB", "D2", "Exp_Discard", core.WithComputeCount(1))
	if err != nil {
		return 0, 0, err
	}

	time.Sleep(cfg.Scale.RunFor)
	return connA.Metrics.Persisted.Total(), connB.Metrics.Persisted.Total(), nil
}
