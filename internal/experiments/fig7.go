package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/core"
	"asterixfeeds/internal/metadata"
	"asterixfeeds/internal/tweetgen"
)

// PolicyRunResult is one policy's behaviour under the Chapter 7 congestion
// workload.
type PolicyRunResult struct {
	// Policy is the ingestion policy name.
	Policy string
	// Window is the sampling bucket width.
	Window time.Duration
	// ArrivalSeries / PersistedSeries are per-window record counts for
	// the offered load (Figure 7.2's square wave) and the persisted
	// output (Figures 7.3-7.7).
	ArrivalSeries, PersistedSeries []int64
	// CollectedTotal / PersistedTotal are the total records the intake
	// took and the store persisted. Sampled after a full drain, they are
	// equal unless a store failed.
	CollectedTotal, PersistedTotal int64
	// Discarded / ThrottledOut / Spilled count the policy's
	// excess-record handling.
	Discarded, ThrottledOut, Spilled int64
	// LatencyP50 / LatencyP99 are intake queueing-delay order statistics
	// (the latency the policies trade against loss, §7.3).
	LatencyP50, LatencyP99 time.Duration
	// FinalComputeCount is the compute parallelism at the end (grows
	// under the Elastic policy).
	FinalComputeCount int
	// ElasticEvents lists scale decisions (Elastic policy only).
	ElasticEvents []string
}

// Fig7Config parameterizes the ingestion-policy experiments (§7.3-§7.4).
type Fig7Config struct {
	Scale Scale
	// LowRate / HighRate are the square wave's two levels (records/s);
	// HighRate must exceed one compute partition's capacity.
	LowRate, HighRate int
	// HalfPeriod is the square wave's half period.
	HalfPeriod time.Duration
	// Cycles is the number of low/high cycles.
	Cycles int
	// PerRecordCost sets one compute partition's capacity (1/cost).
	PerRecordCost time.Duration
	// MemoryBudget is the policy's in-memory excess threshold in records.
	MemoryBudget int
}

// DefaultFig7Config returns scaled-down defaults: capacity ~2500 rec/s per
// compute partition; the wave alternates 1200 (under) and 6000 (over).
func DefaultFig7Config(s Scale) Fig7Config {
	return Fig7Config{
		Scale:         s,
		LowRate:       1200,
		HighRate:      6000,
		HalfPeriod:    s.RunFor / 2,
		Cycles:        2,
		PerRecordCost: 400 * time.Microsecond,
		MemoryBudget:  400,
	}
}

// Policies runs the congestion workload once per named builtin policy
// (Basic, Spill, Discard, Throttle, Elastic) and reports each policy's
// throughput series and excess-record handling (Figures 7.3-7.8).
func Policies(cfg Fig7Config, policies []string) ([]PolicyRunResult, error) {
	if len(policies) == 0 {
		policies = []string{"Basic", "Spill", "Discard", "Throttle", "Elastic"}
	}
	var out []PolicyRunResult
	for _, p := range policies {
		r, err := runPolicy(cfg, p, nil)
		if err != nil {
			return nil, fmt.Errorf("policy %s: %w", p, err)
		}
		out = append(out, *r)
	}
	return out, nil
}

// runPolicy executes the square-wave workload under one policy. observer,
// when non-nil, sees every persisted record (used by the Figures 7.9/7.10
// pattern experiments).
func runPolicy(cfg Fig7Config, policy string, observer func(*adm.Record)) (*PolicyRunResult, error) {
	inst, err := startInstance(3, cfg.Scale.Window)
	if err != nil {
		return nil, err
	}
	defer inst.Close()
	if _, err := inst.Exec(tweetDDL); err != nil {
		return nil, err
	}
	if err := declareTweetDataset(inst, "Tweets"); err != nil {
		return nil, err
	}
	if err := repinDataset(inst, "Tweets", []string{"nc1"}); err != nil {
		return nil, err
	}
	inst.Feeds().Functions().Register(named("exp#cost",
		core.DelayFunction("exp#cost", cfg.PerRecordCost)))

	// Derive the experiment policy from the named builtin with the
	// configured memory budget (Listing 4.6 mechanism).
	base, ok := inst.Catalog().Policy(policy)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown policy %s", policy)
	}
	custom := base.Clone("Exp_" + policy)
	custom.Params[metadata.ParamMemoryBudget] = strconv.Itoa(cfg.MemoryBudget)
	if err := inst.Catalog().CreatePolicy(custom); err != nil {
		return nil, err
	}

	pattern := tweetgen.SquareWavePattern(cfg.LowRate, cfg.HighRate, cfg.HalfPeriod, cfg.Cycles)
	patternXML := strings.ReplaceAll(string(tweetgen.MarshalPattern(pattern)), "\n", " ")
	_, err = inst.Exec(fmt.Sprintf(`use dataverse feeds;
		create feed WaveFeed using tweetgen_adaptor ("pattern"="%s", "seed"="23")
		apply function "exp#cost";`,
		strings.ReplaceAll(patternXML, `"`, `\"`)))
	if err != nil {
		return nil, err
	}
	// Connect with a single compute partition so the wave's high level
	// genuinely exceeds capacity (the Elastic policy may then grow it).
	conn, err := inst.Feeds().ConnectFeed("feeds", "WaveFeed", "Tweets", "Exp_"+policy,
		core.WithComputeCount(1), core.WithPersistObserver(observer))
	if err != nil {
		return nil, err
	}

	time.Sleep(pattern.TotalDuration() + cfg.Scale.Window)
	// Sample once the connection has drained. Spill's deferred processing is
	// part of its story: sampled after a fixed wait, its unfinished backlog
	// would decide how it compares with the policies that drop records.
	act, err := drain(inst.Feeds(), conn.ID())
	if err != nil {
		return nil, err
	}
	return &PolicyRunResult{
		Policy:            policy,
		Window:            cfg.Scale.Window,
		ArrivalSeries:     conn.Metrics.Collected.Series(),
		PersistedSeries:   conn.Metrics.Persisted.Series(),
		CollectedTotal:    act.CollectedTotal,
		PersistedTotal:    act.PersistedTotal,
		Discarded:         act.Discarded,
		ThrottledOut:      act.ThrottledOut,
		Spilled:           act.SpilledTotal,
		LatencyP50:        act.LatencyP50,
		LatencyP99:        act.LatencyP99,
		FinalComputeCount: act.ComputeCount,
		ElasticEvents:     act.ElasticEvents,
	}, nil
}

// drainTimeout bounds how long a policy run waits for its connection's
// backlog and spill file to empty once the workload has ended; drainSettle is
// how long it then waits for a store that has stopped persisting.
const (
	drainTimeout = time.Minute
	drainSettle  = time.Second
)

// drain waits until connection id's intake backlog and spill file are empty
// and every record the intake took has been stored or has failed to store,
// and returns the connection's activity then. Records still between intake
// and store once nothing has been persisted for drainSettle are lost, and the
// activity shows it. A backlog or spill file that is not empty after
// drainTimeout is an error that says what is left.
func drain(m *core.Manager, id string) (core.FeedActivity, error) {
	deadline := time.Now().Add(drainTimeout)
	persisted, since := int64(-1), time.Now()
	for {
		var act core.FeedActivity
		for _, a := range m.FeedActivity() {
			if a.Connection == id {
				act = a
			}
		}
		queued := act.Backlog > 0 || act.SpilledBytes > 0
		if !queued && act.CollectedTotal == act.PersistedTotal+act.StoreErrors {
			return act, nil
		}
		if queued || act.PersistedTotal != persisted {
			persisted, since = act.PersistedTotal, time.Now()
		} else if time.Since(since) >= drainSettle {
			return act, nil
		}
		if time.Now().After(deadline) {
			return act, fmt.Errorf("experiments: %s not drained after %v: %d records in its backlog, %d bytes in its spill file", id, drainTimeout, act.Backlog, act.SpilledBytes)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// PatternResult holds a Figures 7.9/7.10 run: which record sequence numbers
// were persisted, summarized as the plot's 0/1 pattern statistics.
type PatternResult struct {
	// Policy is Discard or Throttle.
	Policy string
	// Emitted is the highest sequence number observed emitted.
	Emitted int64
	// Persisted is the count of persisted records.
	Persisted int64
	// GapCount is the number of maximal runs of missing records.
	GapCount int
	// MaxGapLen is the longest missing run.
	MaxGapLen int64
	// MeanGapLen is the average missing-run length.
	MeanGapLen float64
}

// DiscardVsThrottlePatterns reproduces Figures 7.9 and 7.10: under the same
// overload, the Discard policy loses long contiguous runs of records (few,
// long gaps) while the Throttle policy sheds records by random sampling
// (many, short gaps).
func DiscardVsThrottlePatterns(cfg Fig7Config) ([]PatternResult, error) {
	var out []PatternResult
	for _, policy := range []string{"Discard", "Throttle"} {
		var mu sync.Mutex
		persisted := map[int64]bool{}
		var maxSeq int64
		observer := func(rec *adm.Record) {
			seq, ok := tweetSeq(rec)
			if !ok {
				return
			}
			mu.Lock()
			persisted[seq] = true
			if seq > maxSeq {
				maxSeq = seq
			}
			mu.Unlock()
		}
		if _, err := runPolicy(cfg, policy, observer); err != nil {
			return nil, err
		}
		mu.Lock()
		res := summarizePattern(policy, persisted, maxSeq)
		mu.Unlock()
		out = append(out, res)
	}
	return out, nil
}

// tweetSeq extracts the per-partition sequence number from a TweetGen id
// ("s23-p0-0000000042" -> 42). Only partition 0 ids are considered so the
// pattern is over a single totally ordered stream.
func tweetSeq(rec *adm.Record) (int64, bool) {
	v, ok := rec.Field("id")
	if !ok {
		return 0, false
	}
	id, ok := adm.AsString(v)
	if !ok || !strings.Contains(id, "-p0-") {
		return 0, false
	}
	last := strings.LastIndex(id, "-")
	n, err := strconv.ParseInt(id[last+1:], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

func summarizePattern(policy string, persisted map[int64]bool, maxSeq int64) PatternResult {
	res := PatternResult{Policy: policy, Emitted: maxSeq + 1, Persisted: int64(len(persisted))}
	if maxSeq < 0 {
		return res
	}
	missing := make([]int64, 0)
	for s := int64(0); s <= maxSeq; s++ {
		if !persisted[s] {
			missing = append(missing, s)
		}
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
	var gaps []int64
	for i := 0; i < len(missing); {
		j := i
		for j+1 < len(missing) && missing[j+1] == missing[j]+1 {
			j++
		}
		gaps = append(gaps, missing[j]-missing[i]+1)
		i = j + 1
	}
	res.GapCount = len(gaps)
	var sum int64
	for _, g := range gaps {
		sum += g
		if g > res.MaxGapLen {
			res.MaxGapLen = g
		}
	}
	if len(gaps) > 0 {
		res.MeanGapLen = float64(sum) / float64(len(gaps))
	}
	return res
}
