package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/core"
	"asterixfeeds/internal/governor"
	"asterixfeeds/internal/hyracks"
	"asterixfeeds/internal/lsm"
	"asterixfeeds/internal/metadata"
	"asterixfeeds/internal/storage"
	"asterixfeeds/internal/tweetgen"
)

// OverloadScenario is one deterministic overload run: the same 3-node
// topology as Scenario, but instead of injected faults the pressure is a
// seeded flood — a low-priority discard feed emitting far more bytes than
// the node memory budget — racing a modest high-priority at-least-once
// feed. No faults fire; the system under test is the ingestion governor.
type OverloadScenario struct {
	// Seed drives the workload contents.
	Seed int64
	// Records is the high-priority feed's record count; the flood emits
	// floodFactor times as many. Default 120.
	Records int
	// BudgetBytes is each node governor's memory budget; by default it is
	// sized at roughly a quarter of the flood's total byte volume (with a
	// floor covering fixed memtable/frame overhead), so the flood exceeds
	// it several times over at any Records setting.
	BudgetBytes int64
	// Timeout bounds the drain wait; default 60s.
	Timeout time.Duration
}

// floodFactor scales the flood feed's record count off Records.
const floodFactor = 30

// OverloadResult is an overload run's verdict.
type OverloadResult struct {
	Seed        int64
	BudgetBytes int64
	// MaxTrackedBytes is the highest governor-tracked byte count any node
	// sampler observed during the run; MaxTrackedNode and MaxTrackedSources
	// record where those bytes sat (diagnostics for a bound violation).
	MaxTrackedBytes   int64
	MaxTrackedNode    string
	MaxTrackedSources map[string]int64
	// EmittedHi/StoredHi count the high-priority feed's distinct records at
	// the source and in its dataset at drain; they must match exactly.
	EmittedHi, StoredHi int
	// EmittedLo/StoredLo/ShedLo/DiscardedLo are the flood feed's ledger
	// terms: emitted == stored + shed + discarded.
	EmittedLo, StoredLo int
	ShedLo, DiscardedLo int64
	HiShed              int64
	// Failures lists every violated invariant; empty means the run passed.
	Failures []string
}

// Passed reports whether every invariant held.
func (r *OverloadResult) Passed() bool { return len(r.Failures) == 0 }

func (r *OverloadResult) failf(format string, a ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, a...))
}

// RunOverload executes the scenario and checks the governor invariants:
//
//  1. Bounded memory: governor-tracked bytes on every node stay within a
//     small constant factor of the budget for the whole run, even though
//     the flood offers several budgets' worth of data.
//  2. Priority isolation: the high-priority at-least-once feed loses
//     nothing — its stored id set equals its emitted id set, and its
//     GovernorShed counter stays zero.
//  3. Shed exactness: the flood feed's ledger balances — every emitted
//     record is stored, governor-shed, or policy-discarded; nothing is
//     silently lost even on the load-shedding path.
//
// The returned error covers harness setup problems only; invariant
// violations land in Result.Failures.
func RunOverload(sc OverloadScenario) (*OverloadResult, error) {
	if sc.Records <= 0 {
		sc.Records = 120
	}
	if sc.BudgetBytes <= 0 {
		// ~16 bytes per flood record (tweet frames measured end to end),
		// budgeted at a quarter of the flood volume, floored at 24 KiB so
		// memtables and in-flight frames alone can't cross the threshold.
		sc.BudgetBytes = int64(sc.Records) * floodFactor * 16 / 4
		if sc.BudgetBytes < 24<<10 {
			sc.BudgetBytes = 24 << 10
		}
	}
	if sc.Timeout <= 0 {
		sc.Timeout = 60 * time.Second
	}
	res := &OverloadResult{Seed: sc.Seed, BudgetBytes: sc.BudgetBytes}

	dir, err := os.MkdirTemp("", "feedchaos-overload-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	nodes := []string{"A", "B", "C"}
	cluster := hyracks.NewCluster(hyracks.Config{
		HeartbeatInterval: 5 * time.Millisecond,
		HeartbeatTimeout:  500 * time.Millisecond,
		QueueDepth:        8,
	}, nodes...)
	mgrs := make(map[string]*storage.Manager, len(nodes))
	lsmGauges := make(map[string]*lsm.Metrics, len(nodes))
	govs := make(map[string]*governor.Governor, len(nodes))
	for _, n := range nodes {
		lm := &lsm.Metrics{}
		sm := storage.NewManager(n, filepath.Join(dir, n), lsm.Options{
			MemtableBytes: 8 << 10,
			Metrics:       lm,
		})
		mgrs[n], lsmGauges[n] = sm, lm
		nc := cluster.Node(n)
		nc.SetService(storage.ServiceName, sm)
		// The governor the instance boot wires, over the same counters.
		govs[n] = core.NewNodeGovernor(nc, lm, governor.Config{BudgetBytes: sc.BudgetBytes})
	}

	catalog := metadata.NewCatalog()
	if err := catalog.CreateDataverse(chaosDataverse); err != nil {
		return nil, err
	}
	err = catalog.CreatePolicy(&metadata.PolicyDecl{Name: "OverloadHi", Params: map[string]string{
		metadata.ParamAtLeastOnce:  "true",
		metadata.ParamSpill:        "true",
		metadata.ParamMemoryBudget: "120",
		metadata.ParamPriority:     "high",
	}})
	if err != nil {
		return nil, err
	}
	// The flood's in-memory record budget is set far above its record count
	// so the subscription itself never discards on backlog: the governor is
	// the only byte-bounding mechanism in its path, which is exactly what
	// this scenario measures.
	err = catalog.CreatePolicy(&metadata.PolicyDecl{Name: "OverloadLo", Params: map[string]string{
		metadata.ParamDiscard:      "true",
		metadata.ParamMemoryBudget: "1000000",
		metadata.ParamPriority:     "low",
	}})
	if err != nil {
		return nil, err
	}
	rt := adm.MustRecordType("ChaosTweet", true, []adm.Field{
		{Name: "id", Type: adm.TString},
		{Name: "country", Type: adm.TString},
	})
	dsHi := &storage.Dataset{
		Dataverse: chaosDataverse, Name: "OverloadHi", Type: rt,
		PrimaryKey: []string{"id"}, NodeGroup: []string{"B"},
	}
	dsLo := &storage.Dataset{
		Dataverse: chaosDataverse, Name: "OverloadLo", Type: rt,
		PrimaryKey: []string{"id"}, NodeGroup: []string{"C"},
	}
	if err := catalog.CreateDataset(dsHi); err != nil {
		return nil, err
	}
	if err := catalog.CreateDataset(dsLo); err != nil {
		return nil, err
	}

	mgr := core.NewManager(cluster, catalog, core.Options{
		MetricsWindow:   50 * time.Millisecond,
		AckTimeout:      200 * time.Millisecond,
		FrameCapacity:   16,
		ElasticInterval: 20 * time.Millisecond,
	})
	defer func() {
		mgr.Close()
		cluster.Close()
		for _, sm := range mgrs {
			sm.Close() //nolint:errcheck // teardown
		}
	}()
	// A latency-bound UDF on the flood path caps its compute stage at ~500
	// records/s — two orders of magnitude below the adaptor's burst rate —
	// so backlog genuinely accumulates at the joint even on a contended CI
	// box, and the governor, not the consumer, decides what survives.
	mgr.Functions().Register(core.DelayFunction("lib#overload_slow", 2*time.Millisecond))

	type feedState struct {
		mu      sync.Mutex
		emitted map[string]bool
		done    chan struct{}
		once    sync.Once
	}
	newGen := func(st *feedState, partitionSeed int64, count int, burst int, pause time.Duration) core.GeneratorFunc {
		return func(partition int, sink core.RecordSink, stop <-chan struct{}) error {
			defer st.once.Do(func() { close(st.done) })
			g := tweetgen.NewGenerator(partitionSeed, partition)
			recs := make([]*adm.Record, count)
			for i := range recs {
				recs[i] = g.Next()
			}
			for i := 0; i < len(recs); i++ {
				select {
				case <-stop:
					return nil
				default:
				}
				if err := sink.Emit(recs[i]); err != nil {
					select {
					case <-stop:
						return nil
					case <-time.After(time.Millisecond):
					}
					i--
					continue
				}
				if id, ok := recs[i].Field("id"); ok {
					st.mu.Lock()
					st.emitted[string(id.(adm.String))] = true
					st.mu.Unlock()
				}
				if burst > 0 && (i+1)%burst == 0 {
					select {
					case <-stop:
						return nil
					case <-time.After(pause):
					}
				}
			}
			return nil
		}
	}
	hiState := &feedState{emitted: make(map[string]bool), done: make(chan struct{})}
	loState := &feedState{emitted: make(map[string]bool), done: make(chan struct{})}
	// Distinct generator seeds keep the two feeds' id spaces disjoint, so a
	// cross-delivered record would show up as a phantom.
	mgr.Adaptors().Register("overload_hi", func(map[string]string) (core.ConfiguredAdaptor, error) {
		return &core.InProcessAdaptor{
			Gen:         newGen(hiState, sc.Seed, sc.Records, 5, time.Millisecond),
			Parallelism: 1, Push: true,
		}, nil
	})
	mgr.Adaptors().Register("overload_lo", func(map[string]string) (core.ConfiguredAdaptor, error) {
		return &core.InProcessAdaptor{
			Gen:         newGen(loState, sc.Seed+1_000_000, sc.Records*floodFactor, 40, time.Millisecond),
			Parallelism: 1, Push: true,
		}, nil
	})
	err = catalog.CreateFeed(&metadata.FeedDecl{
		Dataverse: chaosDataverse, Name: "FHi", Primary: true, AdaptorName: "overload_hi",
	})
	if err != nil {
		return nil, err
	}
	err = catalog.CreateFeed(&metadata.FeedDecl{
		Dataverse: chaosDataverse, Name: "FLo", Primary: true, AdaptorName: "overload_lo",
		Function: "lib#overload_slow",
	})
	if err != nil {
		return nil, err
	}

	// Sample every governor's tracked bytes while the flood runs; the
	// max across nodes and time is the bounded-memory verdict.
	samplerStop := make(chan struct{})
	var samplerWG sync.WaitGroup
	var maxMu sync.Mutex
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
				for n, g := range govs {
					if t := g.TrackedBytes(); t > 0 {
						maxMu.Lock()
						if t > res.MaxTrackedBytes {
							res.MaxTrackedBytes = t
							res.MaxTrackedNode = n
							res.MaxTrackedSources = g.SourceBytes()
						}
						maxMu.Unlock()
					}
				}
			}
		}
	}()

	connHi, err := mgr.ConnectFeed(chaosDataverse, "FHi", "OverloadHi", "OverloadHi")
	if err != nil {
		return nil, err
	}
	connLo, err := mgr.ConnectFeed(chaosDataverse, "FLo", "OverloadLo", "OverloadLo")
	if err != nil {
		return nil, err
	}

	deadline := time.Now().Add(sc.Timeout)
	for _, st := range []*feedState{hiState, loState} {
		select {
		case <-st.done:
		case <-time.After(time.Until(deadline)):
			res.failf("drain: generator still running after %v", sc.Timeout)
		}
	}
	count := func(st *feedState) int {
		st.mu.Lock()
		defer st.mu.Unlock()
		return len(st.emitted)
	}
	// Drain: the hi feed must fully persist and ack; the lo feed must fully
	// account — every received record either reached its dataset, was shed
	// by the governor, or was discarded by its policy.
	reg := mgr.Registry()
	loPrefix := "feed." + connLo.ID()
	for {
		if connHi.State() == core.ConnFailed {
			res.failf("high-priority connection failed: %v", connHi.Err())
			break
		}
		if connLo.State() == core.ConnFailed {
			res.failf("flood connection failed: %v", connLo.Err())
			break
		}
		hiDone := connHi.Metrics.Persisted.Total() >= int64(count(hiState)) && connHi.PendingAcks() == 0
		backlog, _ := reg.Value(loPrefix + ".backlog")
		shed, _ := reg.Value(loPrefix + ".governor.shed")
		discarded, _ := reg.Value(loPrefix + ".discarded")
		loStored := len(storedIDs(cluster, dsLo))
		loDone := backlog == 0 && int64(loStored)+shed+discarded >= int64(count(loState))
		if hiDone && loDone {
			if len(storedIDs(cluster, dsHi)) == count(hiState) {
				break
			}
		}
		if time.Now().After(deadline) {
			res.failf("drain: hi stored %d/%d (pending %d), lo stored %d + shed %d + discarded %d of %d after %v",
				len(storedIDs(cluster, dsHi)), count(hiState), connHi.PendingAcks(),
				loStored, shed, discarded, count(loState), sc.Timeout)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(samplerStop)
	samplerWG.Wait()
	if res.Passed() {
		if why := accountingSettled(cluster, mgrs, lsmGauges); why != "" {
			res.failf("pushed accounting after drain: %s", why)
		}
	}

	hiAct := activityOf(mgr, connHi.ID())
	loAct := activityOf(mgr, connLo.ID())
	res.HiShed = hiAct.GovernorShed
	res.ShedLo = loAct.GovernorShed
	res.DiscardedLo = loAct.Discarded

	// Invariant 1: bounded memory. The budget bounds the governed term (the
	// joint backlog the flood would otherwise grow without limit); the 2x
	// factor covers admission-burst tokens, and the fixed allowance covers
	// layers that are structurally bounded regardless of the governor —
	// execution queues are capped at QueueDepth frames each and memtables at
	// MaxImmutables rotations — but together exceed the deliberately tiny
	// test budget. None of these terms scales with flood volume, so an
	// ungoverned backlog still blows through the bound.
	const fixedOverheadAllowance = 64 << 10
	bound := 2*sc.BudgetBytes + fixedOverheadAllowance
	if res.MaxTrackedBytes > bound {
		res.failf("bounded memory: tracked bytes peaked at %d on node %s (%v), over 2x the %d budget",
			res.MaxTrackedBytes, res.MaxTrackedNode, res.MaxTrackedSources, sc.BudgetBytes)
	}
	if res.MaxTrackedBytes == 0 {
		res.failf("bounded memory: sampler never saw tracked bytes > 0 (governor sources unwired?)")
	}

	// Invariant 2: priority isolation — at-least-once for the hi feed.
	storedHi := storedIDs(cluster, dsHi)
	res.EmittedHi, res.StoredHi = count(hiState), len(storedHi)
	hiState.mu.Lock()
	for id := range hiState.emitted {
		if !storedHi[id] {
			res.failf("priority isolation: high-priority record %s lost under flood", id)
			break
		}
	}
	hiState.mu.Unlock()
	if res.HiShed != 0 {
		res.failf("priority isolation: governor shed %d high-priority records", res.HiShed)
	}

	// Invariant 3: shed exactness for the flood feed. No faults are
	// injected and the pipeline has drained, so distinct stored ids equal
	// delivered records and the ledger must balance exactly.
	storedLo := storedIDs(cluster, dsLo)
	res.EmittedLo, res.StoredLo = count(loState), len(storedLo)
	if got := int64(res.StoredLo) + res.ShedLo + res.DiscardedLo + loAct.ThrottledOut; got != int64(res.EmittedLo) {
		res.failf("shed exactness: stored %d + shed %d + discarded %d + throttled %d = %d, want %d emitted",
			res.StoredLo, res.ShedLo, res.DiscardedLo, loAct.ThrottledOut, got, res.EmittedLo)
	}
	if res.ShedLo == 0 {
		res.failf("shed exactness: flood of ~%dx budget shed nothing (governor not engaging)",
			res.EmittedLo*100/int(sc.BudgetBytes)+1)
	}
	for id := range storedLo {
		if loState.emitted[id] {
			continue
		}
		res.failf("shed exactness: phantom record %s in flood dataset", id)
		break
	}
	return res, nil
}

// accountingSettled checks, once the feeds have drained, that every node's
// pushed counters say what a walk over the owners says: no feed backlog or
// spill bytes, no frame in flight, and the three lsm gauges equal to the
// storage manager's own sums (memtables legitimately still hold data). The
// two sides are read a moment apart while flushes still run, so a mismatch
// is given a second to settle; a counter that drifted never does. It
// returns the last mismatch, or "".
func accountingSettled(cluster *hyracks.Cluster, mgrs map[string]*storage.Manager, gauges map[string]*lsm.Metrics) string {
	var why string
	for deadline := time.Now().Add(time.Second); ; time.Sleep(5 * time.Millisecond) {
		why = ""
		for n, sm := range mgrs {
			nc, lm, st := cluster.Node(n), gauges[n], sm.Stats()
			fm := nc.Service(core.FeedManagerService).(*core.FeedManager)
			got := [5]int64{fm.TrackedBytes(), nc.InFlightFrameBytes(),
				lm.MemtableBytes.Value(), lm.Immutables.Value(), lm.CompactionDebt.Value()}
			want := [5]int64{0, 0, int64(st.MemtableBytes), int64(st.Immutables), int64(st.CompactionDebt)}
			if got != want {
				why = fmt.Sprintf("node %s: feeds, frames, memtable bytes, immutables, debt = %v, want %v", n, got, want)
			}
		}
		if why == "" || time.Now().After(deadline) {
			return why
		}
	}
}

// activityOf returns the named connection's activity snapshot.
func activityOf(mgr *core.Manager, id string) core.FeedActivity {
	for _, a := range mgr.FeedActivity() {
		if a.Connection == id {
			return a
		}
	}
	return core.FeedActivity{}
}
