package chaos

import (
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/core"
	"asterixfeeds/internal/hyracks"
	"asterixfeeds/internal/lsm"
	"asterixfeeds/internal/metadata"
	"asterixfeeds/internal/storage"
	"asterixfeeds/internal/tweetgen"
)

// Scenario is one deterministic chaos run: a TweetGen workload on a fixed
// 3-node topology (A intake; B, C store with synchronous replication and a
// country_idx secondary index) under a fault schedule.
type Scenario struct {
	// Seed drives both the workload (record contents) and, when Schedule
	// is nil, the generated fault schedule.
	Seed int64
	// Records is the number of distinct records the adaptor emits;
	// default 300.
	Records int
	// Schedule overrides the seed-generated fault schedule (replay mode).
	Schedule Schedule
	// Restart adds a restart-under-fault phase after shutdown: every live
	// partition is reopened with fresh faults injected into recovery itself
	// (manifest snapshot writes, WAL replay), and a *second* clean restart
	// must then recover exactly — a crashed recovery may lose no ground.
	Restart bool
	// RestartSchedule overrides the seed-generated restart-phase schedule
	// (replay mode). Only consulted when Restart is set.
	RestartSchedule Schedule
	// Timeout bounds the drain wait; default 60s.
	Timeout time.Duration
}

// Result is a chaos run's verdict.
type Result struct {
	Seed     int64
	Schedule string
	// Fired and Unfired report which armed faults triggered.
	Fired, Unfired []string
	// RestartSchedule and RestartFired report the restart-phase faults of a
	// Scenario.Restart run; CrashedOpens counts partitions whose faulted
	// reopen aborted (and so leaned on the second restart for recovery).
	RestartSchedule string
	RestartFired    []string
	CrashedOpens    int
	// Degradations echoes the connection's recorded replica-resync
	// degradations (informational: the run kept serving, unreplicated).
	Degradations []string
	// Emitted and Stored count distinct record ids at the source and in
	// the primary partitions at drain.
	Emitted, Stored int
	// Replayed, StoreErrors, and SoftFailures echo the connection's
	// counters at drain — how hard the run had to work.
	Replayed, StoreErrors, SoftFailures int64
	// Failures lists every violated invariant; empty means the run passed.
	Failures []string
}

// Passed reports whether every invariant held.
func (r *Result) Passed() bool { return len(r.Failures) == 0 }

func (r *Result) failf(format string, a ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, a...))
}

const (
	chaosDataverse = "feeds"
	chaosFeed      = "F"
	chaosDataset   = "Chaos"
	chaosPolicy    = "ChaosALO"
)

// Run executes the scenario and checks the ingestion invariants:
//
//  1. At-least-once delivery: the stored id set equals the emitted id set —
//     nothing lost to the injected faults, nothing fabricated by replays.
//  2. Primary/secondary consistency: VerifyIndexes on every open partition.
//  3. Replica convergence: wherever a live, distinct replica exists at
//     drain, its id set equals its primary's.
//  4. WAL replay idempotence: every tree directory left on disk (including
//     dead nodes' and torn WALs') yields the same contents when opened
//     twice in a row.
//  5. Recovery exactness: every partition that was live at drain, reopened
//     after shutdown, holds exactly the id set it held while live. Close
//     never flushes queued immutable memtables, so this proves WAL replay
//     recovers precisely the unflushed records — no loss, no phantoms.
//
// With Scenario.Restart, a faulted reopen runs between shutdown and
// invariant 5: recovery itself is crashed (manifest snapshot writes, WAL
// replay) and invariant 5 becomes the second-restart check — a crashed
// recovery must leave the directories exactly recoverable.
//
// The returned error covers harness setup problems only; invariant
// violations land in Result.Failures.
func Run(sc Scenario) (*Result, error) {
	if sc.Records <= 0 {
		sc.Records = 300
	}
	if sc.Timeout <= 0 {
		sc.Timeout = 60 * time.Second
	}
	schedule := sc.Schedule
	if schedule == nil {
		schedule = GenSchedule(sc.Seed)
	}
	res := &Result{Seed: sc.Seed, Schedule: schedule.String()}

	dir, err := os.MkdirTemp("", "feedchaos-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var cluster *hyracks.Cluster
	inj := NewInjector(schedule, func(node string) {
		if cluster != nil {
			cluster.KillNode(node) //nolint:errcheck // double-kill is fine
		}
	})

	nodes := []string{"A", "B", "C"}
	cluster = hyracks.NewCluster(hyracks.Config{
		HeartbeatInterval: 5 * time.Millisecond,
		// Death detection is heartbeat-silence-based, so the timeout must
		// tolerate scheduler starvation on a loaded CI box: a live node's
		// delayed heartbeat must never register as a death, or the verdict
		// stops being a function of the seed. 500ms only delays detection
		// of genuinely killed nodes, it never idles a passing run.
		HeartbeatTimeout: 500 * time.Millisecond,
		QueueDepth:       8,
		FrameCapacity:    32,
		FrameFault:       inj.FrameHook(),
	}, nodes...)
	mgrs := make(map[string]*storage.Manager, len(nodes))
	for _, n := range nodes {
		sm := storage.NewManager(n, filepath.Join(dir, n), lsm.Options{
			SyncWAL: 1,
			// A tiny memtable and a low merge trigger keep the background
			// flush/compaction pipeline busy for the whole run, so the
			// flush:bg and merge:bg fault points actually get hit and
			// recovery always has a mix of runs, queued immutables, and
			// live WAL segments to rebuild from.
			MemtableBytes: 4 << 10,
			MaxRuns:       2,
			FaultHook:     inj.LSMHook(n),
		})
		mgrs[n] = sm
		cluster.Node(n).SetService(storage.ServiceName, sm)
	}

	catalog := metadata.NewCatalog()
	if err := catalog.CreateDataverse(chaosDataverse); err != nil {
		return nil, err
	}
	// At-least-once with soft+hard recovery is the only policy under which
	// the delivery invariant is checkable. Spill is on with a budget below
	// the workload size so the disk overflow path (and its injected write
	// failures — "core:spill:push") is exercised: unlike discard or
	// throttle, spilling parks excess records instead of dropping them, so
	// the invariant stays checkable.
	err = catalog.CreatePolicy(&metadata.PolicyDecl{Name: chaosPolicy, Params: map[string]string{
		metadata.ParamAtLeastOnce:  "true",
		metadata.ParamRecoverSoft:  "true",
		metadata.ParamRecoverHard:  "true",
		metadata.ParamSpill:        "true",
		metadata.ParamMemoryBudget: "120",
	}})
	if err != nil {
		return nil, err
	}
	rt := adm.MustRecordType("ChaosTweet", true, []adm.Field{
		{Name: "id", Type: adm.TString},
		{Name: "country", Type: adm.TString},
	})
	ds := &storage.Dataset{
		Dataverse:  chaosDataverse,
		Name:       chaosDataset,
		Type:       rt,
		PrimaryKey: []string{"id"},
		NodeGroup:  []string{"B", "C"},
		Replicated: true,
		Indexes:    []storage.IndexDecl{{Name: "country_idx", Field: "country", Kind: storage.BTree}},
	}
	if err := catalog.CreateDataset(ds); err != nil {
		return nil, err
	}
	// Snapshot the nodegroup before any replica promotion rewrites it: the
	// recovery-exactness check reopens each partition from the same directory
	// (primary p*, replica r*) that backed it while live, and that assignment
	// is fixed at creation — a promoted replica keeps serving from its r* dir.
	origGroup := append([]string(nil), ds.NodeGroup...)

	mgr := core.NewManager(cluster, catalog, core.Options{
		MetricsWindow:   50 * time.Millisecond,
		AckTimeout:      200 * time.Millisecond,
		FrameCapacity:   16,
		ElasticInterval: 20 * time.Millisecond,
		FaultHook:       inj.CoreHook(),
	})
	defer func() {
		mgr.Close()
		cluster.Close()
		for _, sm := range mgrs {
			sm.Close() //nolint:errcheck // teardown
		}
	}()

	// The workload: sc.Records pre-generated tweets per intake partition.
	// An armed adaptor crash rewinds the cursor a few records (the restarted
	// adaptor re-reads its source from the last checkpoint) — the idempotent
	// upsert must absorb the duplicates.
	var emitMu sync.Mutex
	emitted := make(map[string]bool, sc.Records)
	genDone := make(chan struct{})
	var genOnce sync.Once
	gen := func(partition int, sink core.RecordSink, stop <-chan struct{}) error {
		defer genOnce.Do(func() { close(genDone) })
		recs := make([]*adm.Record, sc.Records)
		g := tweetgen.NewGenerator(sc.Seed, partition)
		for i := range recs {
			recs[i] = g.Next()
		}
		for i := 0; i < len(recs); i++ {
			select {
			case <-stop:
				return nil
			default:
			}
			if inj.AdaptorCrash(partition) {
				if i -= 3; i < 0 {
					i = 0
				}
				time.Sleep(2 * time.Millisecond)
			}
			if err := sink.Emit(recs[i]); err != nil {
				// The sink rejects emits only transiently (intake
				// hand-off); back off and retry the same record unless
				// the feed is stopping.
				select {
				case <-stop:
					return nil
				case <-time.After(time.Millisecond):
				}
				i--
				continue
			}
			if id, ok := recs[i].Field("id"); ok {
				emitMu.Lock()
				emitted[string(id.(adm.String))] = true
				emitMu.Unlock()
			}
		}
		return nil
	}
	mgr.Adaptors().Register("chaos_gen", func(map[string]string) (core.ConfiguredAdaptor, error) {
		return &core.InProcessAdaptor{Gen: gen, Parallelism: 1, Push: true}, nil
	})
	err = catalog.CreateFeed(&metadata.FeedDecl{
		Dataverse: chaosDataverse, Name: chaosFeed, Primary: true, AdaptorName: "chaos_gen",
	})
	if err != nil {
		return nil, err
	}

	conn, err := mgr.ConnectFeed(chaosDataverse, chaosFeed, chaosDataset, chaosPolicy)
	if err != nil {
		return nil, err
	}

	// Drain: the generator finishes, then the stored distinct-id count
	// reaches the emitted count (replays make it at-least-once; the upsert
	// makes the distinct count converge rather than overshoot).
	deadline := time.Now().Add(sc.Timeout)
	select {
	case <-genDone:
	case <-time.After(time.Until(deadline)):
		res.failf("drain: generator still running after %v", sc.Timeout)
	}
	want := func() int {
		emitMu.Lock()
		defer emitMu.Unlock()
		return len(emitted)
	}
	// The poll is two-tier (feedwatch): the manager's metric registry gives
	// the persisted total and pending-ack gauge for pennies, so the
	// expensive distinct-id partition scan only runs once those say the
	// pipeline has plausibly drained. Persisted counts replays too, so it
	// can overshoot the distinct target — the scan stays the authority.
	reg := mgr.Registry()
	prefix := "feed." + conn.ID()
	// Once the workload has drained the injector is silenced before anything
	// else. Two reasons. First, verification is itself made of reads (index
	// scans, id-set scans, digests), so a still-armed read:block fault would
	// corrupt the measurement rather than the system under test. Second, a
	// killer fault reached by the still-running background pipeline *after*
	// drain — a torn flush:bg or merge:bg, say — would kill a node with no
	// feed left to drive replica promotion, failing invariants for a state no
	// recovery path was ever given a chance to repair. Such a fault can also
	// land between the scan that saw the drain and the Disarm itself, so the
	// drain only counts when it is seen again *after* Disarm (which waits for
	// a kill in progress): if a node died in that window the scan comes up
	// short and the loop carries on, disarmed, with the feed still connected
	// to repair it.
	disarmed := false
	for {
		if conn.State() == core.ConnFailed {
			res.failf("connection failed: %v", conn.Err())
			break
		}
		persisted, _ := reg.Value(prefix + ".persisted")
		pending, _ := reg.Value(prefix + ".pending_acks")
		if persisted >= int64(want()) && pending == 0 {
			if stored := storedIDs(cluster, ds); len(stored) == want() {
				if disarmed {
					break
				}
				inj.Disarm()
				disarmed = true
				continue
			}
		}
		if time.Now().After(deadline) {
			stored := storedIDs(cluster, ds)
			res.failf("drain: stored %d of %d emitted records (pending acks %d) after %v",
				len(stored), want(), conn.PendingAcks(), sc.Timeout)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	inj.Disarm() // the failure exits above leave it armed
	res.Degradations = conn.ResyncDegradations()
	res.Replayed = conn.Metrics.Replayed.Value()
	res.StoreErrors = conn.Metrics.StoreErrors.Value()
	res.SoftFailures = conn.Metrics.SoftFailures.Value()
	if err := mgr.DisconnectFeed(chaosDataverse, chaosFeed, chaosDataset); err != nil && conn.State() != core.ConnFailed {
		res.failf("disconnect: %v", err)
	}

	// Invariant 1: at-least-once, no phantoms.
	stored := storedIDs(cluster, ds)
	res.Stored = len(stored)
	emitMu.Lock()
	res.Emitted = len(emitted)
	var lost, phantom []string
	for id := range emitted {
		if !stored[id] {
			lost = append(lost, id)
		}
	}
	for id := range stored {
		if !emitted[id] {
			phantom = append(phantom, id)
		}
	}
	emitMu.Unlock()
	sort.Strings(lost)
	sort.Strings(phantom)
	if len(lost) > 0 {
		res.failf("at-least-once: %d records lost (first: %s)", len(lost), lost[0])
	}
	if len(phantom) > 0 {
		res.failf("at-least-once: %d phantom records (first: %s)", len(phantom), phantom[0])
	}

	// Invariant 2: primary/secondary index consistency on every open
	// partition, replicas included.
	forEachOpenPartition(cluster, ds, func(node string, p *storage.Partition) {
		if err := p.VerifyIndexes(); err != nil {
			res.failf("index consistency: node %s partition %d: %v", node, p.Index(), err)
		}
	})

	// Invariant 3: replica convergence. After promotion the replica
	// position may coincide with the primary (recorded as a degradation);
	// only live, distinct replicas must have fully converged at drain.
	for i := range ds.NodeGroup {
		rNode := ds.ReplicaOf(i)
		if rNode == "" || rNode == ds.NodeGroup[i] {
			continue
		}
		rn := cluster.Node(rNode)
		if rn == nil || !rn.Alive() {
			continue
		}
		sm, _ := rn.Service(storage.ServiceName).(*storage.Manager)
		if sm == nil {
			continue
		}
		rp := sm.PartitionIdx(ds.QualifiedName(), i)
		if rp == nil {
			continue
		}
		prim := partitionIDs(cluster, ds, i)
		repl, err := idsOf(rp)
		if err != nil {
			res.failf("replica convergence: partition %d on %s: %v", i, rNode, err)
			continue
		}
		if diff := setDiff(prim, repl); diff != "" {
			res.failf("replica convergence: partition %d: %s", i, diff)
		}
	}

	// Capture every live partition's exact id set before teardown. With the
	// background flush pipeline, part of this state may still sit in queued
	// immutable memtables that Close deliberately never flushes — after
	// shutdown it exists only in WAL segments. (Dead nodes' partitions are
	// not captured: their expected post-crash contents are unknowable here;
	// invariant 4 still covers their directories.)
	type liveState struct {
		idx     int
		replica bool
		ids     map[string]bool
	}
	preClose := make(map[string][]liveState)
	forEachOpenPartition(cluster, ds, func(node string, p *storage.Partition) {
		ids, err := idsOf(p)
		if err != nil {
			res.failf("recovery exactness: node %s partition %d: pre-close scan: %v", node, p.Index(), err)
			return
		}
		preClose[node] = append(preClose[node], liveState{
			idx:     p.Index(),
			replica: node != origGroup[p.Index()],
			ids:     ids,
		})
	})

	// Invariant 4: WAL replay idempotence. Close everything, then open each
	// tree directory left on disk twice: replay must be a pure function of
	// the log — torn tails dropped the same way both times.
	mgr.Close()
	cluster.Close()
	for _, sm := range mgrs {
		sm.Close() //nolint:errcheck // replay reads the dirs directly
	}

	reNodes := make([]string, 0, len(preClose))
	for n := range preClose {
		reNodes = append(reNodes, n)
	}
	sort.Strings(reNodes)

	// Restart phase (Scenario.Restart): reopen every captured partition with
	// faults injected into recovery itself — the open-time manifest snapshot
	// and WAL replay. An aborted open models a crash *during* recovery and is
	// not itself a failure; a reopen that succeeds despite the schedule must
	// already be exact. Either way, the clean reopen below (invariant 5)
	// becomes the real verdict: the second restart after a crashed recovery
	// must still recover exactly.
	if sc.Restart {
		rsched := sc.RestartSchedule
		if rsched == nil {
			rsched = GenRestartSchedule(sc.Seed)
		}
		res.RestartSchedule = rsched.String()
		rinj := NewInjector(rsched, nil) // no cluster left to kill
		for _, node := range reNodes {
			rm := storage.NewManager(node, filepath.Join(dir, node), lsm.Options{
				FaultHook: rinj.LSMHook(node),
			})
			for _, st := range preClose[node] {
				p, err := rm.OpenPartitionIdx(ds, st.idx, st.replica)
				if err != nil {
					res.CrashedOpens++
					continue
				}
				got, err := idsOf(p)
				if err != nil {
					res.failf("restart under fault: node %s partition %d: scan: %v", node, st.idx, err)
					continue
				}
				if diff := setDiff(st.ids, got); diff != "" {
					res.failf("restart under fault: node %s partition %d: recovered set %s", node, st.idx, diff)
				}
			}
			rm.Close() //nolint:errcheck // fault-phase teardown
		}
		res.RestartFired = rinj.Fired()
	}

	// Invariant 5: recovery exactness. Reopen every partition captured above
	// and compare id sets: replay must recover exactly the records that were
	// visible while live — records from unflushed memtables come back from
	// their WAL segments (no loss), and no half-published run or stale
	// segment resurrects anything else (no phantoms). In a Restart run this
	// doubles as the second-restart check: the debris a crashed recovery left
	// behind (torn manifest temps, unrenamed snapshots) must not cost a
	// record or resurrect one.
	label := "recovery exactness"
	if sc.Restart {
		label = "second restart after crashed recovery"
	}
	for _, node := range reNodes {
		rm := storage.NewManager(node, filepath.Join(dir, node), lsm.Options{})
		for _, st := range preClose[node] {
			p, err := rm.OpenPartitionIdx(ds, st.idx, st.replica)
			if err != nil {
				res.failf("%s: node %s partition %d: reopen: %v", label, node, st.idx, err)
				continue
			}
			got, err := idsOf(p)
			if err != nil {
				res.failf("%s: node %s partition %d: post-recovery scan: %v", label, node, st.idx, err)
				continue
			}
			if diff := setDiff(st.ids, got); diff != "" {
				res.failf("%s: node %s partition %d: recovered set %s", label, node, st.idx, diff)
			}
		}
		rm.Close() //nolint:errcheck // read-only recovery check
	}

	if err := checkReplayIdempotent(dir, res); err != nil {
		return nil, err
	}

	res.Fired = inj.Fired()
	res.Unfired = inj.Unfired()
	return res, nil
}

// storedIDs collects the distinct primary-record ids across the dataset's
// current primary partitions.
func storedIDs(cluster *hyracks.Cluster, ds *storage.Dataset) map[string]bool {
	out := make(map[string]bool)
	for i := range ds.NodeGroup {
		for id := range partitionIDs(cluster, ds, i) {
			out[id] = true
		}
	}
	return out
}

// partitionIDs reads partition i's id set from its current primary node;
// nil if the partition is not open there.
func partitionIDs(cluster *hyracks.Cluster, ds *storage.Dataset, i int) map[string]bool {
	n := cluster.Node(ds.NodeGroup[i])
	if n == nil || !n.Alive() {
		return nil
	}
	sm, _ := n.Service(storage.ServiceName).(*storage.Manager)
	if sm == nil {
		return nil
	}
	p := sm.PartitionIdx(ds.QualifiedName(), i)
	if p == nil {
		return nil
	}
	ids, _ := idsOf(p)
	return ids
}

func idsOf(p *storage.Partition) (map[string]bool, error) {
	out := make(map[string]bool)
	err := p.Scan(func(rec *adm.Record) bool {
		if v, ok := rec.Field("id"); ok {
			if s, ok := v.(adm.String); ok {
				out[string(s)] = true
			}
		}
		return true
	})
	return out, err
}

func setDiff(prim, repl map[string]bool) string {
	var missing, extra int
	for id := range prim {
		if !repl[id] {
			missing++
		}
	}
	for id := range repl {
		if !prim[id] {
			extra++
		}
	}
	if missing == 0 && extra == 0 {
		return ""
	}
	return fmt.Sprintf("missing %d and has %d extra of %d expected records", missing, extra, len(prim))
}

// forEachOpenPartition visits every open partition (primary and replica) of
// ds on every live node.
func forEachOpenPartition(cluster *hyracks.Cluster, ds *storage.Dataset, fn func(node string, p *storage.Partition)) {
	seen := make(map[*storage.Partition]bool)
	for _, node := range cluster.AliveNodes() {
		n := cluster.Node(node)
		if n == nil {
			continue
		}
		sm, _ := n.Service(storage.ServiceName).(*storage.Manager)
		if sm == nil {
			continue
		}
		for i := range ds.NodeGroup {
			if p := sm.PartitionIdx(ds.QualifiedName(), i); p != nil && !seen[p] {
				seen[p] = true
				fn(node, p)
			}
		}
	}
}

// checkReplayIdempotent opens every tree directory under root twice and
// compares content digests.
func checkReplayIdempotent(root string, res *Result) error {
	var treeDirs []string
	seen := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		// A tree directory is any directory holding WAL segments
		// (wal-NNNNNN.log); one tree usually has several, so dedup.
		if !d.IsDir() && strings.HasPrefix(d.Name(), "wal-") && strings.HasSuffix(d.Name(), ".log") {
			td := filepath.Dir(path)
			if !seen[td] {
				seen[td] = true
				treeDirs = append(treeDirs, td)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	sort.Strings(treeDirs)
	for _, td := range treeDirs {
		first, err := treeDigest(td)
		if err != nil {
			res.failf("wal replay: %s: first open: %v", relPath(root, td), err)
			continue
		}
		second, err := treeDigest(td)
		if err != nil {
			res.failf("wal replay: %s: second open: %v", relPath(root, td), err)
			continue
		}
		if first != second {
			res.failf("wal replay not idempotent: %s: %s then %s", relPath(root, td), first, second)
		}
	}
	return nil
}

func relPath(root, path string) string {
	if r, err := filepath.Rel(root, path); err == nil {
		return r
	}
	return path
}

// treeDigest opens the tree at dir, digests its full contents, and closes
// it again.
func treeDigest(dir string) (string, error) {
	t, err := lsm.Open(lsm.Options{Dir: dir})
	if err != nil {
		return "", err
	}
	defer t.Close() //nolint:errcheck // read-only digest
	h := fnv.New64a()
	n := 0
	err = t.Scan(nil, nil, func(key, value []byte) bool {
		n++
		h.Write(key)   //nolint:errcheck // hash.Hash never errors
		h.Write(value) //nolint:errcheck // hash.Hash never errors
		return true
	})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d:%016x", n, h.Sum64()), nil
}
