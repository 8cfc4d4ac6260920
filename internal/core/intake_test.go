package core

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asterixfeeds/internal/hyracks"
	"asterixfeeds/internal/storage"
)

// goroutineStacks returns the stack of every live goroutine, one entry each.
func goroutineStacks() [][]byte {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Split(buf[:n], []byte("\n\n"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// intakeGoroutines counts the goroutines whose stack runs, or was started
// by, an intake instance's Run.
func intakeGoroutines() int {
	count := 0
	for _, g := range goroutineStacks() {
		if bytes.Contains(g, []byte("(*intakeRuntime).Run")) {
			count++
		}
	}
	return count
}

// TestIntakeIsOneGoroutine: an at-least-once intake takes frames, replays
// and the end of its stream from its subscription on the task goroutine
// alone — no pump, no disconnect watcher.
func TestIntakeIsOneGoroutine(t *testing.T) {
	h := newHarness(t, "A", "B")
	ds := h.declareTweetDataset("Tweets")
	h.declarePrimaryFeed("F", makeGen(0, time.Millisecond), 2, "")
	conn, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "AtLeastOnce")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "records from both intakes", func() bool {
		return h.datasetCount(ds) >= 20 && conn.Metrics.Collected.Total() >= 20
	})
	intake, _, _ := conn.Locations()
	if len(intake) != 2 {
		t.Fatalf("intake instances = %d, want 2", len(intake))
	}
	// Polled, so that an earlier test's intakes still unwinding do not count.
	got := intakeGoroutines()
	for deadline := time.Now().Add(5 * time.Second); got != len(intake) && time.Now().Before(deadline); got = intakeGoroutines() {
		time.Sleep(10 * time.Millisecond)
	}
	if got != len(intake) {
		t.Fatalf("%d goroutines run intake code for %d intake instances, want one each", got, len(intake))
	}
}

// TestCloseLeavesNoGoroutine: closing an at-least-once feed's manager,
// cluster and storage returns within seconds, and the goroutine count falls
// back to what it was before the feed. A loop that misses its stop signal —
// the ack sweeper's, the collect stage's flush tick — fails here by name
// instead of holding Manager.Close until the package's -timeout.
func TestCloseLeavesNoGoroutine(t *testing.T) {
	before := len(goroutineStacks())
	h := newHarness(t, "A", "B")
	ds := h.declareTweetDataset("Tweets")
	h.declarePrimaryFeed("F", makeGen(0, time.Millisecond), 2, "")
	if _, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "AtLeastOnce"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "stored records", func() bool { return h.datasetCount(ds) >= 20 })

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		h.mgr.Close()
		h.cluster.Close()
		for _, n := range []string{"A", "B"} {
			h.cluster.Node(n).Service(storage.ServiceName).(*storage.Manager).Close()
		}
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("closing the manager, cluster and storage of an at-least-once feed did not return within 5s")
	}
	stacks := goroutineStacks()
	for deadline := time.Now().Add(5 * time.Second); len(stacks) > before && time.Now().Before(deadline); stacks = goroutineStacks() {
		time.Sleep(10 * time.Millisecond)
	}
	if len(stacks) > before {
		var ours []string
		for _, g := range stacks[1:] { // [0] is this goroutine
			if bytes.Contains(g, []byte("asterixfeeds/internal/")) {
				ours = append(ours, string(g))
			}
		}
		t.Fatalf("%d goroutines 5s after close, %d before the feed; still running:\n%s",
			len(stacks), before, strings.Join(ours, "\n\n"))
	}
}

// TestSubscriptionReplays: replays enter through the subscription beside
// its queue and leave Next before queued frames; they stay out of the
// ledger and the governor's bytes; a drained subscription keeps handing
// them out while records are pending and closes on the ack that empties
// the tracker; discardAndClose drops them; at most maxReplayFrames wait.
func TestSubscriptionReplays(t *testing.T) {
	var tracked atomic.Int64
	newSub := func() *Subscription {
		s, err := newSubscription("s", &Policy{MemoryBudgetRecords: 100}, "", &tracked)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sub := newSub()
	tr := newAckTracker(time.Millisecond)
	tr.attach(0, sub)

	queued := hyracks.NewFrame(1)
	queued.Append([]byte("queued"))
	sub.offer(queued)
	ids := tr.track(0, [][]byte{[]byte("r1"), []byte("r2")})
	statsBefore, bytesBefore := sub.Stats(), tracked.Load()
	if n, _ := tr.sweep(time.Now().Add(time.Hour)); n != 2 {
		t.Fatalf("swept %d records, want 2", n)
	}
	if st := sub.Stats(); st != statsBefore || tracked.Load() != bytesBefore {
		t.Fatalf("a waiting replay moved the ledger or the governor's bytes: %+v, %d bytes; before %+v, %d bytes",
			st, tracked.Load(), statsBefore, bytesBefore)
	}

	stop := make(chan struct{})
	f, ok := sub.Next(stop)
	if !ok || len(f.IDs) != 2 {
		t.Fatalf("first Next = %v, %v; want the replay of %v", f, ok, ids)
	}
	for k, id := range f.IDs {
		if want := map[uint64]string{ids[0]: "r1", ids[1]: "r2"}[id]; string(f.Records[k]) != want {
			t.Fatalf("replay carries id %d with record %q, want %q", id, f.Records[k], want)
		}
	}
	if st := sub.Stats(); st != statsBefore || tracked.Load() != bytesBefore {
		t.Fatalf("a taken replay moved the ledger or the governor's bytes: %+v, %d bytes", st, tracked.Load())
	}
	f, ok = sub.Next(stop)
	if !ok || len(f.IDs) != 0 || string(f.Records[0]) != "queued" {
		t.Fatalf("second Next = %v, want the queued frame", f)
	}

	// Drained, with records pending: the subscription stays open, and a
	// replay swept now still comes out.
	sub.drainAndClose()
	tr.sweep(time.Now().Add(2 * time.Hour))
	if f, ok := sub.Next(stop); !ok || len(f.IDs) != 2 {
		t.Fatalf("Next on a drained subscription with records pending = %v, %v; want their replay", f, ok)
	}
	done := make(chan bool)
	go func() {
		_, ok := sub.Next(stop)
		done <- ok
	}()
	tr.ack(ids[:1])
	select {
	case ok := <-done:
		t.Fatalf("Next returned (ok=%v) with a record still pending", ok)
	case <-time.After(20 * time.Millisecond):
	}
	tr.ack(ids[1:])
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Next handed out a frame after the last ack, want the end of the stream")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the ack that emptied the tracker did not wake the drained subscription")
	}

	// Stalled: one replay frame per sweep waits, up to the bound. Then
	// discarded: the waiting replays go, and their records stay pending.
	sub2 := newSub()
	tr.attach(1, sub2)
	for i := 0; i < maxReplayFrames+4; i++ {
		tr.track(1, [][]byte{[]byte("r3")})
		tr.sweep(time.Now().Add(time.Duration(i+3) * time.Hour))
	}
	sub2.mu.Lock()
	waiting := sub2.replays.n
	sub2.mu.Unlock()
	if waiting != maxReplayFrames {
		t.Fatalf("%d replay frames wait on a stalled subscription, want the bound %d", waiting, maxReplayFrames)
	}
	pending := tr.pendingCount()
	sub2.discardAndClose()
	if f, ok := sub2.Next(stop); ok {
		t.Fatalf("discarded subscription handed out %v", f)
	}
	if pending == 0 || tr.pendingCount() != pending {
		t.Fatalf("pending = %d after discard, want the %d replayed records still pending", tr.pendingCount(), pending)
	}
	if tracked.Load() != 0 {
		t.Fatalf("tracked bytes = %d after both subscriptions closed, want 0", tracked.Load())
	}
}

// TestReplayDroppedIsCounted: a record whose acks are all lost is swept
// maxReplays times, then given up on — and counted, in the connection's
// metrics and under feed.<conn>.replay_dropped.
func TestReplayDroppedIsCounted(t *testing.T) {
	h := newHarness(t, "A")
	h.declareTweetDataset("Tweets")
	h.declarePrimaryFeed("F", makeGen(3, 0), 1, "")
	h.mgr.opt.AckTimeout = 4 * time.Millisecond
	h.mgr.opt.FaultHook = func(point string) error {
		if strings.HasPrefix(point, "ack:") {
			return errors.New("ack lost")
		}
		return nil
	}
	conn, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "AtLeastOnce")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "all 3 records dropped", func() bool {
		return conn.Metrics.ReplayDropped.Value() == 3
	})
	if _, replayed := conn.tracker.stats(); replayed != 3*maxReplays {
		t.Fatalf("tracker replayed %d, want %d (%d per record)", replayed, 3*maxReplays, maxReplays)
	}
	if conn.PendingAcks() != 0 {
		t.Fatalf("pending = %d after the drops", conn.PendingAcks())
	}
	name := connMetricPrefix(conn.ID()) + ".replay_dropped"
	if v, ok := h.mgr.Registry().Value(name); !ok || v != 3 {
		t.Fatalf("%s = %d (registered %v), want 3", name, v, ok)
	}
}

// sinkOp collects every record its tasks receive.
type sinkOp struct {
	mu   sync.Mutex
	recs int
}

func (o *sinkOp) Name() string { return "sink" }

func (o *sinkOp) CreateRuntime(*hyracks.TaskContext, hyracks.Writer) (hyracks.OperatorRuntime, error) {
	return hyracks.FuncWriter(func(f *hyracks.Frame) error {
		o.mu.Lock()
		o.recs += f.Len()
		o.mu.Unlock()
		return nil
	}), nil
}

// TestIntakeDrainsWhenDisconnectPrecedesSubscribe: a disconnect drains what
// it finds at the source joints. An intake that subscribes (here,
// re-attaches to a parked subscription no teardown marked) after the
// disconnect began must drain it itself, deliver the backlog and end its
// job — not wait for the teardown's timeout to cancel it.
func TestIntakeDrainsWhenDisconnectPrecedesSubscribe(t *testing.T) {
	cluster := hyracks.NewCluster(hyracks.Config{QueueDepth: 8}, "A")
	defer cluster.Close()
	fm := feedManagerOn(cluster.Node("A"))
	joint := fm.CreateJoint("feeds.F", 0)
	conn := &Connection{
		id:              "feeds.F->D",
		pol:             &Policy{MemoryBudgetRecords: 1000},
		Metrics:         newConnMetrics(time.Second),
		sourceSignature: "feeds.F",
		subID:           "feeds.F->D",
		disconnecting:   make(chan struct{}),
	}
	if _, err := joint.Subscribe(conn.subID, conn.pol, ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		f := hyracks.NewFrame(2)
		f.Append([]byte("a"))
		f.Append([]byte("b"))
		joint.Deposit(f)
	}
	conn.signalDisconnect()

	sink := &sinkOp{}
	spec := &hyracks.JobSpec{Name: "tail"}
	in := spec.AddOperator(&intakeOp{conn: conn}, hyracks.LocationConstraint("A"))
	out := spec.AddOperator(sink, hyracks.LocationConstraint("A"))
	spec.Connect(in, out, hyracks.OneToOne, nil)
	job, err := cluster.StartJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(5 * time.Second):
		job.Cancel()
		t.Fatal("intake never drained: it subscribed after the disconnect and did not unsubscribe")
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if sink.recs != 10 {
		t.Fatalf("drain delivered %d records, want the 10 parked", sink.recs)
	}
	// Still registered: the teardown drops it once the job has ended.
	if sub, ok := joint.Subscription(conn.subID); !ok || !sub.isDraining() || sub.Backlog() != 0 || fm.TrackedBytes() != 0 {
		t.Fatalf("after the drain: subscription %v (registered %v), tracked bytes %d; want it drained and empty", sub, ok, fm.TrackedBytes())
	}
}

// TestDisconnectDrainsParkedSubscription: a tail rebuilt just before a
// graceful disconnect leaves its subscription parked at the source joint,
// holding what arrived while no intake ran. The disconnect runs between
// the new job's start and its intake's Subscribe. It must drain the parked
// subscription where it is registered, so the late intake re-attaches to
// it and every record reaches the store.
func TestDisconnectDrainsParkedSubscription(t *testing.T) {
	const records = 300
	h := newHarness(t, "A")
	ds := h.declareTweetDataset("Tweets")
	h.declarePrimaryFeed("F", makeGen(records, time.Millisecond), 1, "")
	var parked atomic.Pointer[Subscription]
	atSubscribe := make(chan struct{})
	h.mgr.opt.FaultHook = func(point string) error {
		p := parked.Load()
		if point != "subscribe:A" || p == nil {
			return nil
		}
		close(atSubscribe)
		// Hold the intake until the disconnect has marked the parked
		// subscription.
		for deadline := time.Now().Add(10 * time.Second); !p.isDraining() && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		return nil
	}
	conn, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "AtLeastOnce")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the first records stored", func() bool { return h.datasetCount(ds) >= 20 })
	joint, ok := feedManagerOn(h.cluster.Node("A")).Joint(conn.sourceSignature, 0)
	if !ok {
		t.Fatal("no source joint")
	}
	sub, ok := joint.Subscription(conn.subID)
	if !ok {
		t.Fatal("no subscription at the source joint")
	}
	parked.Store(sub)

	h.mgr.mu.Lock()
	err = h.mgr.rebuildTailLocked(conn)
	h.mgr.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-atSubscribe:
	case <-time.After(10 * time.Second):
		t.Fatal("the rebuilt intake never reached Subscribe")
	}
	waitFor(t, 10*time.Second, "every record deposited", func() bool {
		return sub.Stats().Received == records
	})
	if sub.Backlog() == 0 {
		t.Fatal("the parked subscription holds nothing: the test lost its interleaving")
	}
	if err := h.mgr.DisconnectFeed("feeds", "F", "Tweets"); err != nil {
		t.Fatal(err)
	}
	// A disconnect stops persisting, and the store acks what it no longer
	// writes: every record reached the store once its id was acked.
	if acked, _ := conn.tracker.stats(); conn.Metrics.Collected.Total() != records || acked != records {
		t.Fatalf("intakes took %d records and the store acked %d, want all %d", conn.Metrics.Collected.Total(), acked, records)
	}
}

// TestCollectedCountsARequeuedFrameOnce: an untracked frame the downstream
// refuses goes back to the subscription, and the intake that takes it again
// counts it. Collected must count each record sent once, not once per take.
func TestCollectedCountsARequeuedFrameOnce(t *testing.T) {
	cluster := hyracks.NewCluster(hyracks.Config{QueueDepth: 8}, "A")
	defer cluster.Close()
	fm := feedManagerOn(cluster.Node("A"))
	joint := fm.CreateJoint("feeds.F", 0)
	conn := &Connection{
		id:              "feeds.F->D",
		pol:             &Policy{MemoryBudgetRecords: 1000},
		Metrics:         newConnMetrics(time.Second),
		sourceSignature: "feeds.F",
		subID:           "feeds.F->D",
		disconnecting:   make(chan struct{}),
	}
	if _, err := joint.Subscribe(conn.subID, conn.pol, ""); err != nil {
		t.Fatal(err)
	}
	const frames, perFrame = 5, 2
	for i := 0; i < frames; i++ {
		f := hyracks.NewFrame(perFrame)
		f.Append([]byte("a"))
		f.Append([]byte("b"))
		joint.Deposit(f)
	}
	// Draining: each intake ends once the subscription is empty.
	conn.signalDisconnect()

	ctx := &hyracks.TaskContext{NodeID: "A", Node: cluster.Node("A"), Canceled: make(chan struct{})}
	refused := 0
	refuse := hyracks.FuncWriter(func(f *hyracks.Frame) error {
		refused += f.Len()
		return errors.New("downstream refuses")
	})
	if err := (&intakeRuntime{op: &intakeOp{conn: conn}, ctx: ctx, out: refuse}).Run(); err != nil {
		t.Fatal(err)
	}
	if refused != perFrame {
		t.Fatalf("the refusing downstream was offered %d records, want one frame of %d", refused, perFrame)
	}
	took := 0
	accept := hyracks.FuncWriter(func(f *hyracks.Frame) error {
		took += f.Len()
		return nil
	})
	if err := (&intakeRuntime{op: &intakeOp{conn: conn}, ctx: ctx, out: accept}).Run(); err != nil {
		t.Fatal(err)
	}
	if took != frames*perFrame {
		t.Fatalf("the second intake handed on %d records, want all %d", took, frames*perFrame)
	}
	if got := conn.Metrics.Collected.Total(); got != frames*perFrame {
		t.Fatalf("Collected = %d for %d records sent", got, frames*perFrame)
	}
}
