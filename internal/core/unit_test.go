package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/hyracks"
	"asterixfeeds/internal/metadata"
)

func TestCompilePolicyBuiltins(t *testing.T) {
	for _, decl := range metadata.BuiltinPolicies() {
		p, err := CompilePolicy(decl)
		if err != nil {
			t.Fatalf("CompilePolicy(%s): %v", decl.Name, err)
		}
		if p.Name != decl.Name {
			t.Fatalf("name = %q", p.Name)
		}
	}
}

func TestCompilePolicyCustomParams(t *testing.T) {
	decl := &metadata.PolicyDecl{Name: "Custom", Params: map[string]string{
		metadata.ParamSpill:           "true",
		metadata.ParamMaxSpillSize:    "512MB",
		metadata.ParamMemoryBudget:    "123",
		metadata.ParamMaxSoftFailures: "7",
	}}
	p, err := CompilePolicy(decl)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Spill || p.MaxSpillBytes != 512<<20 || p.MemoryBudgetRecords != 123 || p.MaxConsecutiveSoftFailures != 7 {
		t.Fatalf("compiled policy = %+v", p)
	}
}

func TestCompilePolicyRejectsBadValues(t *testing.T) {
	for param, val := range map[string]string{
		metadata.ParamMaxSpillSize:    "twelve",
		metadata.ParamMemoryBudget:    "x",
		metadata.ParamMaxSoftFailures: "y",
	} {
		decl := &metadata.PolicyDecl{Name: "Bad", Params: map[string]string{param: val}}
		if _, err := CompilePolicy(decl); err == nil {
			t.Errorf("CompilePolicy accepted %s=%s", param, val)
		}
	}
}

func TestParseByteSize(t *testing.T) {
	cases := map[string]int64{
		"512MB": 512 << 20, "1GB": 1 << 30, "4KB": 4 << 10, "100B": 100, "42": 42,
		"512mb": 512 << 20,
	}
	for in, want := range cases {
		got, err := parseByteSize(in)
		if err != nil || got != want {
			t.Errorf("parseByteSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
}

func TestAddHashTags(t *testing.T) {
	fn := AddHashTags()
	rec := tweet(1, 0, "going #home to #irvine today")
	out, err := fn.Apply(rec)
	if err != nil {
		t.Fatal(err)
	}
	topics, _ := out.Field("topics")
	items := topics.(*adm.OrderedList).Items
	if len(items) != 2 || items[0].(adm.String) != "#home" || items[1].(adm.String) != "#irvine" {
		t.Fatalf("topics = %v", topics)
	}
	// Records without message_text raise soft failures.
	bad := (&adm.RecordBuilder{}).Add("id", adm.String("x")).MustBuild()
	if _, err := fn.Apply(bad); err == nil {
		t.Fatal("missing message_text accepted")
	}
}

func TestSentimentAnalysis(t *testing.T) {
	fn := SentimentAnalysis()
	pos, err := fn.Apply(tweet(1, 0, "I love this great product"))
	if err != nil {
		t.Fatal(err)
	}
	s, _ := pos.Field("sentiment")
	if float64(s.(adm.Double)) != 1.0 {
		t.Fatalf("positive sentiment = %v", s)
	}
	neg, _ := fn.Apply(tweet(2, 0, "awful terrible bad"))
	s, _ = neg.Field("sentiment")
	if float64(s.(adm.Double)) != 0.0 {
		t.Fatalf("negative sentiment = %v", s)
	}
	neutral, _ := fn.Apply(tweet(3, 0, "just a tweet"))
	s, _ = neutral.Field("sentiment")
	if float64(s.(adm.Double)) != 0.5 {
		t.Fatalf("neutral sentiment = %v", s)
	}
}

func TestComposeFunctions(t *testing.T) {
	f1 := AddHashTags()
	f2 := SentimentAnalysis()
	comp := ComposeFunctions(f1, f2)
	if comp.Name() != "addHashTags:tweetlib#sentimentAnalysis" {
		t.Fatalf("composed name = %q", comp.Name())
	}
	out, err := comp.Apply(tweet(1, 0, "I love #go"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out.Field("topics"); !ok {
		t.Fatal("first stage not applied")
	}
	if _, ok := out.Field("sentiment"); !ok {
		t.Fatal("second stage not applied")
	}
	// Filtering stage short-circuits.
	filter := &FuncRecordFunction{FuncName: "drop", Fn: func(*adm.Record) (*adm.Record, error) { return nil, nil }}
	comp2 := ComposeFunctions(filter, f2)
	out2, err := comp2.Apply(tweet(1, 0, "x"))
	if err != nil || out2 != nil {
		t.Fatalf("filtered compose = %v, %v", out2, err)
	}
	// Composition of delay functions sums frame delays.
	d := ComposeFunctions(DelayFunction("a", time.Millisecond), DelayFunction("b", 2*time.Millisecond))
	if fc, ok := d.(FrameCoster); !ok || fc.FrameDelay(10) != 30*time.Millisecond {
		t.Fatalf("composed FrameDelay wrong")
	}
}

func TestSpinAndDelayFunctions(t *testing.T) {
	spin := SpinFunction("f1", 1000)
	out, err := spin.Apply(tweet(1, 0, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := out.Field("spun_f1"); !ok || v.(adm.Int64) != 1000 {
		t.Fatalf("spin annotation = %v", v)
	}
	delay := DelayFunction("d", 100*time.Microsecond)
	if fc := delay.(FrameCoster); fc.FrameDelay(100) != 10*time.Millisecond {
		t.Fatalf("FrameDelay = %v", delay.(FrameCoster).FrameDelay(100))
	}
}

func TestFailEveryN(t *testing.T) {
	fn := FailEveryN("flaky", 3)
	fails := 0
	for i := 0; i < 9; i++ {
		if _, err := fn.Apply(tweet(i, 0, "x")); err != nil {
			fails++
		}
	}
	if fails != 3 {
		t.Fatalf("failures = %d, want 3", fails)
	}
}

func TestFunctionRegistry(t *testing.T) {
	r := NewFunctionRegistry()
	if _, ok := r.Lookup("addHashTags"); !ok {
		t.Fatal("builtin addHashTags missing")
	}
	if _, ok := r.Lookup("tweetlib#sentimentAnalysis"); !ok {
		t.Fatal("builtin sentiment missing")
	}
	custom := DelayFunction("custom", 0)
	r.Register(custom)
	got, ok := r.Lookup("custom")
	if !ok || got != custom {
		t.Fatal("custom function not resolved")
	}
}

func TestSpillFileFIFO(t *testing.T) {
	sf, err := newSpillFile(filepath.Join(t.TempDir(), "s.spill"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.close()
	for i := 0; i < 5; i++ {
		f := hyracks.NewFrame(2)
		f.Append([]byte(fmt.Sprintf("rec-%d-a", i)))
		f.Append([]byte(fmt.Sprintf("rec-%d-b", i)))
		ok, err := sf.push(f)
		if err != nil || !ok {
			t.Fatal(err)
		}
	}
	if sf.pending() != 5 {
		t.Fatalf("pending = %d", sf.pending())
	}
	for i := 0; i < 5; i++ {
		f, err := sf.pop()
		if err != nil {
			t.Fatal(err)
		}
		if string(f.Records[0]) != fmt.Sprintf("rec-%d-a", i) {
			t.Fatalf("pop %d = %q", i, f.Records[0])
		}
	}
	if f, _ := sf.pop(); f != nil {
		t.Fatal("pop on empty spill returned frame")
	}
	// After full drain the file is reclaimed.
	if sf.bytes != 0 {
		t.Fatalf("bytes after drain = %d", sf.bytes)
	}
}

func TestSpillFileBudget(t *testing.T) {
	sf, err := newSpillFile(filepath.Join(t.TempDir(), "s.spill"), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.close()
	f := hyracks.NewFrame(1)
	f.Append(make([]byte, 40))
	if ok, _ := sf.push(f); !ok {
		t.Fatal("first push rejected")
	}
	if ok, _ := sf.push(f); ok {
		t.Fatal("push over budget accepted")
	}
}

func TestMetaFeedSkipsAndLogs(t *testing.T) {
	pol := &Policy{RecoverSoft: true, MaxConsecutiveSoftFailures: 100, SoftFailureLogData: true}
	log := NewExceptionLog(10)
	mf := newMetaFeed("assign:test", "A", pol, log)

	skipped, fatal := mf.guard([]byte("payload"), func() error { return errors.New("boom") })
	if fatal != nil || !skipped {
		t.Fatalf("guard = %v, %v", skipped, fatal)
	}
	skipped, fatal = mf.guard(nil, func() error { return nil })
	if fatal != nil || skipped {
		t.Fatal("successful work reported as skipped")
	}
	entries := log.Entries()
	if len(entries) != 1 || entries[0].Err != "boom" || string(entries[0].Record) != "payload" {
		t.Fatalf("log entries = %+v", entries)
	}
}

func TestMetaFeedCatchesPanics(t *testing.T) {
	pol := &Policy{RecoverSoft: true, MaxConsecutiveSoftFailures: 100}
	mf := newMetaFeed("assign:test", "A", pol, nil)
	skipped, fatal := mf.guard(nil, func() error { panic("kaboom") })
	if fatal != nil || !skipped {
		t.Fatalf("panic not sandboxed: %v %v", skipped, fatal)
	}
}

func TestMetaFeedConsecutiveLimit(t *testing.T) {
	pol := &Policy{RecoverSoft: true, MaxConsecutiveSoftFailures: 3}
	mf := newMetaFeed("assign:test", "A", pol, nil)
	var fatal error
	for i := 0; i < 3; i++ {
		_, fatal = mf.guard(nil, func() error { return errors.New("always") })
	}
	if fatal == nil {
		t.Fatal("consecutive failure limit not enforced")
	}
	// A success resets the streak.
	mf2 := newMetaFeed("a", "A", pol, nil)
	for i := 0; i < 10; i++ {
		mf2.guard(nil, func() error { return errors.New("x") }) //nolint:errcheck
		if _, fatal := mf2.guard(nil, func() error { return nil }); fatal != nil {
			t.Fatal("streak not reset by success")
		}
	}
}

func TestMetaFeedRecoveryDisabled(t *testing.T) {
	pol := &Policy{RecoverSoft: false}
	mf := newMetaFeed("assign:test", "A", pol, nil)
	_, fatal := mf.guard(nil, func() error { return errors.New("boom") })
	if fatal == nil {
		t.Fatal("soft failure with recovery disabled should be fatal")
	}
}

func TestExceptionLogRing(t *testing.T) {
	log := NewExceptionLog(3)
	for i := 0; i < 5; i++ {
		log.Append(ExceptionEntry{Err: fmt.Sprintf("e%d", i)})
	}
	entries := log.Entries()
	if len(entries) != 3 || entries[0].Err != "e2" || entries[2].Err != "e4" {
		t.Fatalf("ring entries = %+v", entries)
	}
	if log.Total() != 5 {
		t.Fatalf("total = %d", log.Total())
	}
}

// closedCh is a closed channel: a Next given it as cancel returns what is
// waiting and does not block.
func closedCh() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

func TestAckTrackerLifecycle(t *testing.T) {
	tr := newAckTracker(50 * time.Millisecond)
	sub, err := newSubscription("s", &Policy{MemoryBudgetRecords: 100}, "", new(atomic.Int64))
	if err != nil {
		t.Fatal(err)
	}
	tr.attach(0, sub)
	r2 := []byte("r2")
	ids := tr.track(0, [][]byte{[]byte("r1"), r2})
	id1, id2 := ids[0], ids[1]
	if id2 != id1+1 {
		t.Fatalf("ids of one frame = %v, want consecutive", ids)
	}
	if tr.pendingCount() != 2 {
		t.Fatalf("pending = %d", tr.pendingCount())
	}
	tr.ack([]uint64{id1})
	if tr.pendingCount() != 1 {
		t.Fatalf("pending after ack = %d", tr.pendingCount())
	}
	// Sweep before timeout: nothing replayed.
	if n, _ := tr.sweep(time.Now()); n != 0 {
		t.Fatalf("premature replay of %d records", n)
	}
	// Sweep after timeout: r2 replayed.
	n, _ := tr.sweep(time.Now().Add(time.Second))
	if n != 1 {
		t.Fatalf("replayed = %d, want 1", n)
	}
	f, ok := sub.Next(closedCh())
	if !ok {
		t.Fatal("no replay frame delivered")
	}
	if f.Len() != 1 || len(f.IDs) != 1 || f.IDs[0] != id2 || &f.Records[0][0] != &r2[0] {
		t.Fatalf("replay frame wrong: ids %v records %q (want the retained bytes, not a copy)", f.IDs, f.Records)
	}
	acked, replayed := tr.stats()
	if acked != 1 || replayed != 1 {
		t.Fatalf("stats = %d, %d", acked, replayed)
	}
}

func TestAckTrackerDropsAfterMaxReplays(t *testing.T) {
	tr := newAckTracker(time.Nanosecond)
	sub, err := newSubscription("s", &Policy{MemoryBudgetRecords: 100}, "", new(atomic.Int64))
	if err != nil {
		t.Fatal(err)
	}
	tr.attach(0, sub)
	tr.track(0, [][]byte{[]byte("r")})
	dropped := 0
	for i := 0; i < maxReplays+2; i++ {
		_, d := tr.sweep(time.Now().Add(time.Hour))
		dropped += d
		// Take the replay so frames don't pile up.
		sub.Next(closedCh())
	}
	if dropped != 1 || tr.pendingCount() != 0 {
		t.Fatalf("dropped = %d pending = %d", dropped, tr.pendingCount())
	}
}

func TestJointModesAndDelivery(t *testing.T) {
	j := newJoint("feeds.F", 0)
	if j.Mode() != JointInactive {
		t.Fatalf("mode = %v, want inactive", j.Mode())
	}
	pol := &Policy{MemoryBudgetRecords: 1000}
	s1, err := j.Subscribe("c1", pol, "")
	if err != nil {
		t.Fatal(err)
	}
	if j.Mode() != JointShortCircuited {
		t.Fatalf("mode = %v, want short-circuited", j.Mode())
	}
	s2, err := j.Subscribe("c2", pol, "")
	if err != nil {
		t.Fatal(err)
	}
	if j.Mode() != JointShared {
		t.Fatalf("mode = %v, want shared", j.Mode())
	}

	f := hyracks.NewFrame(2)
	f.Append([]byte("r1"))
	f.Append([]byte("r2"))
	j.Deposit(f)

	stop := make(chan struct{})
	g1, ok1 := s1.Next(stop)
	g2, ok2 := s2.Next(stop)
	if !ok1 || !ok2 || g1.Len() != 2 || g2.Len() != 2 {
		t.Fatal("guaranteed delivery violated")
	}
	if r1, r2 := s1.Stats().Received, s2.Stats().Received; r1 != 2 || r2 != 2 {
		t.Fatalf("received = %d and %d records, want 2 each", r1, r2)
	}
	if got := j.Subscribers(); len(got) != 2 || got[0] != "c1" {
		t.Fatalf("subscribers = %v", got)
	}
}

func TestJointSubscribeReattaches(t *testing.T) {
	j := newJoint("feeds.F", 0)
	pol := &Policy{MemoryBudgetRecords: 1000}
	s1, _ := j.Subscribe("c1", pol, "")
	f := hyracks.NewFrame(1)
	f.Append([]byte("r"))
	j.Deposit(f)
	// Re-subscribing with the same id adopts the same subscription state.
	s2, _ := j.Subscribe("c1", pol, "")
	if s1 != s2 {
		t.Fatal("re-subscribe created a new subscription")
	}
	if s2.Backlog() != 1 {
		t.Fatalf("backlog = %d, want 1 (buffered frame adopted)", s2.Backlog())
	}
}

func TestJointCongestionIsolation(t *testing.T) {
	// A slow subscriber must not impede a fast one: deposit many frames
	// and verify the fast subscriber can consume them all while the slow
	// one has consumed none.
	j := newJoint("feeds.F", 0)
	pol := &Policy{MemoryBudgetRecords: 100000}
	fast, _ := j.Subscribe("fast", pol, "")
	slow, _ := j.Subscribe("slow", pol, "")
	for i := 0; i < 100; i++ {
		f := hyracks.NewFrame(1)
		f.Append([]byte{byte(i)})
		j.Deposit(f)
	}
	stop := make(chan struct{})
	for i := 0; i < 100; i++ {
		if _, ok := fast.Next(stop); !ok {
			t.Fatal("fast subscriber starved")
		}
	}
	if slow.Backlog() != 100 {
		t.Fatalf("slow backlog = %d, want 100", slow.Backlog())
	}
}

func TestSubscriptionUnsubscribeDrains(t *testing.T) {
	j := newJoint("feeds.F", 0)
	pol := &Policy{MemoryBudgetRecords: 1000}
	s, _ := j.Subscribe("c", pol, "")
	for i := 0; i < 3; i++ {
		f := hyracks.NewFrame(1)
		f.Append([]byte{byte(i)})
		j.Deposit(f)
	}
	s.drainAndClose()
	// New deposits are not delivered.
	f := hyracks.NewFrame(1)
	f.Append([]byte{99})
	j.Deposit(f)
	stop := make(chan struct{})
	got := 0
	for {
		fr, ok := s.Next(stop)
		if !ok {
			break
		}
		got += fr.Len()
	}
	if got != 3 {
		t.Fatalf("drained %d records, want 3 (graceful drain)", got)
	}
}

func TestSubscriptionDiscardPolicy(t *testing.T) {
	j := newJoint("feeds.F", 0)
	pol := &Policy{MemoryBudgetRecords: 10, Discard: true}
	s, _ := j.Subscribe("c", pol, "")
	for i := 0; i < 50; i++ {
		f := hyracks.NewFrame(1)
		f.Append([]byte{byte(i)})
		j.Deposit(f)
	}
	st := s.Stats()
	if st.Backlog != 10 {
		t.Fatalf("backlog = %d, want 10 (budget)", st.Backlog)
	}
	if st.Discarded != 40 {
		t.Fatalf("discarded = %d, want 40", st.Discarded)
	}
	// Discarded records form a contiguous gap: the first 10 survive.
	stop := make(chan struct{})
	for i := 0; i < 10; i++ {
		f, _ := s.Next(stop)
		if f.Records[0][0] != byte(i) {
			t.Fatalf("record %d = %d; discard should keep the head of the stream", i, f.Records[0][0])
		}
	}
}

func TestSubscriptionThrottlePolicy(t *testing.T) {
	j := newJoint("feeds.F", 0)
	pol := &Policy{MemoryBudgetRecords: 50, Throttle: true, ThrottleMinRatio: 0.05}
	s, _ := j.Subscribe("c", pol, "")
	for i := 0; i < 100; i++ {
		f := hyracks.NewFrame(10)
		for k := 0; k < 10; k++ {
			f.Append([]byte{byte(i)})
		}
		j.Deposit(f)
	}
	st := s.Stats()
	if st.ThrottledOut == 0 {
		t.Fatal("throttle policy dropped nothing under overload")
	}
	if st.Received != 1000 {
		t.Fatalf("received %d, want all 1000 offered records", st.Received)
	}
	if kept := st.Received - st.ThrottledOut; kept != int64(st.Backlog) {
		t.Fatalf("received %d - throttled %d != backlog %d", st.Received, st.ThrottledOut, st.Backlog)
	}
	// Unlike discard, throttling admits records from late frames too.
	lateSeen := false
	stop := make(chan struct{})
	for {
		f, ok := s.Next(stop)
		if !ok || f == nil {
			break
		}
		for _, r := range f.Records {
			if r[0] > 50 {
				lateSeen = true
			}
		}
		if s.Backlog() == 0 {
			break
		}
	}
	if !lateSeen {
		t.Fatal("throttle did not sample from late arrivals")
	}
}

func TestSubscriptionSpillPolicy(t *testing.T) {
	j := newJoint("feeds.F", 0)
	pol := &Policy{MemoryBudgetRecords: 10, Spill: true}
	spillPath := filepath.Join(t.TempDir(), "sub.spill")
	s, _ := j.Subscribe("c", pol, spillPath)
	for i := 0; i < 100; i++ {
		f := hyracks.NewFrame(1)
		f.Append([]byte{byte(i)})
		j.Deposit(f)
	}
	st := s.Stats()
	if st.SpilledTotal == 0 || st.SpilledFrames == 0 {
		t.Fatalf("spill policy did not spill: %+v", st)
	}
	// All 100 records are eventually deliverable, in order.
	stop := make(chan struct{})
	for i := 0; i < 100; i++ {
		f, ok := s.Next(stop)
		if !ok {
			t.Fatalf("record %d missing after spill replay", i)
		}
		if f.Records[0][0] != byte(i) {
			t.Fatalf("record %d out of order: got %d", i, f.Records[0][0])
		}
	}
}

func TestSubscriptionBasicPolicyBuffers(t *testing.T) {
	j := newJoint("feeds.F", 0)
	pol := &Policy{MemoryBudgetRecords: 10}
	s, _ := j.Subscribe("c", pol, "")
	for i := 0; i < 100; i++ {
		f := hyracks.NewFrame(1)
		f.Append([]byte{byte(i)})
		j.Deposit(f)
	}
	if s.Backlog() != 100 {
		t.Fatalf("basic policy backlog = %d, want 100 (buffers beyond budget)", s.Backlog())
	}
	if s.Stats().Discarded != 0 || s.Stats().ThrottledOut != 0 {
		t.Fatal("basic policy dropped records")
	}
}

func TestSubscriptionNextCancel(t *testing.T) {
	j := newJoint("feeds.F", 0)
	s, _ := j.Subscribe("c", &Policy{MemoryBudgetRecords: 10}, "")
	stop := make(chan struct{})
	done := make(chan bool)
	go func() {
		_, ok := s.Next(stop)
		done <- ok
	}()
	close(stop)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Next returned a frame after cancel")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next did not respect cancel")
	}
}

func TestJointWaitForSubscriber(t *testing.T) {
	j := newJoint("feeds.F", 0)
	cancel := make(chan struct{})
	arrived := make(chan bool)
	go func() { arrived <- j.WaitForSubscriber(cancel) }()
	time.Sleep(5 * time.Millisecond)
	j.Subscribe("c", &Policy{MemoryBudgetRecords: 10}, "") //nolint:errcheck
	select {
	case ok := <-arrived:
		if !ok {
			t.Fatal("WaitForSubscriber returned false")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitForSubscriber did not observe subscription")
	}
	// Cancellation path.
	j2 := newJoint("feeds.G", 0)
	cancel2 := make(chan struct{})
	close(cancel2)
	if j2.WaitForSubscriber(cancel2) {
		t.Fatal("WaitForSubscriber ignored cancel")
	}
}

func TestFeedManagerJoints(t *testing.T) {
	fm := NewFeedManager("A")
	j1 := fm.CreateJoint("feeds.F", 0)
	j2 := fm.CreateJoint("feeds.F", 0)
	if j1 != j2 {
		t.Fatal("CreateJoint not idempotent")
	}
	if _, ok := fm.Joint("feeds.F", 0); !ok {
		t.Fatal("Joint lookup failed")
	}
	if _, ok := fm.Joint("feeds.F", 1); ok {
		t.Fatal("Joint lookup matched wrong partition")
	}
	if got := len(fm.Joints()); got != 1 {
		t.Fatalf("Joints() = %d entries", got)
	}
	fm.RemoveJoint("feeds.F", 0)
	if _, ok := fm.Joint("feeds.F", 0); ok {
		t.Fatal("joint survives removal")
	}
	// WaitJoint returns nil on cancel.
	cancel := make(chan struct{})
	close(cancel)
	if fm.WaitJoint("feeds.Z", 0, cancel) != nil {
		t.Fatal("WaitJoint ignored cancel")
	}
}

func TestJointModeString(t *testing.T) {
	if JointInactive.String() != "inactive" || JointShortCircuited.String() != "short-circuited" || JointShared.String() != "shared" {
		t.Fatal("JointMode strings wrong")
	}
	if !strings.Contains(ConnDisconnectedKeepAlive.String(), "keepalive") {
		t.Fatal("ConnState string wrong")
	}
}
