package core

import (
	"path/filepath"
	"sync/atomic"
	"testing"

	"asterixfeeds/internal/governor"
	"asterixfeeds/internal/hyracks"
)

// overloadedGovernor returns a governor pinned far over budget: every
// admission decision for a gated class is metered against a near-empty
// token bucket, so effectively everything beyond the first burst sheds.
func overloadedGovernor() *governor.Governor {
	g := governor.New("A", governor.Config{BudgetBytes: 1})
	g.RegisterSource("test", func() int64 { return 100 })
	return g
}

// A lossy policy (Discard) under governor pressure sheds at the joint, and
// the shed is fully accounted: the subscription ledger extends with the
// GovernorShed term, and the governor's node counters agree exactly with
// the subscription's — shed records are counted once, nowhere else.
func TestGovernorShedLedgerExactness(t *testing.T) {
	g := overloadedGovernor()
	j := newJoint("feeds.F", "A", 0)
	s, err := j.Subscribe("c", &Policy{MemoryBudgetRecords: 1 << 20, Discard: true}, "")
	if err != nil {
		t.Fatal(err)
	}
	s.SetAdmission(g.Admission("feed:c", governor.ClassLow))

	const offered = 400
	for i := 0; i < offered; i++ {
		f := hyracks.NewFrame(1)
		f.Append([]byte{byte(i)})
		j.Deposit(f)
	}
	delivered := drainAll(s)
	st := s.Stats()
	if st.GovernorShed == 0 {
		t.Fatal("over-budget governor shed nothing from a Discard feed")
	}
	if st.Received != int64(offered) {
		t.Fatalf("Received = %d, want %d", st.Received, offered)
	}
	if st.Received != delivered+st.Discarded+st.ThrottledOut+st.GovernorShed {
		t.Fatalf("ledger violated: Received %d != delivered %d + Discarded %d + ThrottledOut %d + GovernorShed %d",
			st.Received, delivered, st.Discarded, st.ThrottledOut, st.GovernorShed)
	}
	if got := g.ShedRecords.Value(); got != st.GovernorShed {
		t.Fatalf("governor ShedRecords = %d, subscription GovernorShed = %d (must agree exactly)",
			got, st.GovernorShed)
	}
	if g.ShedFrames.Value() != st.GovernorShed {
		// one record per frame in this test
		t.Fatalf("governor ShedFrames = %d, want %d", g.ShedFrames.Value(), st.GovernorShed)
	}
}

// A non-lossy policy (Spill) under governor pressure must NOT lose records:
// the Shed decision converts to a forced spill, GovernorShed stays zero,
// and every offered record is eventually delivered.
func TestGovernorShedConvertsToSpillForNonLossyPolicy(t *testing.T) {
	g := overloadedGovernor()
	j := newJoint("feeds.F", "A", 0)
	pol := &Policy{MemoryBudgetRecords: 1 << 20, Spill: true}
	s, err := j.Subscribe("c", pol, filepath.Join(t.TempDir(), "sub.spill"))
	if err != nil {
		t.Fatal(err)
	}
	s.SetAdmission(g.Admission("feed:c", governor.ClassLow))

	const offered = 200
	for i := 0; i < offered; i++ {
		f := hyracks.NewFrame(1)
		f.Append([]byte{byte(i)})
		j.Deposit(f)
	}
	if st := s.Stats(); st.SpilledTotal == 0 {
		t.Fatalf("governor pressure did not force spilling: %+v", st)
	}
	delivered := drainAll(s)
	st := s.Stats()
	if delivered != int64(offered) {
		t.Fatalf("delivered %d of %d (non-lossy policy must not lose records under pressure)", delivered, offered)
	}
	if st.GovernorShed != 0 {
		t.Fatalf("GovernorShed = %d for a non-lossy policy, want 0", st.GovernorShed)
	}
	if g.ShedRecords.Value() != 0 {
		t.Fatalf("governor counted %d shed records for a non-lossy policy", g.ShedRecords.Value())
	}
}

// A high-priority subscription is never gated: with the node far over
// budget, every record of a ClassHigh feed is admitted while a ClassLow
// sibling on the same joint sheds.
func TestGovernorHighPriorityUnaffectedUnderPressure(t *testing.T) {
	g := overloadedGovernor()
	j := newJoint("feeds.F", "A", 0)
	hi, err := j.Subscribe("hi", &Policy{MemoryBudgetRecords: 1 << 20, Discard: true}, "")
	if err != nil {
		t.Fatal(err)
	}
	lo, err := j.Subscribe("lo", &Policy{MemoryBudgetRecords: 1 << 20, Discard: true}, "")
	if err != nil {
		t.Fatal(err)
	}
	hi.SetAdmission(g.Admission("feed:hi", governor.ClassHigh))
	lo.SetAdmission(g.Admission("feed:lo", governor.ClassLow))

	const offered = 300
	for i := 0; i < offered; i++ {
		f := hyracks.NewFrame(1)
		f.Append([]byte{byte(i)})
		j.Deposit(f)
	}
	if st := hi.Stats(); st.GovernorShed != 0 {
		t.Fatalf("high-priority feed shed %d records under pressure, want 0", st.GovernorShed)
	}
	if hiDelivered := drainAll(hi); hiDelivered != int64(offered) {
		t.Fatalf("high-priority feed kept %d of %d records", hiDelivered, offered)
	}
	if st := lo.Stats(); st.GovernorShed == 0 {
		t.Fatal("low-priority sibling was not shed while the node was over budget")
	}
}

// At quiescence — every subscription drained, every spill file replayed —
// the feed layer's contribution to governor-tracked bytes is exactly zero:
// the backlog-byte and spill-byte accounts both return to empty.
func TestGovernorTrackedBytesZeroAtQuiescence(t *testing.T) {
	g := governor.New("A", governor.Config{})
	fm := NewFeedManager("A")
	g.RegisterSource("feeds", fm.TrackedBytes)

	j := fm.CreateJoint("feeds.F", 0)
	s, err := j.Subscribe("c", &Policy{MemoryBudgetRecords: 10, Spill: true},
		filepath.Join(t.TempDir(), "sub.spill"))
	if err != nil {
		t.Fatal(err)
	}
	const offered = 250
	for i := 0; i < offered; i++ {
		f := hyracks.NewFrame(1)
		f.Append([]byte{byte(i)})
		j.Deposit(f)
	}
	if tracked := g.TrackedBytes(); tracked <= 0 {
		t.Fatalf("governor tracked %d bytes with a live backlog, want > 0", tracked)
	}
	if delivered := drainAll(s); delivered != int64(offered) {
		t.Fatalf("delivered %d of %d", delivered, offered)
	}
	if tracked := g.TrackedBytes(); tracked != 0 {
		t.Fatalf("governor tracked %d bytes at quiescence, want 0", tracked)
	}
}

// The elastic controller must not scale out a connection whose intake node
// is over the governor's budget; the veto is counted and surfaced as an
// elastic event.
func TestGovernorVetoesScaleOutOverBudget(t *testing.T) {
	h := newHarness(t, "A")
	g := governor.New("A", governor.Config{BudgetBytes: 1})
	var over atomic.Int64
	g.RegisterSource("test", over.Load)
	h.cluster.Node("A").SetService(governor.ServiceName, g)

	h.declareTweetDataset("Tweets")
	h.declarePrimaryFeed("F", makeGen(10, 0), 1, "")
	conn, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", "")
	if err != nil {
		t.Fatal(err)
	}

	if h.mgr.governorVetoesScaleOut(conn) {
		t.Fatal("governor vetoed scale-out while under budget")
	}
	over.Store(100) // push the node far over its 1-byte budget
	veto0 := g.ElasticVetoes.Value()
	if !h.mgr.governorVetoesScaleOut(conn) {
		t.Fatal("over-budget governor did not veto scale-out")
	}
	if g.ElasticVetoes.Value() != veto0+1 {
		t.Fatalf("ElasticVetoes = %d, want %d", g.ElasticVetoes.Value(), veto0+1)
	}
	found := false
	for _, ev := range conn.ElasticEvents() {
		if ev == "scale-out vetoed: node A over memory budget" {
			found = true
		}
	}
	if !found {
		t.Fatalf("veto not recorded in elastic events: %v", conn.ElasticEvents())
	}
}
