package governor

import (
	"sync/atomic"
	"testing"
	"time"
)

// pinClock freezes the package clock at a fixed instant and returns a
// function that advances it; the real clock is restored at cleanup.
func pinClock(t *testing.T) func(time.Duration) {
	t.Helper()
	var mu atomic.Int64
	base := time.Unix(1_700_000_000, 0)
	nowFunc = func() time.Time { return base.Add(time.Duration(mu.Load())) }
	t.Cleanup(func() { nowFunc = time.Now })
	return func(d time.Duration) { mu.Add(int64(d)) }
}

func newTestGovernor(budget int64) (*Governor, *atomic.Int64) {
	g := New("n1", Config{BudgetBytes: budget})
	var tracked atomic.Int64
	g.RegisterSource("test", tracked.Load)
	return g, &tracked
}

func TestDefaults(t *testing.T) {
	g := New("n1", Config{})
	if g.Budget() != DefaultBudgetBytes {
		t.Fatalf("budget = %d, want %d", g.Budget(), DefaultBudgetBytes)
	}
	if s := g.Snapshot(); s.Node != "n1" || s.ObserveOnly {
		t.Fatalf("node = %q, observe-only %v; want n1 and admission on by default", s.Node, s.ObserveOnly)
	}
}

func TestPressureIsMaxOfBytesAndSignals(t *testing.T) {
	g, tracked := newTestGovernor(1 << 20)
	var extra atomic.Int64
	g.RegisterSource("extra", extra.Load)
	tracked.Store(256 << 10)
	extra.Store(256 << 10)
	if got := g.TrackedBytes(); got != 512<<10 {
		t.Fatalf("tracked = %d, want sources summed = %d", got, 512<<10)
	}
	if p := g.Pressure(); p != 0.5 {
		t.Fatalf("pressure = %v, want 0.5", p)
	}
	sig := atomic.Int64{}
	g.RegisterSignal("stall", func() float64 { return float64(sig.Load()) / 100 })
	sig.Store(90)
	if p := g.Pressure(); p != 0.9 {
		t.Fatalf("pressure with dominant signal = %v, want 0.9", p)
	}
	sig.Store(10) // signal below byte pressure: bytes win
	if p := g.Pressure(); p != 0.5 {
		t.Fatalf("pressure with weak signal = %v, want 0.5", p)
	}
	// Negative source values are clamped, never reduce the total.
	extra.Store(-1 << 30)
	if got := g.TrackedBytes(); got != 256<<10 {
		t.Fatalf("tracked with negative source = %d, want %d", got, 256<<10)
	}
}

func TestQuiescentPressureIsZero(t *testing.T) {
	g, tracked := newTestGovernor(1 << 20)
	tracked.Store(2 << 20)
	if !g.OverBudget() {
		t.Fatal("2x budget not over budget")
	}
	tracked.Store(0)
	if g.TrackedBytes() != 0 || g.Pressure() != 0 || g.OverBudget() {
		t.Fatalf("quiescent governor reports tracked=%d pressure=%v", g.TrackedBytes(), g.Pressure())
	}
}

func TestParseClass(t *testing.T) {
	for in, want := range map[string]Class{"": ClassNormal, "normal": ClassNormal, "low": ClassLow, "high": ClassHigh} {
		got, err := ParseClass(in)
		if err != nil || got != want {
			t.Fatalf("ParseClass(%q) = %v, %v", in, got, err)
		}
		if got.String() == "" {
			t.Fatalf("class %v has empty string form", got)
		}
	}
	if _, err := ParseClass("urgent"); err == nil {
		t.Fatal("ParseClass accepted unknown class")
	}
}

func TestClassGatingOrder(t *testing.T) {
	pinClock(t)
	g, tracked := newTestGovernor(1 << 20)
	low := g.Admission("feed:lo", ClassLow)
	norm := g.Admission("feed:no", ClassNormal)
	hi := g.Admission("feed:hi", ClassHigh)

	// Below every threshold: nobody is gated.
	tracked.Store(512 << 10) // pressure 0.5
	for _, a := range []*Admission{low, norm, hi} {
		if a.Admit(4096, 4) != Admit {
			t.Fatalf("%s gated at pressure 0.5", a.Name())
		}
	}

	// Moderate pressure (0.8): only low is metered. The clock is pinned,
	// so once low's burst is spent it sheds while normal still admits.
	tracked.Store(800 << 10)
	lowAdmitted := 0
	for i := 0; i < 100; i++ {
		if low.Admit(1024, 1) == Admit {
			lowAdmitted++
		}
	}
	if lowAdmitted == 0 {
		t.Fatal("low admitted nothing: metering should start from a burst, not zero")
	}
	if lowAdmitted == 100 {
		t.Fatal("low never gated at pressure 0.8")
	}
	for i := 0; i < 100; i++ {
		if norm.Admit(1024, 1) != Admit {
			t.Fatal("normal gated at pressure 0.8")
		}
	}

	// Severe pressure (2.0): low and normal gated, high still untouched.
	tracked.Store(2 << 20)
	normAdmitted := 0
	for i := 0; i < 200; i++ {
		if norm.Admit(1024, 1) == Admit {
			normAdmitted++
		}
	}
	if normAdmitted == 0 || normAdmitted == 200 {
		t.Fatalf("normal admitted %d/200 at pressure 2.0, want metered but non-zero", normAdmitted)
	}
	for i := 0; i < 200; i++ {
		if hi.Admit(1<<20, 1) != Admit {
			t.Fatal("high-priority admission gated")
		}
	}
}

func TestTokenRefillAndReset(t *testing.T) {
	advance := pinClock(t)
	g, tracked := newTestGovernor(1 << 20)
	low := g.Admission("feed:lo", ClassLow)
	tracked.Store(2 << 20) // well over budget

	drain := func() (n int) {
		for i := 0; i < 1000; i++ {
			if low.Admit(1024, 1) != Admit {
				return n
			}
			n++
		}
		t.Fatal("bucket never drained")
		return
	}
	first := drain()
	if first == 0 {
		t.Fatal("no initial burst")
	}
	// Refill at the low rate (budget/64 per second): after 1s the bucket
	// holds min(burst, rate*1s) = burst again (burst is rate/4).
	advance(time.Second)
	if got := drain(); got != first {
		t.Fatalf("refilled burst admitted %d frames, first burst %d", got, first)
	}
	// An idle stretch below threshold resets the bucket: no banked tokens.
	tracked.Store(0)
	if low.Admit(1024, 1) != Admit {
		t.Fatal("gated below threshold")
	}
	advance(time.Hour)
	tracked.Store(2 << 20)
	if got := drain(); got > first {
		t.Fatalf("idle hour banked tokens: drained %d > burst %d", got, first)
	}
}

func TestOversizedBatchStillProgresses(t *testing.T) {
	advance := pinClock(t)
	g, tracked := newTestGovernor(1 << 20)
	norm := g.Admission("head:x", ClassNormal)
	tracked.Store(2 << 20)
	// A batch far larger than the burst costs the whole bucket rather
	// than never fitting: one admit per full refill.
	if norm.Admit(8<<20, 1) != Admit {
		t.Fatal("oversized batch refused on a full bucket")
	}
	if norm.Admit(8<<20, 1) != Shed {
		t.Fatal("second oversized batch admitted from an empty bucket")
	}
	advance(time.Second)
	if norm.Admit(8<<20, 1) != Admit {
		t.Fatal("oversized batch refused after refill")
	}
}

func TestObserveOnlyAlwaysAdmits(t *testing.T) {
	pinClock(t)
	g := New("n1", Config{BudgetBytes: 1 << 10, ObserveOnly: true})
	var tracked atomic.Int64
	g.RegisterSource("test", tracked.Load)
	tracked.Store(1 << 30)
	low := g.Admission("feed:lo", ClassLow)
	for i := 0; i < 100; i++ {
		if low.Admit(1<<20, 1) != Admit {
			t.Fatal("observe-only governor shed traffic")
		}
	}
	if !g.OverBudget() {
		t.Fatal("observe-only governor must still report pressure")
	}
}

func TestWaitAdmitsWhenPressureDrops(t *testing.T) {
	g, tracked := newTestGovernor(1 << 20)
	norm := g.Admission("head:x", ClassNormal)
	tracked.Store(2 << 20)
	for i := 0; i < 1000 && norm.Admit(1024, 1) == Admit; i++ {
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		tracked.Store(0)
	}()
	done := make(chan bool, 1)
	go func() { done <- norm.Wait(1024, 1, nil) }()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("Wait returned false without cancel")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not unblock after pressure dropped")
	}
	if g.Delays.Value() == 0 {
		t.Fatal("blocking wait not counted")
	}
}

func TestWaitCancel(t *testing.T) {
	pinClock(t)
	g, tracked := newTestGovernor(1 << 20)
	norm := g.Admission("head:x", ClassNormal)
	tracked.Store(2 << 20)
	for i := 0; i < 1000 && norm.Admit(1024, 1) == Admit; i++ {
	}
	cancel := make(chan struct{})
	done := make(chan bool, 1)
	go func() { done <- norm.Wait(1024, 1, cancel) }()
	close(cancel)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Wait admitted despite pinned clock and sustained pressure")
		}
	case <-time.After(time.Second):
		t.Fatal("Wait ignored cancel")
	}
}

func TestAdmissionLifecycleAndSnapshot(t *testing.T) {
	pinClock(t)
	g, tracked := newTestGovernor(1 << 20)
	a := g.Admission("feed:a", ClassLow)
	if again := g.Admission("feed:a", ClassHigh); again != a {
		t.Fatal("re-registering created a second admission")
	} else if again.Class() != ClassHigh {
		t.Fatal("re-registering did not update the class")
	}
	g.Admission("feed:b", ClassNormal)

	tracked.Store(512 << 10)
	a.Admit(2048, 2)
	a.CountShed(3)
	s := g.Snapshot()
	if s.Node != "n1" || s.BudgetBytes != 1<<20 || s.TrackedBytes != 512<<10 {
		t.Fatalf("snapshot header = %+v", s)
	}
	if s.Sources["test"] != 512<<10 {
		t.Fatalf("snapshot sources = %v", s.Sources)
	}
	if len(s.Admissions) != 2 || s.Admissions[0].Name != "feed:a" || s.Admissions[1].Name != "feed:b" {
		t.Fatalf("snapshot admissions = %+v", s.Admissions)
	}
	if got := s.Admissions[0]; got.Class != "high" || got.AdmittedRecords != 2 || got.ShedRecords != 3 {
		t.Fatalf("admission snapshot = %+v", got)
	}
	if s.AdmittedBytes != 2048 || s.ShedRecords != 3 {
		t.Fatalf("node counters = admitted %d shed %d", s.AdmittedBytes, s.ShedRecords)
	}
	if g.ShedFrames.Value() != 1 || g.AdmittedRecords.Value() != 2 {
		t.Fatalf("frame/record counters = %d/%d", g.ShedFrames.Value(), g.AdmittedRecords.Value())
	}

	g.DropAdmission("feed:a")
	if s := g.Snapshot(); len(s.Admissions) != 1 || s.Admissions[0].Name != "feed:b" {
		t.Fatalf("admissions after drop = %+v", s.Admissions)
	}
}
