package metrics

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// Regression for the unbounded-growth bug: a counter fed for a simulated
// hour at 1ms bucket width must stay within its capacity instead of
// allocating 3.6 million buckets.
func TestWindowedCounterBoundedOverSimulatedHour(t *testing.T) {
	w := NewWindowedCounterCap(time.Millisecond, 128)
	base := w.start
	for ms := 0; ms < 3600*1000; ms += 250 {
		w.AddAt(base.Add(time.Duration(ms)*time.Millisecond), 1)
	}
	s := w.Series()
	if len(s) > w.cap {
		t.Fatalf("series length %d exceeds cap %d", len(s), w.cap)
	}
	if want := int64(3600 * 1000 / 250); w.Total() != want {
		t.Fatalf("Total = %d, want %d", w.Total(), want)
	}
	if sum(s) >= w.Total() {
		t.Fatal("an hour at 128ms retention must have evicted buckets")
	}
}

// A single far-future timestamp must cost O(cap), not allocate a slice
// proportional to the jump distance.
func TestWindowedCounterFarFutureJump(t *testing.T) {
	w := NewWindowedCounterCap(time.Millisecond, 64)
	base := w.start
	w.AddAt(base, 5)
	w.AddAt(base.Add(10*365*24*time.Hour), 7) // ten years ahead
	s := w.Series()
	if len(s) > w.cap {
		t.Fatalf("series length %d exceeds cap %d after far-future add", len(s), w.cap)
	}
	if s[len(s)-1] != 7 {
		t.Fatalf("newest bucket = %d, want 7", s[len(s)-1])
	}
	if w.Total() != 12 {
		t.Fatalf("Total = %d, want 12", w.Total())
	}
	if evicted := w.Total() - sum(s); evicted != 5 {
		t.Fatalf("evicted = %d, want 5", evicted)
	}
}

// sum adds up a counter's retained series; Total minus it is what the ring
// has evicted.
func sum(series []int64) int64 {
	var n int64
	for _, v := range series {
		n += v
	}
	return n
}

// Events older than the retained window clamp into the oldest bucket
// instead of indexing before the ring.
func TestWindowedCounterOldEventClampsIntoRing(t *testing.T) {
	w := NewWindowedCounterCap(time.Millisecond, 8)
	base := w.start
	w.AddAt(base.Add(100*time.Millisecond), 1) // rotate well past the cap
	w.AddAt(base, 3)                           // long evicted: clamps to oldest retained
	s := w.Series()
	if len(s) != w.cap {
		t.Fatalf("series length = %d, want %d", len(s), w.cap)
	}
	if s[0] != 3 {
		t.Fatalf("oldest bucket = %d, want 3", s[0])
	}
	if w.Total() != 4 {
		t.Fatalf("Total = %d, want 4", w.Total())
	}
}

// While the run fits within capacity, the ring must reproduce the exact
// same series the unbounded implementation produced.
func TestWindowedCounterSeriesContractWithinCap(t *testing.T) {
	w := NewWindowedCounterCap(100*time.Millisecond, 512)
	base := w.start
	exact := make(map[int]int64)
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		off := time.Duration(rnd.Intn(5000)) * time.Millisecond // < 50 buckets
		w.AddAt(base.Add(off), 1)
		exact[int(off/(100*time.Millisecond))]++
	}
	s := w.Series()
	for idx, n := range exact {
		if idx >= len(s) || s[idx] != n {
			t.Fatalf("bucket %d: ring says %v, exact says %d", idx, s, n)
		}
	}
}

// exactRecorder is the pre-fix reference implementation: every sample kept,
// full sort per quantile.
type exactRecorder struct{ samples []time.Duration }

func (e *exactRecorder) record(d time.Duration) { e.samples = append(e.samples, d) }
func (e *exactRecorder) quantile(q float64) time.Duration {
	if len(e.samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), e.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q * float64(len(sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Property: for sample counts at or below the reservoir capacity, every
// quantile matches the exact recorder bit-for-bit (the reservoir keeps all
// samples until it is full).
func TestLatencyRecorderExactWithinCap(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	quantiles := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
	for trial := 0; trial < 20; trial++ {
		capacity := 16 + rnd.Intn(256)
		n := 1 + rnd.Intn(capacity) // ≤ cap
		l := NewLatencyRecorderCap(capacity)
		e := &exactRecorder{}
		var sum time.Duration
		for i := 0; i < n; i++ {
			d := time.Duration(rnd.Intn(1_000_000)) * time.Microsecond
			l.Record(d)
			e.record(d)
			sum += d
		}
		for _, q := range quantiles {
			if got, want := l.Quantile(q), e.quantile(q); got != want {
				t.Fatalf("trial %d (cap=%d n=%d): Quantile(%g) = %v, want %v", trial, capacity, n, q, got, want)
			}
		}
		if got, want := l.Mean(), sum/time.Duration(n); got != want {
			t.Fatalf("trial %d: Mean = %v, want %v", trial, got, want)
		}
		if l.Count() != n {
			t.Fatalf("trial %d: Count = %d, want %d", trial, l.Count(), n)
		}
	}
}

// Beyond capacity the reservoir is a uniform sample: memory stays bounded
// and quantiles stay statistically close to the true distribution.
func TestLatencyRecorderBoundedAndApproximate(t *testing.T) {
	l := NewLatencyRecorderCap(512)
	const n = 100_000
	for i := 1; i <= n; i++ {
		l.Record(time.Duration(i) * time.Microsecond) // uniform 1..n µs
	}
	if len(l.samples) > l.cap {
		t.Fatalf("reservoir holds %d samples, cap %d", len(l.samples), l.cap)
	}
	if l.Count() != n {
		t.Fatalf("Count = %d, want %d", l.Count(), n)
	}
	med := l.Quantile(0.5)
	if med < 40*time.Millisecond || med > 60*time.Millisecond {
		t.Fatalf("median of uniform 1..100ms = %v, want ≈50ms", med)
	}
	// Mean is exact regardless of sampling: sum 1..n µs over n samples.
	want := time.Duration(int64(n)*int64(n+1)/2) * time.Microsecond / n
	if got := l.Mean(); got != want {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Add(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("Gauge = %d, want 7", g.Value())
	}
}

func TestRegistryRegisterAndValue(t *testing.T) {
	r := NewRegistry()
	c := &Counter{}
	c.Add(3)
	r.RegisterCounter("feed.x.soft_failures", c)
	var backlog Gauge
	backlog.Add(9)
	r.RegisterGaugeFunc("feed.x.backlog", backlog.Value)
	r.RegisterGaugeFunc("feed.x.pending", func() int64 { return 4 })
	w := NewWindowedCounter(10 * time.Millisecond)
	w.Add(6)
	r.RegisterWindow("feed.x.persisted", w)
	r.RegisterLatency("feed.x.latency", NewLatencyRecorder())

	c.Add(1) // the registry reads the metric its owner keeps moving
	for name, want := range map[string]int64{
		"feed.x.soft_failures": 4,
		"feed.x.backlog":       9,
		"feed.x.pending":       4,
		"feed.x.persisted":     6,
	} {
		got, ok := r.Value(name)
		if !ok || got != want {
			t.Fatalf("Value(%q) = %d,%v want %d", name, got, ok, want)
		}
	}
	if _, ok := r.Value("nope"); ok {
		t.Fatal("Value of unknown name reported ok")
	}
	// A latency recorder is no integer: Value does not report it, and
	// Snapshot does.
	if _, ok := r.Value("feed.x.latency"); ok {
		t.Fatal("Value of a latency recorder reported ok")
	}
	kinds := map[string]string{}
	for _, s := range r.Snapshot() {
		kinds[s.Name] = s.Kind
	}
	for name, want := range map[string]string{
		"feed.x.soft_failures": "counter",
		"feed.x.backlog":       "gauge",
		"feed.x.persisted":     "window",
		"feed.x.latency":       "latency",
	} {
		if kinds[name] != want {
			t.Fatalf("Snapshot kind of %q = %q, want %q", name, kinds[name], want)
		}
	}
}

func TestRegistryUnregisterPrefix(t *testing.T) {
	r := NewRegistry()
	r.RegisterCounter("feed.a.x", &Counter{})
	r.RegisterGaugeFunc("feed.a.z", func() int64 { return 1 })
	r.RegisterWindow("feed.a.w", NewWindowedCounter(time.Second))
	r.RegisterLatency("feed.a.lat", NewLatencyRecorder())
	sibling := &Counter{}
	sibling.Add(5)
	r.RegisterCounter("feed.ab.x", sibling) // shares the byte prefix, must survive

	r.Unregister("feed.a")
	for _, name := range []string{"feed.a.x", "feed.a.z", "feed.a.w"} {
		if _, ok := r.Value(name); ok {
			t.Fatalf("%q survived Unregister", name)
		}
	}
	for _, s := range r.Snapshot() {
		if s.Name == "feed.a.lat" {
			t.Fatal(`"feed.a.lat" survived Unregister`)
		}
	}
	if v, ok := r.Value("feed.ab.x"); !ok || v != 5 {
		t.Fatal("Unregister removed a sibling with a shared byte prefix")
	}
}

func TestRegistryWriteProm(t *testing.T) {
	r := NewRegistry()
	errs := &Counter{}
	errs.Add(2)
	r.RegisterCounter("feed.t.errors", errs)
	r.RegisterGaugeFunc("node.a.backlog", func() int64 { return 11 })
	w := NewWindowedCounter(10 * time.Millisecond)
	w.Add(7)
	r.RegisterWindow("feed.t.persisted", w)
	lat := NewLatencyRecorder()
	lat.Record(5 * time.Millisecond)
	r.RegisterLatency("feed.t.latency", lat)

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"feed_t_errors 2",
		"node_a_backlog 11",
		"feed_t_persisted_total 7",
		"feed_t_latency_count 1",
		"feed_t_latency_p99_seconds 0.005",
		"# TYPE feed_t_errors counter",
		"# TYPE node_a_backlog gauge",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.RegisterCounter("x", &Counter{})
	r.RegisterWindow("x", NewWindowedCounter(time.Second))
	r.RegisterLatency("x", NewLatencyRecorder())
	r.RegisterGaugeFunc("x", func() int64 { return 1 })
	r.Unregister("x")
	if _, ok := r.Value("x"); ok {
		t.Fatal("nil registry reported a value")
	}
	if s := r.Snapshot(); s != nil {
		t.Fatal("nil registry snapshot not nil")
	}
}
