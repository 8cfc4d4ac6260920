package metrics

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// nowFunc is the package's clock. Tests and deterministic harnesses may
// swap it; production uses the real clock.
var nowFunc = time.Now

// DefaultWindowBuckets is the bucket capacity of NewWindowedCounter: with
// the default 500ms width it retains a little over four minutes of history,
// and the experiment harness's scaled-down runs (50–250ms windows over a few
// seconds) fit entirely inside it, preserving the full-Series contract.
const DefaultWindowBuckets = 512

// WindowedCounter counts events into fixed-width time buckets, producing an
// instantaneous-throughput series. It retains at most its capacity in
// buckets: older buckets are evicted as time advances, so memory stays
// constant no matter how long the counter lives, and a single far-future
// timestamp costs O(capacity), not O(distance).
type WindowedCounter struct {
	mu    sync.Mutex
	start time.Time
	width time.Duration
	cap   int
	// buckets is a ring: it grows by append until it reaches cap and is
	// fixed-size thereafter. head indexes the logically-first (oldest)
	// retained bucket; base is that bucket's absolute index since start.
	buckets []int64
	head    int
	base    int64
	total   int64
}

// NewWindowedCounter creates a counter with the given bucket width and the
// default capacity, starting now.
func NewWindowedCounter(width time.Duration) *WindowedCounter {
	return NewWindowedCounterCap(width, DefaultWindowBuckets)
}

// NewWindowedCounterCap creates a counter retaining at most capacity
// buckets.
func NewWindowedCounterCap(width time.Duration, capacity int) *WindowedCounter {
	if capacity < 1 {
		capacity = 1
	}
	return &WindowedCounter{start: nowFunc(), width: width, cap: capacity}
}

// Add counts n events at the current time.
func (w *WindowedCounter) Add(n int64) { w.AddAt(nowFunc(), n) }

// AddAt counts n events at time t. Events older than the retained window
// (including events before start) are clamped into the oldest bucket.
func (w *WindowedCounter) AddAt(t time.Time, n int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	idx := int64(t.Sub(w.start) / w.width)
	if idx < w.base {
		idx = w.base
	}
	last := w.base + int64(len(w.buckets)) - 1
	if idx > last {
		adv := idx - last
		// Grow until the ring reaches capacity.
		for adv > 0 && len(w.buckets) < w.cap {
			w.buckets = append(w.buckets, 0)
			adv--
		}
		if adv >= int64(w.cap) {
			// The jump skips the whole retained window: every bucket is
			// evicted at once. O(cap) regardless of the jump distance.
			clear(w.buckets)
			w.head = 0
			w.base = idx - int64(w.cap) + 1
		} else {
			for ; adv > 0; adv-- {
				w.buckets[w.head] = 0
				w.head = (w.head + 1) % w.cap
				w.base++
			}
		}
	}
	slot := (w.head + int(idx-w.base)) % len(w.buckets)
	w.buckets[slot] += n
	w.total += n
}

// Total reports the total event count, including evicted buckets.
func (w *WindowedCounter) Total() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.total
}

// Series returns a copy of the retained per-bucket counts, oldest first.
// Until the counter outlives its capacity this is the full series since
// start, bucket i covering [start+i*width, start+(i+1)*width).
func (w *WindowedCounter) Series() []int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]int64, len(w.buckets))
	for i := range w.buckets {
		out[i] = w.buckets[(w.head+i)%len(w.buckets)]
	}
	return out
}

// Rates returns the retained per-bucket event rates in events/second.
func (w *WindowedCounter) Rates() []float64 {
	series := w.Series()
	out := make([]float64, len(series))
	secs := w.width.Seconds()
	for i, n := range series {
		out[i] = float64(n) / secs
	}
	return out
}

// LatestRate returns the rate (events/second) of the most recent completed
// bucket — the second-to-last entry of Rates, since the final bucket is
// still filling. Returns 0 with fewer than two buckets.
func (w *WindowedCounter) LatestRate() float64 {
	rates := w.Rates()
	if len(rates) < 2 {
		return 0
	}
	return rates[len(rates)-2]
}

// DefaultReservoirCap is the sample capacity of NewLatencyRecorder.
const DefaultReservoirCap = 1024

// LatencyRecorder accumulates durations and reports order statistics. It
// bounds memory with reservoir sampling (Vitter's algorithm R): up to its
// capacity every sample is kept and quantiles are exact; beyond it each new
// sample replaces a uniformly-chosen slot, so the reservoir stays a uniform
// sample of the whole stream. The sorted view is cached between Records, so
// repeated Quantile calls cost O(1) after one O(cap log cap) sort.
type LatencyRecorder struct {
	mu      sync.Mutex
	cap     int
	samples []time.Duration
	seen    int64         // total samples recorded
	sum     time.Duration // exact running sum (Mean is exact)
	rnd     *rand.Rand
	sorted  []time.Duration
	dirty   bool
}

// NewLatencyRecorder creates an empty recorder with the default capacity.
func NewLatencyRecorder() *LatencyRecorder { return NewLatencyRecorderCap(DefaultReservoirCap) }

// NewLatencyRecorderCap creates an empty recorder keeping at most capacity
// samples.
func NewLatencyRecorderCap(capacity int) *LatencyRecorder {
	if capacity < 1 {
		capacity = 1
	}
	return &LatencyRecorder{
		cap: capacity,
		// A fixed seed keeps chaos/experiment runs deterministic; the
		// reservoir only needs uniformity, not unpredictability.
		rnd: rand.New(rand.NewSource(0x5eed)),
	}
}

// Record adds one sample.
func (l *LatencyRecorder) Record(d time.Duration) {
	l.mu.Lock()
	l.seen++
	l.sum += d
	if len(l.samples) < l.cap {
		l.samples = append(l.samples, d)
		l.dirty = true
	} else if j := l.rnd.Int63n(l.seen); j < int64(l.cap) {
		l.samples[j] = d
		l.dirty = true
	}
	l.mu.Unlock()
}

// Count reports the number of samples recorded (not just retained).
func (l *LatencyRecorder) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.seen)
}

// sortedLocked returns the cached sorted view, rebuilding it if stale.
func (l *LatencyRecorder) sortedLocked() []time.Duration {
	if l.dirty {
		l.sorted = append(l.sorted[:0], l.samples...)
		sort.Slice(l.sorted, func(i, j int) bool { return l.sorted[i] < l.sorted[j] })
		l.dirty = false
	}
	return l.sorted
}

// Quantile returns the q-th (0..1) order statistic of the retained sample,
// or 0 with no samples. Exact while the sample count is within capacity.
func (l *LatencyRecorder) Quantile(q float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	sorted := l.sortedLocked()
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Mean returns the exact average over every recorded sample, or 0 with no
// samples.
func (l *LatencyRecorder) Mean() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen == 0 {
		return 0
	}
	return l.sum / time.Duration(l.seen)
}

// Counter is a monotonic counter, safe for concurrent use. The zero value
// is ready to use; Add is a single atomic instruction.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.n.Add(n) }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is an instantaneous value moved by deltas, safe for concurrent
// use. The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reports the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }
