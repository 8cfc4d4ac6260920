package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Registry is a named-metric directory: feed components register the
// counters, computed gauges, windowed counters, and latency recorders they
// own under dotted names ("feed.<conn>.collected"), and the admin endpoint
// walks it to serve snapshots. Lookups take one short mutex; the metrics
// themselves stay lock-cheap (atomics, per-metric mutexes).
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gaugeFns  map[string]func() int64
	windows   map[string]*WindowedCounter
	latencies map[string]*LatencyRecorder
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		gaugeFns:  make(map[string]func() int64),
		windows:   make(map[string]*WindowedCounter),
		latencies: make(map[string]*LatencyRecorder),
	}
}

// RegisterCounter publishes an externally-owned counter under name.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] = c
	r.mu.Unlock()
}

// RegisterWindow publishes an externally-owned windowed counter under name.
func (r *Registry) RegisterWindow(name string, w *WindowedCounter) {
	if r == nil || w == nil {
		return
	}
	r.mu.Lock()
	r.windows[name] = w
	r.mu.Unlock()
}

// RegisterLatency publishes an externally-owned latency recorder under name.
func (r *Registry) RegisterLatency(name string, l *LatencyRecorder) {
	if r == nil || l == nil {
		return
	}
	r.mu.Lock()
	r.latencies[name] = l
	r.mu.Unlock()
}

// RegisterGaugeFunc publishes a computed gauge: fn is evaluated on every
// snapshot/lookup. fn must be safe to call from any goroutine.
func (r *Registry) RegisterGaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.gaugeFns[name] = fn
	r.mu.Unlock()
}

// Unregister removes every metric whose name equals prefix or starts with
// prefix+"." — connection teardown drops its whole subtree in one call.
func (r *Registry) Unregister(prefix string) {
	if r == nil {
		return
	}
	match := func(name string) bool {
		return name == prefix || strings.HasPrefix(name, prefix+".")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name := range r.counters {
		if match(name) {
			delete(r.counters, name)
		}
	}
	for name := range r.gaugeFns {
		if match(name) {
			delete(r.gaugeFns, name)
		}
	}
	for name := range r.windows {
		if match(name) {
			delete(r.windows, name)
		}
	}
	for name := range r.latencies {
		if match(name) {
			delete(r.latencies, name)
		}
	}
}

// Value looks the named metric up as an integer: counters report their
// value, gauge funcs are evaluated, windowed counters report their
// total. ok is false for unknown names.
func (r *Registry) Value(name string) (v int64, ok bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	c := r.counters[name]
	fn := r.gaugeFns[name]
	w := r.windows[name]
	r.mu.Unlock()
	switch {
	case c != nil:
		return c.Value(), true
	case fn != nil:
		return fn(), true
	case w != nil:
		return w.Total(), true
	}
	return 0, false
}

// Sample is one named scalar in a registry snapshot.
type Sample struct {
	Name string
	Kind string // "counter", "gauge", "window", "latency"
	// Value is the integer reading: count, gauge value, or window total.
	// For latency metrics it is the sample count.
	Value int64
	// Rate is the latest completed-bucket rate (windows only).
	Rate float64
	// P50/P99/Mean are populated for latency metrics.
	P50, P99, Mean time.Duration
}

// Snapshot returns every metric's current reading, sorted by name.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Sample, 0, len(r.counters)+len(r.gaugeFns)+len(r.windows)+len(r.latencies))
	for name, c := range r.counters {
		out = append(out, Sample{Name: name, Kind: "counter", Value: c.Value()})
	}
	fns := make(map[string]func() int64, len(r.gaugeFns))
	for name, fn := range r.gaugeFns {
		fns[name] = fn
	}
	for name, w := range r.windows {
		out = append(out, Sample{Name: name, Kind: "window", Value: w.Total(), Rate: w.LatestRate()})
	}
	for name, l := range r.latencies {
		out = append(out, Sample{
			Name: name, Kind: "latency", Value: int64(l.Count()),
			P50: l.Quantile(0.5), P99: l.Quantile(0.99), Mean: l.Mean(),
		})
	}
	r.mu.Unlock()
	// Gauge funcs run outside the registry lock: they may re-enter feed
	// manager locks that in turn must never wait on a metrics lookup.
	for name, fn := range fns {
		out = append(out, Sample{Name: name, Kind: "gauge", Value: fn()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// promName maps a dotted metric name onto the Prometheus charset:
// [a-zA-Z0-9_:], everything else becomes '_'.
func promName(name string) string {
	b := []byte(name)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == ':' || c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				b[i] = '_'
			}
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// WriteProm writes the registry in the Prometheus text exposition format:
// counters as counters, gauges and window rates as gauges, windows as
// <name>_total, latency recorders as _p50/_p99/_mean seconds.
func (r *Registry) WriteProm(w io.Writer) error {
	for _, s := range r.Snapshot() {
		name := promName(s.Name)
		var err error
		switch s.Kind {
		case "counter":
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, s.Value)
		case "gauge":
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, s.Value)
		case "window":
			_, err = fmt.Fprintf(w, "# TYPE %s_total counter\n%s_total %d\n# TYPE %s_rate gauge\n%s_rate %g\n",
				name, name, s.Value, name, name, s.Rate)
		case "latency":
			_, err = fmt.Fprintf(w,
				"# TYPE %s_count counter\n%s_count %d\n# TYPE %s_p50_seconds gauge\n%s_p50_seconds %g\n# TYPE %s_p99_seconds gauge\n%s_p99_seconds %g\n# TYPE %s_mean_seconds gauge\n%s_mean_seconds %g\n",
				name, name, s.Value, name, name, s.P50.Seconds(), name, name, s.P99.Seconds(), name, name, s.Mean.Seconds())
		}
		if err != nil {
			return err
		}
	}
	return nil
}
