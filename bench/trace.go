package main

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one run
// share Run; Parent is the span that caused this one, 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Run     string `json:"run"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the tracer was made
	EndNs   int64  `json:"end_ns"`
}

// tracer collects what a traced run adds to an untraced one: the spans of
// the layer replay, kept in memory and written out at exit, and the in-run
// counts a 100 ms poller reads from the registry, the storage managers and
// the Go runtime.
type tracer struct {
	run   string
	t0    time.Time
	spans []span

	r      *rig
	stop   chan struct{}
	done   chan struct{}
	base   map[string]int64 // registry readings at the gate
	final  map[string]int64 // registry readings once flush and merge were idle
	peak   map[string]int64 // largest reading of each gauge family seen
	busy   time.Duration    // time spent polling
	gcBase float64
	gcCPU  float64 // GC CPU seconds between the gate and idle
	sent   int64   // source bytes sent between the gate and idle
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now(), peak: map[string]int64{}}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name,
		StartNs: int64(time.Since(t.t0)),
	})
	return len(t.spans)
}

// end closes span id and returns how long it lasted.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNs = int64(time.Since(t.t0))
	return time.Duration(s.EndNs - s.StartNs)
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"run": t.run, "spans": t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pollEvery is the poller's period.
const pollEvery = 100 * time.Millisecond

// gcCPUSeconds is the CPU time the Go runtime has spent collecting.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// snapshot reads every registry series into a map.
func (t *tracer) snapshot() map[string]int64 {
	out := map[string]int64{}
	for _, s := range t.r.inst.Registry().Snapshot() {
		out[s.Name] = s.Value
	}
	return out
}

// poll folds one reading into the peaks. A peak is kept per series suffix,
// summed over the nodes or connections that export it at that instant.
func (t *tracer) poll() {
	start := time.Now()
	sums := map[string]int64{}
	for name, v := range t.snapshot() {
		for _, suffix := range []string{".backlog", ".pending_acks", ".spilled_bytes", ".lsm.compaction_debt"} {
			if strings.HasSuffix(name, suffix) {
				sums[suffix] += v
			}
		}
		// Pressure does not add up across nodes: keep the worst node.
		if strings.HasSuffix(name, ".governor.pressure_permille") && v > sums[".pressure"] {
			sums[".pressure"] = v
		}
	}
	for _, node := range t.r.sp.nodes {
		if g := t.r.inst.Governor(node); g != nil {
			sums[".inflight"] += g.SourceBytes()["frames"]
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sums[".heap"] = int64(ms.HeapAlloc)
	for k, v := range sums {
		if v > t.peak[k] {
			t.peak[k] = v
		}
	}
	t.busy += time.Since(start)
}

// startPolling takes the gate's readings and starts the poller.
func (t *tracer) startPolling(r *rig) {
	t.r = r
	t.base = t.snapshot()
	t.gcBase = gcCPUSeconds()
	t.stop, t.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(t.done)
		tk := time.NewTicker(pollEvery)
		defer tk.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tk.C:
				t.poll()
			}
		}
	}()
}

// stopPolling stops the poller, waits for it, and takes the final readings.
func (t *tracer) stopPolling() {
	close(t.stop)
	<-t.done
	t.final = t.snapshot()
	t.gcCPU = gcCPUSeconds() - t.gcBase
	t.sent = t.r.src.bytes
}

// delta is how much the series ending in suffix grew between the gate and
// idle, summed over every node or connection that exports one.
func (t *tracer) delta(suffix string) float64 {
	var d int64
	for name, v := range t.final {
		if strings.HasSuffix(name, suffix) {
			d += v - t.base[name]
		}
	}
	return float64(d)
}

// finish turns the poller's readings into the run's in-run layer metrics.
func (t *tracer) finish(m *measured, z sizes, gate, idle usage) {
	v := m.values
	n := float64(z.records)
	cpu := (idle.cpu - gate.cpu).Seconds()
	v["core.backlog_max_records"] = float64(t.peak[".backlog"])
	v["core.pending_acks_max"] = float64(t.peak[".pending_acks"])
	v["core.spilled_bytes_max"] = float64(t.peak[".spilled_bytes"])
	v["core.replayed_records"] = t.delta(".replayed")
	v["governor.delays"] = t.delta(".governor.delays")
	v["governor.shed_records"] = t.delta(".governor.shed_records")
	v["governor.pressure_max_permille"] = float64(t.peak[".pressure"])
	frames, records := t.delta(".frames"), t.delta(".records")
	v["hyracks.frames_per_source_record"] = frames / n
	v["hyracks.records_per_frame"] = ratio(records, frames)
	v["hyracks.inflight_bytes_max"] = float64(t.peak[".inflight"])
	v["lsm.flushes"] = t.delta(".lsm.flushes")
	v["lsm.merges"] = t.delta(".lsm.merges")
	v["lsm.write_stalls"] = t.delta(".lsm.write_stalls")
	v["lsm.compaction_debt_max"] = float64(t.peak[".lsm.compaction_debt"])
	v["lsm.quiesce_s"] = v["driver.quiesce_s"]
	v["lsm.wal_bytes_per_source_byte"] = t.delta(".lsm.wal_bytes") / float64(t.sent)
	runs := 0
	for _, sm := range t.r.managers {
		runs += sm.Stats().Runs
	}
	v["lsm.runs_final"] = float64(runs)
	hits, misses := t.delta(".lsm.cache.hits"), t.delta(".lsm.cache.misses")
	v["lsm.cache_hit_share.run"] = ratio(hits, hits+misses)
	v["runtime.gc_cpu_share"] = t.gcCPU / cpu
	v["runtime.heap_live_max_bytes"] = float64(t.peak[".heap"])
	v["driver.trace_overhead_share"] = t.busy.Seconds() / cpu
}
