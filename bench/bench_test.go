package main

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"
	"time"

	"asterixfeeds/internal/adm"
)

// TestPoolPatchesOnlyTheID checks the generator's one trick: a pooled line
// re-sent under another id differs in the id digits and nowhere else, the
// key it parses to is the key the verifier looks up, and a seed always
// renders the same bytes.
func TestPoolPatchesOnlyTheID(t *testing.T) {
	p, again := newPool(7), newPool(7)
	for slot := range p.lines {
		if !bytes.Equal(p.lines[slot], again.lines[slot]) {
			t.Fatalf("seed 7 rendered line %d differently twice", slot)
		}
	}
	if bytes.Equal(p.lines[3], newPool(8).lines[3]) {
		t.Fatal("seeds 7 and 8 rendered the same line")
	}
	before := append([]byte(nil), p.line(3, 41)...)
	after := p.line(3, 9876543210)
	if len(before) != len(after) {
		t.Fatalf("patching changed the line's length: %d to %d", len(before), len(after))
	}
	for i := range before {
		inID := i >= idOff && i < idOff+idDigits
		if !inID && before[i] != after[i] {
			t.Fatalf("byte %d outside the id changed", i)
		}
	}
	seen := map[string]bool{}
	for _, id := range []int64{0, 1, 41, poolSize, poolSize + 41, 9876543210} {
		rec, err := p.record(slotOf(id), id)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := rec.Field("id")
		if got != adm.String(keyOf(id)) {
			t.Fatalf("id %d parsed to key %v, want %q", id, got, keyOf(id))
		}
		if seen[keyOf(id)] {
			t.Fatalf("key %q was produced twice", keyOf(id))
		}
		seen[keyOf(id)] = true
	}
}

// TestScheduleDueTimes checks the open-loop schedule: record i is due at
// start + i/rate, and dueBy counts the records due at an instant.
func TestScheduleDueTimes(t *testing.T) {
	start := time.Unix(1000, 0)
	sc := schedule{start: start, rate: 8000}
	if got := sc.due(0); !got.Equal(start) {
		t.Fatalf("record 0 is due at %v, want the start", got)
	}
	if got := sc.due(8000).Sub(start); got != time.Second {
		t.Fatalf("record 8000 is due %v after the start, want 1s", got)
	}
	for _, c := range []struct {
		after time.Duration
		want  int64
	}{{-time.Millisecond, 0}, {0, 1}, {time.Millisecond, 9}, {time.Second, 8001}} {
		if got := sc.dueBy(start.Add(c.after)); got != c.want {
			t.Errorf("%v after the start %d records are due, want %d", c.after, got, c.want)
		}
	}
	// A generator that wakes 3 ms after a record was due is 3 ms late.
	woke := sc.due(16).Add(3 * time.Millisecond)
	if late := woke.Sub(sc.due(16)); late != 3*time.Millisecond {
		t.Fatalf("lateness %v, want 3ms", late)
	}
}

// TestOpenLoopCoversEveryItemOnSchedule checks that openLoop hands over
// every item exactly once, in order, never before it is due, and reports a
// lateness per tick.
func TestOpenLoopCoversEveryItemOnSchedule(t *testing.T) {
	sc := schedule{start: time.Now(), rate: 2000}
	const n = 100
	next := int64(0)
	late, err := openLoop(sc, n, func(lo, hi int64) error {
		if lo != next || hi <= lo || hi > n {
			t.Errorf("handed [%d, %d) after %d", lo, hi, next)
		}
		if early := time.Until(sc.due(hi - 1)); early > 0 {
			t.Errorf("item %d handed over %v before it was due", hi-1, early)
		}
		next = hi
		return nil
	})
	if err != nil || next != n {
		t.Fatalf("covered %d of %d items, err %v", next, n, err)
	}
	if len(late) == 0 {
		t.Fatal("no lateness was reported")
	}
	for _, d := range late {
		if d < 0 {
			t.Fatalf("a tick ran %v early", -d)
		}
	}
}

// TestLagSampler checks that lag runs from a record's due time to the poll
// that first saw the persisted count cover it.
func TestLagSampler(t *testing.T) {
	start := time.Unix(1000, 0)
	l := &lagSampler{sc: schedule{start: start, rate: 1000}, base: 50, stride: 4}
	l.seen(start.Add(10*time.Millisecond), 50) // nothing of the stream yet
	l.seen(start.Add(12*time.Millisecond), 56) // records 0..5: samples 0 and 4
	want := []time.Duration{12 * time.Millisecond, 8 * time.Millisecond}
	if len(l.lags) != len(want) || l.lags[0] != want[0] || l.lags[1] != want[1] {
		t.Fatalf("lags %v, want %v", l.lags, want)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Fatalf("quartiles of 1..3 = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

// TestSmoke runs every workload and the layer replay once at a small size
// and requires that each run is correct and that every metric
// BENCHMARK.json names comes out once with a finite value, so that the
// benchmark keeps compiling and running against the layers it times.
func TestSmoke(t *testing.T) {
	c, err := loadContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	tr := newTracer("smoke")
	layers, err := runReplay(tr, 1, 4096, filepath.Join(out, "replay"))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(specs))
	}
	for _, w := range c.Workloads {
		sp, ok := specByName(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
		z := sizes{setups: 1, preload: 20000, records: 10000, lookups: 2000}
		if sp.floodPerSec > 0 {
			z.probe = 2000
		}
		m, err := run(sp, 1, z, out, newTracer("smoke-"+sp.name))
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if m.failed != 0 {
			t.Errorf("%s: %d operations failed: %v", sp.name, m.failed, m.failures)
		}
		for k, v := range layers {
			m.values[k] = v
		}
		budget(sp, m.values, float64(z.lookups)/float64(z.records))
		for _, d := range append(append([]metricDecl(nil), c.EndToEnd...), c.PerLayer...) {
			v, ok := m.values[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: metric %s has no finite value (measured: %v, value %v)", sp.name, d.Name, ok, v)
			}
		}
		for _, d := range c.EndToEnd {
			if m.values[d.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want above 0", sp.name, d.Name, m.values[d.Name])
			}
		}
	}
	if err := tr.write(filepath.Join(out, "smoke.trace.json")); err != nil {
		t.Fatal(err)
	}
}
