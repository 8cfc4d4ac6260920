package lsm

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"
	"time"
)

// BenchmarkFlushConcurrency measures the insert-latency profile while the
// tree is forced to flush continuously: a small memtable threshold makes a
// flush due roughly every ~58 records (>1% of Puts), so the reported p99 and
// max insert latencies show whether writers pay for flush disk I/O inline
// (the seed behaviour: the Put that crossed the threshold stalled for a full
// run write + fsync) or only for the bounded memtable rotation. ns/op stays
// comparable across both designs; p99-ns and max-ns are the contended-path
// numbers the background pipeline is meant to collapse.
func BenchmarkFlushConcurrency(b *testing.B) {
	m := &Metrics{}
	tr, err := Open(Options{Dir: b.TempDir(), MemtableBytes: 16 << 10, MaxImmutables: 64, SyncWAL: 0, Metrics: m})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	val := bytes.Repeat([]byte{'v'}, 256)
	key := make([]byte, 16)
	lats := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(key[8:], uint64(i))
		start := time.Now()
		if err := tr.Put(key, val); err != nil {
			b.Fatal(err)
		}
		lats = append(lats, time.Since(start))
	}
	b.StopTimer()
	if len(lats) == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p99 := lats[len(lats)*99/100]
	if int(float64(len(lats))*0.99) < len(lats) {
		p99 = lats[int(float64(len(lats))*0.99)]
	}
	b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns")
	b.ReportMetric(float64(lats[len(lats)-1].Nanoseconds()), "max-ns")
	b.ReportMetric(float64(m.WriteStalls.Value()), "stalls")
	b.ReportMetric(float64(m.Flushes.Value()), "flushes")
	b.ReportMetric(float64(m.Merges.Value()), "merges")
}
