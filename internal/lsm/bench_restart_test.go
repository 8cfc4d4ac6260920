package lsm

import (
	"fmt"
	"testing"
)

// BenchmarkRestart measures a cold Open — the restart cost the manifest is
// designed to bound. Each size is the tree's flushed history; the unflushed
// WAL tail is fixed at restartTail records. With the manifest, recovery
// work is proportional to the tail alone, so ns/op and replayed-records/op
// should stay flat as history grows; a recovery that rescans or replays
// history shows up as ns/op scaling with the size.
//
// Runs in `make bench-smoke` (-benchtime=1x) as the bounded-recovery
// regression gate: replayed-records/op must equal restartTail at every
// history size.
func BenchmarkRestart(b *testing.B) {
	const restartTail = 200
	for _, history := range []int{1000, 5000, 20000} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			dir := b.TempDir()
			tr, err := Open(Options{Dir: dir, SyncWAL: 0})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < history; i++ {
				if err := tr.Put([]byte(fmt.Sprintf("key-%08d", i)), []byte("v")); err != nil {
					b.Fatal(err)
				}
			}
			if err := tr.Flush(); err != nil { // checkpoint: history lives in runs
				b.Fatal(err)
			}
			for i := history; i < history+restartTail; i++ {
				if err := tr.Put([]byte(fmt.Sprintf("key-%08d", i)), []byte("v")); err != nil {
					b.Fatal(err)
				}
			}
			if err := tr.Close(); err != nil {
				b.Fatal(err)
			}

			m := &Metrics{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t2, err := Open(Options{Dir: dir, Metrics: m})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := t2.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.StopTimer()
			replayed := float64(m.RecoveryReplayed.Value()) / float64(b.N)
			b.ReportMetric(replayed, "replayed-records/op")
			if replayed != restartTail {
				b.Fatalf("replayed %.0f records per open; want exactly the %d-record tail", replayed, restartTail)
			}
		})
	}
}

// BenchmarkReopenSegments prices what a run of many segments costs at Open:
// one header read and one index-and-filter read per segment, against the same
// records merged into one segment (Tree.Merge). 1 000 flushes of 64 KiB each.
func BenchmarkReopenSegments(b *testing.B) {
	const segments, perSegment = 1000, 400
	val := make([]byte, 140)
	for _, merged := range []bool{false, true} {
		b.Run(fmt.Sprintf("segments=%d/merged=%v", segments, merged), func(b *testing.B) {
			dir := b.TempDir()
			tr, err := Open(Options{Dir: dir, SyncWAL: 0})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < segments*perSegment; i++ {
				if err := tr.Put([]byte(fmt.Sprintf("key-%08d", i)), val); err != nil {
					b.Fatal(err)
				}
				if i%perSegment == perSegment-1 {
					if err := tr.Flush(); err != nil {
						b.Fatal(err)
					}
				}
			}
			if merged {
				if err := tr.Merge(); err != nil {
					b.Fatal(err)
				}
			}
			st := tr.Stats()
			if want := map[bool]int{false: segments, true: 1}[merged]; st.Runs != 1 || st.Segments != want {
				b.Fatalf("%d runs, %d segments; want 1 run of %d", st.Runs, st.Segments, want)
			}
			if err := tr.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t2, err := Open(Options{Dir: dir})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := t2.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
