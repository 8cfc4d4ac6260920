package core

// Ablation benchmarks for the design choices the paper (and DESIGN.md)
// call out: collect-side frame batching and the cost of at-least-once
// tracking. (The feed joint is priced by bench/'s layer replay.)

import (
	"testing"
	"time"
)

// BenchmarkFeedThroughputBatched / BenchmarkFeedThroughputUnbatched ablate
// the collect-side frame batching: 128-record frames versus single-record
// frames through a complete ingestion pipeline.
func BenchmarkFeedThroughputBatched(b *testing.B) {
	benchFeedThroughput(b, 128, "Basic")
}

// BenchmarkFeedThroughputUnbatched is the frameCap=1 ablation.
func BenchmarkFeedThroughputUnbatched(b *testing.B) {
	benchFeedThroughput(b, 1, "Basic")
}

// BenchmarkFeedThroughputAtLeastOnce ablates the §5.6 machinery: same
// pipeline as the batched run, plus tracking ids, grouped acks, and the
// replay sweeper.
func BenchmarkFeedThroughputAtLeastOnce(b *testing.B) {
	benchFeedThroughput(b, 128, "AtLeastOnce")
}

func benchFeedThroughput(b *testing.B, frameCap int, policy string) {
	h := newHarness(b, "A")
	h.remakeManager(Options{
		MetricsWindow: 200 * time.Millisecond,
		AckTimeout:    200 * time.Millisecond,
		FrameCapacity: frameCap,
	})
	ds := h.declareTweetDataset("Tweets")
	count := b.N
	if count < 100 {
		count = 100
	}
	h.declarePrimaryFeed("F", makeGen(count, 0), 1, "")
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := h.mgr.ConnectFeed("feeds", "F", "Tweets", policy); err != nil {
		b.Fatal(err)
	}
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		if h.datasetCount(ds) >= count {
			b.ReportMetric(float64(count), "records")
			return
		}
		time.Sleep(time.Millisecond)
	}
	b.Fatalf("pipeline did not drain %d records", count)
}
