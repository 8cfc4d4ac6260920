package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// This file renders experiment results as the textual tables and series the
// paper reports, for cmd/feedbench output and EXPERIMENTS.md.

// RenderTable51 prints Table 5.1's rows.
func RenderTable51(w io.Writer, rows []Table51Row) {
	fmt.Fprintln(w, "Table 5.1 — Execution time for different methods for insertion of records")
	fmt.Fprintf(w, "%-36s %20s %12s\n", "Method", "Avg time/record (ms)", "Set-up (ms)")
	for _, r := range rows {
		setup := "-"
		if r.SetupMs > 0 {
			setup = fmt.Sprintf("%.3f", r.SetupMs)
		}
		fmt.Fprintf(w, "%-36s %20.3f %12s\n", r.Method, r.AvgMsPerRecord, setup)
	}
}

// RenderFig513 prints Figure 5.13's bars.
func RenderFig513(w io.Writer, rows []Fig513Row) {
	fmt.Fprintln(w, "Figure 5.13 — Records persisted: Cascade vs Independent network")
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s %9s %10s\n",
		"%OVERLAP", "Casc FeedA", "Indep FeedA", "Casc FeedB", "Indep FeedB", "GainB", "TotalGain")
	for _, r := range rows {
		gainB := ratio(r.CascadeB, r.IndependentB)
		gainTotal := ratio(r.CascadeA+r.CascadeB, r.IndependentA+r.IndependentB)
		fmt.Fprintf(w, "%-10d %12d %12d %12d %12d %8.2fx %9.2fx\n",
			r.OverlapPct, r.CascadeA, r.IndependentA, r.CascadeB, r.IndependentB, gainB, gainTotal)
	}
	fmt.Fprintln(w, "(TotalGain grows with %OVERLAP: more of the computation is shared once)")
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// RenderFig516 prints Figure 5.16's scalability points.
func RenderFig516(w io.Writer, rows []Fig516Row) {
	fmt.Fprintln(w, "Figure 5.16 — Records ingested vs cluster size (offered load constant)")
	fmt.Fprintf(w, "%-14s %12s %14s %10s\n", "Cluster size", "Persisted", "Offered(tw/s)", "Scaleup")
	var base float64
	for i, r := range rows {
		if i == 0 {
			base = float64(r.Persisted) / float64(r.ClusterSize)
		}
		scaleup := 0.0
		if base > 0 {
			scaleup = float64(r.Persisted) / base
		}
		fmt.Fprintf(w, "%-14d %12d %14d %9.2fx\n", r.ClusterSize, r.Persisted, r.OfferedAggregate, scaleup)
	}
}

// RenderFig65 prints Figure 6.5's throughput timelines.
func RenderFig65(w io.Writer, r *Fig65Result) {
	fmt.Fprintln(w, "Figure 6.5 — Instantaneous ingestion throughput with interim hardware failures")
	fmt.Fprintf(w, "window=%v; failure 1 at window %d (compute node), failure 2 at window %d (intake+compute)\n",
		r.Window, r.Failure1Window, r.Failure2Window)
	fmt.Fprintf(w, "recovery times: %v and %v\n", r.Recovery1.Round(time.Millisecond), r.Recovery2.Round(time.Millisecond))
	renderSeries(w, "TweetGenFeed (primary)   ", r.PrimarySeries, r.Window)
	renderSeries(w, "ProcessedTweetGenFeed    ", r.SecondarySeries, r.Window)
	fmt.Fprintf(w, "totals: primary=%d secondary=%d\n", r.PrimaryTotal, r.SecondaryTotal)
}

// RenderPolicies prints the per-policy behaviour (Figures 7.3-7.8).
func RenderPolicies(w io.Writer, rows []PolicyRunResult) {
	fmt.Fprintln(w, "Figures 7.3–7.8 — Ingestion policies under a square-wave arrival rate")
	for _, r := range rows {
		fmt.Fprintf(w, "\n[%s] persisted=%d discarded=%d throttled=%d spilled=%d compute=%d latency p50=%v p99=%v\n",
			r.Policy, r.PersistedTotal, r.Discarded, r.ThrottledOut, r.Spilled, r.FinalComputeCount,
			r.LatencyP50.Round(time.Millisecond), r.LatencyP99.Round(time.Millisecond))
		renderSeries(w, "admitted ", r.ArrivalSeries, r.Window)
		renderSeries(w, "persisted", r.PersistedSeries, r.Window)
		for _, ev := range r.ElasticEvents {
			fmt.Fprintf(w, "  elastic: %s\n", ev)
		}
	}
}

// RenderPatterns prints the Figures 7.9/7.10 gap statistics.
func RenderPatterns(w io.Writer, rows []PatternResult) {
	fmt.Fprintln(w, "Figures 7.9/7.10 — Handling of excess records: persisted-record patterns")
	fmt.Fprintf(w, "%-10s %10s %10s %8s %10s %12s\n",
		"Policy", "Emitted", "Persisted", "Gaps", "MaxGap", "MeanGap")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10d %10d %8d %10d %12.1f\n",
			r.Policy, r.Emitted, r.Persisted, r.GapCount, r.MaxGapLen, r.MeanGapLen)
	}
	fmt.Fprintln(w, "(Discard: few long gaps — contiguous discontinuity; Throttle: many short gaps — uniform sampling)")
}

// RenderStormMongo prints one Figure 7.11/7.12 run.
func RenderStormMongo(w io.Writer, r *StormMongoResult) {
	which := "Figure 7.12 — Storm+MongoDB, non-durable writes"
	if r.Durable {
		which = "Figure 7.11 — Storm+MongoDB, durable writes"
	}
	fmt.Fprintln(w, which)
	fmt.Fprintf(w, "inserted=%d emitted=%d replayed/failed=%d\n", r.PersistedTotal, r.Emitted, r.Failed)
	renderSeries(w, "persisted", r.PersistedSeries, r.Window)
}

// renderSeries prints a count series as rates with a small ASCII sparkline.
func renderSeries(w io.Writer, label string, series []int64, window time.Duration) {
	rates := seriesToRates(series, window)
	var max float64
	for _, r := range rates {
		if r > max {
			max = r
		}
	}
	marks := []rune("▁▂▃▄▅▆▇█")
	var spark strings.Builder
	for _, r := range rates {
		idx := 0
		if max > 0 {
			idx = int(r / max * float64(len(marks)-1))
		}
		spark.WriteRune(marks[idx])
	}
	fmt.Fprintf(w, "  %s |%s| peak %.0f rec/s\n", label, spark.String(), max)
}
