package lsm

import "asterixfeeds/internal/metrics"

// Metrics aggregates LSM lifecycle counters across every tree that shares
// it. All fields are lock-free atomic counters, so a single Metrics value
// is typically attached to every tree on a node (primary and secondary
// components of every partition) and read by an admin endpoint while the
// trees are hot. A nil Metrics (the default) keeps the write path
// uninstrumented.
type Metrics struct {
	// WALAppends counts WAL records written; a group-committed batch
	// counts once, matching its single CRC and (at most) single fsync.
	WALAppends metrics.Counter
	// WALBytes counts encoded bytes appended to the WAL, CRC included.
	WALBytes metrics.Counter
	// WALSyncs counts fsyncs issued by the group-commit policy.
	WALSyncs metrics.Counter
	// Flushes counts memtable-to-run flushes; FlushedEntries the entries
	// they wrote; Extends the flushes among them that added their segment to
	// the end of the newest run's file instead of starting a new file.
	Flushes        metrics.Counter
	FlushedEntries metrics.Counter
	Extends        metrics.Counter
	// Merges counts background merges, whatever window of runs each took;
	// MergedEntries the entries they read (the inputs' totals, shadowed
	// versions and tombstones included), so
	// MergedEntries / FlushedEntries is the write amplification: how many
	// times the average flushed entry has been rewritten.
	Merges        metrics.Counter
	MergedEntries metrics.Counter
	// StaleDropped counts the live entries merges left out because the
	// tree's merge filter called them stale (Options.Stale).
	StaleDropped metrics.Counter
	// BlockReads counts run blocks read from disk (ReadAt calls on the read
	// path). Cache hits do not count — the gap between lookups and
	// BlockReads is exactly the cache's work, which is how the read-path
	// benchmarks assert that hot gets issue zero disk reads.
	BlockReads metrics.Counter
	// BlockReadLatency, when non-nil, records the duration of each of those
	// reads: the ReadAt alone, so a miss that faults in fresh memory shows
	// as a second mode.
	BlockReadLatency *metrics.LatencyRecorder
	// WriteStalls counts writer stall episodes: a mutation arrived while
	// the memtable was full and MaxImmutables flushes were already queued,
	// so the writer blocked until the background flusher caught up. This
	// is the tree's bounded-backpressure signal — a rising rate means the
	// flusher (i.e. the disk) cannot keep up with ingestion.
	WriteStalls metrics.Counter
	// RecoveryReplayed counts WAL records replayed by Open. After a clean
	// checkpoint (Flush then Close) a reopen adds zero — the bounded-
	// recovery guarantee BenchmarkRestart measures: replay work is
	// proportional to the post-checkpoint WAL tail, never total history.
	RecoveryReplayed metrics.Counter
	// RecoveryMillis accumulates wall-clock milliseconds Open spent
	// rebuilding state: manifest load, run opens, debris sweep, replay.
	RecoveryMillis metrics.Counter
	// ManifestRewrites counts manifest snapshot writes (temp + rename):
	// one per Open plus one each time manifestRewriteEvery edits fold
	// into a fresh snapshot.
	ManifestRewrites metrics.Counter
	// MemtableBytes, Immutables and CompactionDebt are the sums, over the
	// open trees sharing this Metrics, of the Stats fields of the same
	// names. Each tree pushes the change in its own share whenever that
	// share changes and withdraws it on Close, so a reader — the node
	// governor, on every offered frame — loads three words instead of
	// locking every tree.
	MemtableBytes  metrics.Gauge
	Immutables     metrics.Gauge
	CompactionDebt metrics.Gauge
}
