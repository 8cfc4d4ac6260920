// Package lsm implements a log-structured merge tree: the storage primitive
// AsterixDB uses for dataset partitions and their indexes. Writes land in a
// WAL and an in-memory skiplist memtable; full memtables flush to immutable
// sorted runs on disk, which a range-aware size-tiered merge policy compacts
// (pickMerge). A flush and a merge are one operation — drain a newest-wins
// merge of sorted components into a new run (merge.go) — differing only in
// their inputs and in whether tombstones survive. Reads consult the memtable
// and then runs from newest to oldest, pruned by each run's key fences and
// bloom filter.
package lsm
