// Package lsm implements a log-structured merge tree: the storage primitive
// AsterixDB uses for dataset partitions and their indexes. Writes land in a
// WAL and an in-memory skiplist memtable; full memtables flush to sorted
// runs on disk, which a range-aware size-tiered merge policy compacts
// (pickMerge). A flush and a merge are one operation — drain a newest-wins
// merge of sorted components into one sorted segment (merge.go) — differing
// only in their inputs, in whether tombstones survive, and in where the
// segment goes: a merge's starts a new file, and so does a flush's unless
// all its keys lie above the newest run, when it is appended to that run's
// file (run.go). Every committed byte is immutable; a file only ever grows
// at its end, and the manifest records how much of it is committed, so a
// stream of ascending keys stays one run that no merge rewrites. Reads consult
// the memtables and then runs from newest to oldest, pruned by each run's key
// fences and by one kind of key filter, in every memtable and run segment.
package lsm
