// Package storage implements AsterixDB's dataset layer: hash-partitioned
// datasets stored as LSM B+-trees, one partition per nodegroup member, with
// optional LSM-based secondary indexes (B-tree on any field, grid-based
// R-tree for spatial points). Inserting a frame of records updates the
// primary index and all secondaries under the partition's write-ahead logs,
// one batch per index, giving the atomicity described in §5.3 of the paper.
package storage
