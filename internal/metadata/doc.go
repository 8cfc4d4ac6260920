// Package metadata implements the AsterixDB system catalog for this
// reproduction: dataverses, datatypes, datasets, secondary indexes, feeds,
// user-defined functions, and ingestion policies (datasource adaptors are
// registered with the feed runtime, core.AdaptorRegistry). Like
// AsterixDB's Metadata dataverse, the catalog is itself record-structured
// and can be snapshotted to (and reloaded from) the metadata node's storage.
package metadata
