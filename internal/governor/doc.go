// Package governor implements node-wide ingestion admission control: a
// byte-accounted memory budget fed by byte sources (LSM memtable and
// immutable-queue bytes, subscription backlog and spill bytes, in-flight
// frame bytes) and pressure signals (queued flushes, compaction debt),
// arbitrating between feeds with per-connection token-bucket admissions and
// policy-declared priority classes.
//
// The paper's ingestion policies (spill/discard/throttle, §7.3) act per
// subscription; nothing arbitrates *between* feeds or bounds a node's total
// memory. The governor closes that gap: each node runs one Governor whose
// Pressure() is the maximum of tracked-bytes/budget and the registered
// signals. Under pressure, low-priority feeds are shed or metered first
// while high-priority feeds are never gated, so a sustained flood degrades
// the node gracefully instead of growing memory without bound.
//
// The package sits beside internal/metrics in the layering DAG: it imports
// only metrics, and the layers it arbitrates (core, hyracks, lsm) each
// publish the bytes they hold into an atomic counter that a registered
// source loads — the governor never walks, locks or imports them. The embedding
// instance registers each node's Governor as the "ingestion-governor" node
// service and publishes its counters as node.<n>.governor.* metric series.
package governor
