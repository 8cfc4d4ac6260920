// Package asterixfeeds is the public face of this repository: a Go
// reproduction of "Data Ingestion in AsterixDB" (EDBT 2015). It boots a
// simulated shared-nothing AsterixDB instance — Hyracks execution layer,
// LSM-based partitioned storage, metadata catalog, and the feed runtime that
// is the paper's contribution — and drives it with the AQL subset of the
// paper's listings.
//
// Quick start:
//
//	inst, _ := asterixfeeds.Start(asterixfeeds.Config{Nodes: []string{"A", "B"}})
//	defer inst.Close()
//	inst.MustExec(`
//	    use dataverse feeds;
//	    create type Tweet as open { id: string, message_text: string };
//	    create dataset Tweets(Tweet) primary key id;
//	    create feed TwitterFeed using tweetgen_adaptor ("rate"="1000");
//	    connect feed TwitterFeed to dataset Tweets using policy Basic;
//	`)
package asterixfeeds

import (
	"fmt"
	"os"
	"sync"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/aql"
	"asterixfeeds/internal/core"
	"asterixfeeds/internal/governor"
	"asterixfeeds/internal/hyracks"
	"asterixfeeds/internal/lsm"
	"asterixfeeds/internal/metadata"
	"asterixfeeds/internal/metrics"
	"asterixfeeds/internal/storage"
	"asterixfeeds/internal/tweetgen"
)

// Config configures an Instance. The zero value starts a single-node
// instance in a temporary directory.
type Config struct {
	// Nodes names the worker nodes; default ["nc1"].
	Nodes []string
	// DataDir roots per-node storage; default a fresh temp dir (removed
	// on Close).
	DataDir string
	// Hyracks tunes the execution layer.
	Hyracks hyracks.Config
	// Feeds tunes the Central Feed Manager.
	Feeds core.Options
	// LSM tunes the storage trees.
	LSM lsm.Options
	// Governor tunes each node's ingestion governor (memory budget,
	// observe-only mode). The zero value applies the governor defaults.
	Governor governor.Config
}

// Instance is a running simulated AsterixDB instance.
type Instance struct {
	cluster  *hyracks.Cluster
	catalog  *metadata.Catalog
	feeds    *core.Manager
	registry *metrics.Registry
	dataDir  string
	ownDir   bool
	lsmOpt   lsm.Options
	govCfg   governor.Config

	mu        sync.Mutex
	dataverse string
	closed    bool
}

// Start boots an instance: the cluster with one storage manager per node,
// the catalog, the Central Feed Manager (with TweetGen, socket, and file
// adaptors installed), and the AQL UDF compiler hook.
func Start(cfg Config) (*Instance, error) {
	nodes := cfg.Nodes
	if len(nodes) == 0 {
		nodes = []string{"nc1"}
	}
	dataDir := cfg.DataDir
	ownDir := false
	if dataDir == "" {
		d, err := os.MkdirTemp("", "asterixfeeds-*")
		if err != nil {
			return nil, err
		}
		dataDir = d
		ownDir = true
	}
	// One registry serves the whole instance (feedwatch): the feed manager
	// publishes per-connection metrics into it, and node-level LSM and
	// frame-traffic metrics land beside them, so a single /metrics endpoint
	// covers every layer.
	reg := cfg.Feeds.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
		cfg.Feeds.Registry = reg
	}
	cluster := hyracks.NewCluster(cfg.Hyracks, nodes...)
	sms := make(map[string]*storage.Manager, len(nodes))
	for _, n := range nodes {
		sms[n] = startNode(reg, cluster.Node(n), nodeDir(dataDir, n), cfg.LSM, cfg.Governor)
	}
	// Reload a previously persisted catalog (metadata survives restarts
	// just as stored data does). Absent or unreadable images start fresh.
	catalog := metadata.NewCatalog()
	if img, err := os.ReadFile(catalogPath(dataDir)); err == nil {
		if restored, err := metadata.LoadCatalog(img); err == nil {
			catalog = restored
		} else {
			cluster.Close()
			return nil, fmt.Errorf("asterixfeeds: corrupt catalog image: %w", err)
		}
	}
	// Reopen every recovered dataset partition now, fanned across a bounded
	// worker pool per node, so restart cost tracks the slowest partition's
	// recovery rather than the sum — and so recovery failures surface here,
	// at Start, instead of on the first post-restart insert.
	for _, n := range nodes {
		var refs []storage.PartitionRef
		for _, ds := range catalog.Datasets() {
			for i, host := range ds.NodeGroup {
				if host == n {
					refs = append(refs, storage.PartitionRef{Dataset: ds, Idx: i})
				}
				if ds.Replicated && ds.ReplicaOf(i) == n {
					refs = append(refs, storage.PartitionRef{Dataset: ds, Idx: i, Replica: true})
				}
			}
		}
		if err := sms[n].OpenPartitions(refs, 0); err != nil {
			cluster.Close()
			return nil, fmt.Errorf("asterixfeeds: recovering node %s storage: %w", n, err)
		}
	}
	feeds := core.NewManager(cluster, catalog, cfg.Feeds)
	tweetgen.RegisterAdaptor(feeds.Adaptors())

	inst := &Instance{
		cluster:   cluster,
		catalog:   catalog,
		feeds:     feeds,
		registry:  reg,
		dataDir:   dataDir,
		ownDir:    ownDir,
		lsmOpt:    cfg.LSM,
		govCfg:    cfg.Governor,
		dataverse: "Default",
	}
	catalog.CreateDataverse("Default") //nolint:errcheck // always succeeds
	feeds.SetAQLCompiler(inst.compileAQLFunction)
	return inst, nil
}

func nodeDir(root, node string) string { return root + "/" + node }

// startNode gives node n its services: a storage manager whose trees all
// share one private lsm.Metrics, published under "node.<name>.lsm.*", and
// the ingestion governor (core.NewNodeGovernor), published under
// "node.<name>.governor.*". The node's frame traffic, counted by the node
// itself, is published as "node.<name>.frames" and "node.<name>.records".
func startNode(reg *metrics.Registry, n *hyracks.NodeController, dir string, lsmOpt lsm.Options, govCfg governor.Config) *storage.Manager {
	name := n.ID()
	reg.RegisterCounter("node."+name+".frames", &n.Frames)
	reg.RegisterCounter("node."+name+".records", &n.Records)
	lm := &lsm.Metrics{BlockReadLatency: metrics.NewLatencyRecorder()}
	lsmOpt.Metrics = lm
	sm := storage.NewManager(name, dir, lsmOpt)
	n.SetService(storage.ServiceName, sm)
	p := "node." + name + ".lsm"
	reg.RegisterCounter(p+".wal_appends", &lm.WALAppends)
	reg.RegisterCounter(p+".wal_bytes", &lm.WALBytes)
	reg.RegisterCounter(p+".wal_syncs", &lm.WALSyncs)
	reg.RegisterCounter(p+".flushes", &lm.Flushes)
	reg.RegisterCounter(p+".flushed_entries", &lm.FlushedEntries)
	reg.RegisterCounter(p+".extends", &lm.Extends)
	reg.RegisterCounter(p+".merges", &lm.Merges)
	reg.RegisterCounter(p+".merged_entries", &lm.MergedEntries)
	reg.RegisterCounter(p+".stale_dropped", &lm.StaleDropped)
	reg.RegisterCounter(p+".block_reads", &lm.BlockReads)
	reg.RegisterLatency(p+".block_read", lm.BlockReadLatency)
	reg.RegisterCounter(p+".write_stalls", &lm.WriteStalls)
	// Recovery observability: WAL records replayed by tree opens on this
	// node, wall-clock recovery time, and durable manifest rewrites. After a
	// restart with a clean checkpoint, recovery_replayed_records stays 0.
	reg.RegisterCounter(p+".recovery_replayed_records", &lm.RecoveryReplayed)
	reg.RegisterCounter(p+".recovery_ms", &lm.RecoveryMillis)
	reg.RegisterCounter(p+".manifest_rewrites", &lm.ManifestRewrites)
	// The node-wide block cache (installed by NewManager when the caller
	// supplied none): hits vs misses give the read path's memory-speed
	// fraction, bytes tracks residency against the fixed capacity, and
	// buffer_allocs — the buffers point reads could not borrow back from
	// evicted blocks — is flat once the cache is full, but for a step after
	// each merge.
	if bc := sm.BlockCache(); bc != nil {
		reg.RegisterGaugeFunc(p+".cache.hits", func() int64 { return bc.Stats().Hits })
		reg.RegisterGaugeFunc(p+".cache.misses", func() int64 { return bc.Stats().Misses })
		reg.RegisterGaugeFunc(p+".cache.evictions", func() int64 { return bc.Stats().Evictions })
		reg.RegisterGaugeFunc(p+".cache.bytes", func() int64 { return bc.Stats().Bytes })
		reg.RegisterGaugeFunc(p+".cache.buffer_allocs", func() int64 { return bc.Stats().BufferAllocs })
	}
	reg.RegisterGaugeFunc(p+".memtable_bytes", lm.MemtableBytes.Value)
	reg.RegisterGaugeFunc(p+".memtable_entries", func() int64 { return int64(sm.Stats().MemtableEntries) })
	reg.RegisterGaugeFunc(p+".runs", func() int64 { return int64(sm.Stats().Runs) })
	reg.RegisterGaugeFunc(p+".segments", func() int64 { return int64(sm.Stats().Segments) })
	// What the merge policy acts on: the most runs whose key ranges cover one
	// key, in the node's worst tree. runs can grow with the data; this cannot
	// stay above MaxRuns.
	reg.RegisterGaugeFunc(p+".read_depth", func() int64 { return int64(sm.Stats().ReadDepth) })
	// Background-pipeline health: queued frozen memtables waiting on the
	// flusher and merge work the policy has picked but the compactor has not
	// done. Both are bounded by design; sustained non-zero values mean the
	// disk cannot keep up with the ingest rate.
	reg.RegisterGaugeFunc(p+".immutables", lm.Immutables.Value)
	reg.RegisterGaugeFunc(p+".compaction_debt", lm.CompactionDebt.Value)

	g := core.NewNodeGovernor(n, lm, govCfg)
	p = "node." + name + ".governor"
	reg.RegisterGaugeFunc(p+".budget_bytes", g.Budget)
	reg.RegisterGaugeFunc(p+".tracked_bytes", g.TrackedBytes)
	reg.RegisterGaugeFunc(p+".pressure_permille", func() int64 { return int64(g.Pressure() * 1000) })
	reg.RegisterCounter(p+".admitted_bytes", &g.AdmittedBytes)
	reg.RegisterCounter(p+".admitted_records", &g.AdmittedRecords)
	reg.RegisterCounter(p+".shed_frames", &g.ShedFrames)
	reg.RegisterCounter(p+".shed_records", &g.ShedRecords)
	reg.RegisterCounter(p+".delays", &g.Delays)
	reg.RegisterCounter(p+".elastic_vetoes", &g.ElasticVetoes)
	return sm
}

func catalogPath(root string) string { return root + "/catalog.adm" }

// saveCatalog snapshots the catalog to disk (best effort; called after DDL
// statements and on Close).
func (in *Instance) saveCatalog() error {
	img, err := in.catalog.Marshal()
	if err != nil {
		return err
	}
	tmp := catalogPath(in.dataDir) + ".tmp"
	if err := os.WriteFile(tmp, img, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, catalogPath(in.dataDir))
}

// Cluster exposes the execution layer (node management, failure injection).
func (in *Instance) Cluster() *hyracks.Cluster { return in.cluster }

// Catalog exposes the metadata catalog.
func (in *Instance) Catalog() *metadata.Catalog { return in.catalog }

// Feeds exposes the Central Feed Manager (connections, adaptor and function
// registries).
func (in *Instance) Feeds() *core.Manager { return in.feeds }

// Registry exposes the instance's named-metric registry: per-connection feed
// metrics plus node-level LSM and frame-traffic metrics. Never nil.
func (in *Instance) Registry() *metrics.Registry { return in.registry }

// Dataverse reports the session's active dataverse.
func (in *Instance) Dataverse() string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.dataverse
}

// AddNode joins a new worker node (with storage) to the running instance.
func (in *Instance) AddNode(name string) error {
	n, err := in.cluster.AddNode(name)
	if err != nil {
		return err
	}
	startNode(in.registry, n, nodeDir(in.dataDir, name), in.lsmOpt, in.govCfg)
	return nil
}

// Governor returns the named node's ingestion governor, or nil for an
// unknown node.
func (in *Instance) Governor(node string) *governor.Governor {
	n := in.cluster.Node(node)
	if n == nil {
		return nil
	}
	g, _ := n.Service(governor.ServiceName).(*governor.Governor)
	return g
}

// KillNode injects a hard failure of the named node.
func (in *Instance) KillNode(name string) error { return in.cluster.KillNode(name) }

// StorageManager returns the named node's storage manager.
func (in *Instance) StorageManager(node string) (*storage.Manager, error) {
	n := in.cluster.Node(node)
	if n == nil {
		return nil, fmt.Errorf("asterixfeeds: unknown node %q", node)
	}
	sm, _ := n.Service(storage.ServiceName).(*storage.Manager)
	if sm == nil {
		return nil, fmt.Errorf("asterixfeeds: node %q has no storage manager", node)
	}
	return sm, nil
}

// ScanDataset streams every record of the named dataset in the active
// dataverse, across all live partitions. It implements aql.DataSource.
func (in *Instance) ScanDataset(name string, fn func(*adm.Record) bool) error {
	ds, ok := in.catalog.Dataset(in.Dataverse(), name)
	if !ok {
		return fmt.Errorf("asterixfeeds: unknown dataset %s", name)
	}
	for i, node := range ds.NodeGroup {
		nc := in.cluster.Node(node)
		if nc == nil || !nc.Alive() {
			continue
		}
		sm, _ := nc.Service(storage.ServiceName).(*storage.Manager)
		if sm == nil {
			continue
		}
		p, err := sm.OpenPartitionIdx(ds, i, false)
		if err != nil {
			return err
		}
		stop := false
		err = p.Scan(func(rec *adm.Record) bool {
			if !fn(rec) {
				stop = true
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// DatasetCount reports the number of live records in the named dataset in
// the active dataverse.
func (in *Instance) DatasetCount(name string) (int, error) {
	n := 0
	err := in.ScanDataset(name, func(*adm.Record) bool { n++; return true })
	return n, err
}

// compileAQLFunction is the core.AQLCompiler hook: stored AQL UDFs compile
// against this instance's datasets and functions.
func (in *Instance) compileAQLFunction(decl *metadata.FunctionDecl) (core.RecordFunction, error) {
	resolver := func(name string) (*metadata.FunctionDecl, bool) {
		return in.catalog.Function(decl.Dataverse, name)
	}
	return aql.CompileFunction(decl, in, resolver)
}

// Close shuts the instance down, closing feeds, jobs, and storage. The data
// directory is removed only if the instance created it.
func (in *Instance) Close() error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return nil
	}
	in.closed = true
	in.mu.Unlock()

	in.saveCatalog() //nolint:errcheck // best effort on shutdown
	in.feeds.Close()
	in.cluster.Close()
	var first error
	for _, n := range in.cluster.AllNodes() {
		if sm, err := in.StorageManager(n); err == nil {
			if err := sm.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if in.ownDir {
		os.RemoveAll(in.dataDir)
	}
	return first
}
