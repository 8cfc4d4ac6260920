package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"asterixfeeds/internal/lsm"
)

// ServiceName is the key under which each node's Manager is registered with
// its hyracks.NodeController.
const ServiceName = "storage-manager"

// Manager is a node-local storage manager: it owns every dataset partition
// hosted by one node, rooted at a per-node directory. A node may host
// several partitions of the same dataset (its own, plus replicas of other
// nodes' partitions when the dataset is replicated); partitions are keyed
// by (dataset, partition index).
type Manager struct {
	nodeID string
	dir    string
	lsmOpt lsm.Options

	mu         sync.Mutex
	partitions map[partKey]*Partition
	opening    map[partKey]*openSlot // opens in flight, same keys
	closed     bool
}

// openSlot is one partition open in flight. The map entry makes concurrent
// opens of the *same* partition coalesce onto one disk open, while opens of
// *different* partitions proceed in parallel — m.mu is never held across
// the disk I/O (WAL replay, run index loads) of openPartition.
type openSlot struct {
	done chan struct{} // closed when the open finished
	p    *Partition
	err  error
}

// NewManager creates a storage manager for node nodeID rooted at dir.
// lsmOpt.Dir is ignored; per-partition directories are derived. When
// lsmOpt.BlockCache is nil a node-wide cache of lsm.DefaultBlockCacheBytes
// is installed, so every tree on the node — primary and secondary components
// of every partition — shares one block-memory budget.
func NewManager(nodeID, dir string, lsmOpt lsm.Options) *Manager {
	if lsmOpt.BlockCache == nil {
		lsmOpt.BlockCache = lsm.NewBlockCache(lsm.DefaultBlockCacheBytes)
	}
	return &Manager{
		nodeID:     nodeID,
		dir:        dir,
		lsmOpt:     lsmOpt,
		partitions: make(map[partKey]*Partition),
		opening:    make(map[partKey]*openSlot),
	}
}

// BlockCache returns the node-wide run block cache shared by every
// partition's trees.
func (m *Manager) BlockCache() *lsm.BlockCache { return m.lsmOpt.BlockCache }

// Dir returns the manager's root directory.
func (m *Manager) Dir() string { return m.dir }

// partKey names one partition a manager holds: the dataset's qualified name
// and the partition index.
type partKey struct {
	dataset string
	idx     int
}

// OpenPartition opens (creating if needed) this node's own partition of ds:
// the partition whose index is the node's (first) position in the dataset's
// nodegroup.
func (m *Manager) OpenPartition(ds *Dataset) (*Partition, error) {
	idx := -1
	for i, n := range ds.NodeGroup {
		if n == m.nodeID {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("storage: node %s not in nodegroup of %s", m.nodeID, ds.QualifiedName())
	}
	return m.OpenPartitionIdx(ds, idx, false)
}

// OpenPartitionIdx opens (creating if needed) partition idx of ds on this
// node. replica selects a replica directory for newly created partitions;
// an already-open partition is returned regardless of how it was first
// created (a promoted replica keeps serving under the same key).
//
// The disk-bound part of an open — manifest load, run index loads, WAL
// replay — runs with m.mu released, claimed through an openSlot: opens of
// different partitions proceed concurrently (OpenPartitions fans a node's
// whole reopen across a worker pool), while racing opens of the same
// partition coalesce onto one.
func (m *Manager) OpenPartitionIdx(ds *Dataset, idx int, replica bool) (*Partition, error) {
	if idx < 0 || idx >= len(ds.NodeGroup) {
		return nil, fmt.Errorf("storage: partition index %d out of range for %s", idx, ds.QualifiedName())
	}
	key := partKey{ds.QualifiedName(), idx}
	for {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return nil, fmt.Errorf("storage: manager closed")
		}
		if p, ok := m.partitions[key]; ok {
			m.mu.Unlock()
			return p, nil
		}
		if s, ok := m.opening[key]; ok {
			// Another goroutine is already opening this partition: share
			// its outcome, success or failure, rather than racing a second
			// open of the same directory.
			m.mu.Unlock()
			<-s.done
			return s.p, s.err
		}
		s := &openSlot{done: make(chan struct{})}
		m.opening[key] = s
		m.mu.Unlock()

		prefix := "p"
		if replica {
			prefix = "r"
		}
		dir := filepath.Join(m.dir, ds.dirName(), fmt.Sprintf("%s%03d", prefix, idx))
		p, err := openPartition(ds, idx, dir, m.lsmOpt)

		m.mu.Lock()
		delete(m.opening, key)
		if err == nil && m.closed {
			// Lost the race with Close: do not install; tear down again.
			m.mu.Unlock()
			_ = p.Close()
			p, err = nil, fmt.Errorf("storage: manager closed")
		} else {
			if err == nil {
				m.partitions[key] = p
			}
			m.mu.Unlock()
		}
		s.p, s.err = p, err
		close(s.done)
		return p, err
	}
}

// waitOpening blocks until no open of key is in flight, so a removal can
// never delete a directory out from under a concurrent open.
func (m *Manager) waitOpening(key partKey) {
	for {
		m.mu.Lock()
		s, ok := m.opening[key]
		m.mu.Unlock()
		if !ok {
			return
		}
		<-s.done
	}
}

// PartitionRef names one partition a node should open: the dataset, the
// partition index, and whether this node holds it as a replica.
type PartitionRef struct {
	Dataset *Dataset
	Idx     int
	Replica bool
}

// OpenPartitions opens every referenced partition, fanning the disk-bound
// opens (manifest loads, WAL replay) across a bounded worker pool;
// workers <= 0 selects GOMAXPROCS. Every ref is attempted even after a
// failure and the first error is returned. Instance startup uses this so a
// restarted node's recovery time tracks its slowest partition, not the sum
// over all partitions.
func (m *Manager) OpenPartitions(refs []PartitionRef, workers int) error {
	if len(refs) == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(refs) {
		workers = len(refs)
	}
	var (
		wg    sync.WaitGroup
		errMu sync.Mutex
		first error
	)
	work := make(chan PartitionRef)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ref := range work {
				if _, err := m.OpenPartitionIdx(ref.Dataset, ref.Idx, ref.Replica); err != nil {
					errMu.Lock()
					if first == nil {
						first = fmt.Errorf("storage: opening %s partition %d: %w", ref.Dataset.QualifiedName(), ref.Idx, err)
					}
					errMu.Unlock()
				}
			}
		}()
	}
	for _, ref := range refs {
		work <- ref
	}
	close(work)
	wg.Wait()
	return first
}

// PartitionIdx returns the already-open partition idx of the named dataset,
// or nil.
func (m *Manager) PartitionIdx(qualifiedName string, idx int) *Partition {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.partitions[partKey{qualifiedName, idx}]
}

// Partition returns the already-open partition of the named dataset with
// the lowest index hosted on this node, or nil.
func (m *Manager) Partition(qualifiedName string) *Partition {
	m.mu.Lock()
	defer m.mu.Unlock()
	var best *Partition
	for key, p := range m.partitions {
		if key.dataset == qualifiedName && (best == nil || p.Index() < best.Index()) {
			best = p
		}
	}
	return best
}

// RemovePartitionIdx closes, forgets, and deletes from disk partition idx of
// ds on this node (replica selects the replica directory, mirroring
// OpenPartitionIdx). Recovery uses it to discard a partially-resynced
// replica copy so a retry starts from an empty tree instead of a torn one.
// Removing a partition that is not open just deletes its directory.
func (m *Manager) RemovePartitionIdx(ds *Dataset, idx int, replica bool) error {
	key := partKey{ds.QualifiedName(), idx}
	m.waitOpening(key)
	m.mu.Lock()
	p := m.partitions[key]
	delete(m.partitions, key)
	m.mu.Unlock()
	var first error
	if p != nil {
		if err := p.Close(); err != nil {
			first = err
		}
	}
	prefix := "p"
	if replica {
		prefix = "r"
	}
	dir := filepath.Join(m.dir, ds.dirName(), fmt.Sprintf("%s%03d", prefix, idx))
	if err := os.RemoveAll(dir); err != nil && first == nil {
		first = err
	}
	return first
}

// Stats aggregates LSM component statistics across every open partition on
// this node, for node-level admin gauges (memtable footprint, run counts).
func (m *Manager) Stats() lsm.Stats {
	m.mu.Lock()
	parts := make([]*Partition, 0, len(m.partitions))
	for _, p := range m.partitions {
		parts = append(parts, p)
	}
	m.mu.Unlock()
	var out lsm.Stats
	for _, p := range parts {
		out.Add(p.Stats())
	}
	return out
}

// Close closes every open partition, after waiting out any opens still in
// flight — an opener that finishes after Close tears its partition down
// itself (see OpenPartitionIdx), so by the time Close returns no file
// handles into the manager's directory remain.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	slots := make([]*openSlot, 0, len(m.opening))
	for _, s := range m.opening {
		slots = append(slots, s)
	}
	parts := make([]*Partition, 0, len(m.partitions))
	for _, p := range m.partitions {
		parts = append(parts, p)
	}
	m.mu.Unlock()
	for _, s := range slots {
		<-s.done
	}
	var first error
	for _, p := range parts {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
