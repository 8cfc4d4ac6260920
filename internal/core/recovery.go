package core

import (
	"fmt"
	"sort"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/storage"
)

// This file implements the hard-failure protocol of §6.2. On a NodeDead
// cluster event the Central Feed Manager identifies the affected ingestion
// pipelines, chooses substitute nodes, and re-schedules:
//
//   - Store node lost: the connection terminates early — without data
//     replication there is no substitute for the lost partition (§6.2.3),
//     unless the dataset's nodegroup does not include the node.
//   - Collect/intake node lost: the head is re-scheduled on a substitute
//     and every dependent tail is rebuilt against the new joints; records
//     in flight on the lost node are lost, exactly as the paper accepts.
//   - Compute node lost: only the tail is rebuilt. The source joints — and
//     crucially the subscriptions holding each connection's buffered
//     backlog — live in the surviving intake nodes' FeedManagers, so the
//     revived FeedIntake instances re-attach and adopt that parked state
//     (the "zombie" adoption of §6.2.2), minimizing data loss.
//
// Policies with recover.hard.failure=false instead terminate (§4.5).

// handleNodeDeath runs the fault-tolerance protocol for one lost node.
// Classification checks actual node liveness, not just the reported node:
// concurrent failures (the paper's t=140s scenario kills two nodes at once)
// may be reported as separate events, and a repair must not re-place tasks
// on a dead node whose event has not been processed yet.
func (m *Manager) handleNodeDeath(node string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}

	// Phase 1: rebuild affected heads on substitute nodes.
	for _, h := range m.heads {
		if !m.anyDeadLocked(h.locs) {
			continue
		}
		m.rebuildHeadLocked(h, node)
	}

	// Phase 2: classify and repair connections, parents before children so
	// a child's source joints exist by the time its tail restarts.
	conns := m.connsByDepthLocked()
	for _, conn := range conns {
		st := conn.State()
		if st != ConnConnected && st != ConnDisconnectedKeepAlive && st != ConnRecovering {
			continue
		}
		intake, compute, store := conn.Locations()
		deadStore := m.anyDeadLocked(store)
		deadIntake := m.anyDeadLocked(intake)
		deadCompute := m.anyDeadLocked(compute)
		if !deadStore && !deadIntake && !deadCompute {
			continue
		}
		if !conn.pol.RecoverHard {
			m.failConnectionLocked(conn, fmt.Errorf("core: node %s lost and policy %s forbids hard-failure recovery", node, conn.pol.Name))
			continue
		}
		if deadStore {
			if !conn.ds.Replicated {
				// Loss of a dataset partition: early termination (§6.2.3).
				m.failConnectionLocked(conn, fmt.Errorf("core: store node %s lost; dataset partition unavailable", node))
				continue
			}
			// The §9.2.2 extension: promote in-sync replicas. The node
			// hosting a lost partition's replica becomes "the preferred
			// choice for being an immediate substitute". Promotion also
			// copies the partition to its new replica, under m.mu like the
			// rest of the protocol.
			//feedlint:allow lockorder -- node-death recovery is serialized on m.mu, the replica copy's durable writes included
			if err := m.promoteReplicasLocked(conn); err != nil {
				m.failConnectionLocked(conn, fmt.Errorf("core: replica promotion failed: %w", err))
				continue
			}
		}
		conn.setState(ConnRecovering)
		repairStart := nowFunc()
		if err := m.rebuildTailLocked(conn); err != nil {
			m.failConnectionLocked(conn, fmt.Errorf("core: recovery failed: %w", err))
			continue
		}
		conn.setState(ConnConnected)
		conn.recordRecovery(sinceFunc(repairStart))
	}
}

// rebuildHeadLocked re-schedules a head whose collect node died, replacing
// dead locations with substitutes.
func (m *Manager) rebuildHeadLocked(h *headInfo, deadNode string) {
	if h.job != nil {
		h.job.Cancel()
		select {
		case <-h.job.Done():
		case <-time.After(5 * time.Second):
		}
	}
	// Remove surviving joints of the old head: pipelines will re-attach to
	// the new ones.
	m.dropProductionLocked(h.signature, "head:"+h.signature)
	newLocs := m.substituteLocsLocked(h.locs, deadNode)
	if len(newLocs) == 0 {
		return
	}
	if err := m.startHeadLocked(h, newLocs); err != nil {
		// Unable to revive the head: fail dependents.
		for id := range h.refs {
			if c, ok := m.conns[id]; ok {
				m.failConnectionLocked(c, fmt.Errorf("core: head recovery failed: %w", err))
			}
		}
	}
}

// rebuildTailLocked cancels the connection's tail job (if still up) and
// re-schedules it against the current joint locations. The desired compute
// parallelism (conn.computeCount) is preserved; startTailLocked places the
// stage exclusively on live nodes, which is what substitutes dead ones.
func (m *Manager) rebuildTailLocked(conn *Connection) error {
	conn.mu.Lock()
	job := conn.tailJob
	conn.mu.Unlock()
	if job != nil {
		job.Cancel()
		select {
		case <-job.Done():
		case <-time.After(5 * time.Second):
		}
	}
	return m.startTailLocked(conn)
}

// substituteLocsLocked replaces dead entries in locs with live substitutes,
// preferring nodes not already in the list (the CFM "chooses a node to
// substitute each failed node", §6.2.2).
func (m *Manager) substituteLocsLocked(locs []string, deadNode string) []string {
	alive := m.cluster.AliveNodes()
	if len(alive) == 0 {
		return nil
	}
	used := map[string]bool{}
	for _, l := range locs {
		used[l] = true
	}
	pick := func() string {
		for _, a := range alive {
			if !used[a] {
				used[a] = true
				return a
			}
		}
		return alive[0]
	}
	out := make([]string, 0, len(locs))
	for _, l := range locs {
		n := m.cluster.Node(l)
		if l == deadNode || n == nil || !n.Alive() {
			out = append(out, pick())
		} else {
			out = append(out, l)
		}
	}
	return out
}

// connsByDepthLocked orders connections by feed lineage depth (parents
// first).
func (m *Manager) connsByDepthLocked() []*Connection {
	type entry struct {
		c     *Connection
		depth int
	}
	var entries []entry
	for _, c := range m.conns {
		depth := 0
		if lin, err := m.catalog.FeedLineage(c.dataverse, c.feed.Name); err == nil {
			depth = len(lin)
		}
		entries = append(entries, entry{c, depth})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].depth != entries[j].depth {
			return entries[i].depth < entries[j].depth
		}
		return entries[i].c.id < entries[j].c.id
	})
	out := make([]*Connection, len(entries))
	for i, e := range entries {
		out[i] = e.c
	}
	return out
}

// failConnectionLocked is failConnection for callers already holding m.mu.
func (m *Manager) failConnectionLocked(conn *Connection, err error) {
	if st := conn.State(); st == ConnFailed || st == ConnDisconnected {
		return
	}
	conn.mu.Lock()
	conn.failure = err
	conn.mu.Unlock()
	conn.setState(ConnFailed)
	m.teardownConnLocked(conn, false)
}

// promoteReplicasLocked rewrites a replicated dataset's nodegroup so that
// each dead partition position points at its (in-sync) replica's node, then
// re-syncs new replicas from the promoted copies. The connection's tail is
// rebuilt by the caller against the updated nodegroup.
func (m *Manager) promoteReplicasLocked(conn *Connection) error {
	ds := conn.ds
	// Stop the tail first: no store task may be writing while the
	// nodegroup mutates.
	conn.mu.Lock()
	job := conn.tailJob
	conn.mu.Unlock()
	if job != nil {
		job.Cancel()
		select {
		case <-job.Done():
		case <-time.After(5 * time.Second):
		}
	}
	for i, nodeName := range ds.NodeGroup {
		n := m.cluster.Node(nodeName)
		if n != nil && n.Alive() {
			continue
		}
		replicaNode := ds.ReplicaOf(i)
		rn := m.cluster.Node(replicaNode)
		if replicaNode == "" || rn == nil || !rn.Alive() {
			return fmt.Errorf("core: partition %d of %s lost with no live replica", i, ds.QualifiedName())
		}
		ds.NodeGroup[i] = replicaNode
		// Re-establish the replication factor: copy the promoted
		// partition into a fresh replica on the next live member.
		if err := m.resyncReplicaLocked(conn, ds, i); err != nil {
			return err
		}
	}
	return nil
}

// resyncReplicaLocked copies partition i's promoted contents to its new
// replica location (the in-process stand-in for replica bootstrap).
//
// Failure handling: a missing replica target or storage manager is recorded
// as a degradation on the connection (the partition keeps serving, but
// unreplicated) instead of silently returning nil; a partial copy discards
// the torn replica directory and retries once from scratch; a second
// failure discards again and degrades. A replica that diverged from its
// primary is worse than no replica — a later promotion would serve it as
// truth — so the torn copy must never be left behind.
func (m *Manager) resyncReplicaLocked(conn *Connection, ds *storage.Dataset, i int) error {
	newReplica := ds.ReplicaOf(i)
	if newReplica == "" || newReplica == ds.NodeGroup[i] {
		conn.recordResyncDegradation(fmt.Sprintf("partition %d: no distinct replica target", i))
		return nil
	}
	rn := m.cluster.Node(newReplica)
	if rn == nil || !rn.Alive() {
		conn.recordResyncDegradation(fmt.Sprintf("partition %d: replica target %s down", i, newReplica))
		return nil
	}
	srcNode := m.cluster.Node(ds.NodeGroup[i])
	if srcNode == nil {
		return fmt.Errorf("core: promoted node %s unknown to cluster", ds.NodeGroup[i])
	}
	srcSM, _ := srcNode.Service(storage.ServiceName).(*storage.Manager)
	if srcSM == nil {
		return fmt.Errorf("core: promoted node %s has no storage manager", ds.NodeGroup[i])
	}
	dstSM, _ := rn.Service(storage.ServiceName).(*storage.Manager)
	if dstSM == nil {
		return fmt.Errorf("core: replica target %s has no storage manager", newReplica)
	}
	src, err := srcSM.OpenPartitionIdx(ds, i, false)
	if err != nil {
		return err
	}
	const attempts = 2
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		lastErr = m.copyToReplica(src, dstSM, ds, i)
		if lastErr == nil {
			return nil
		}
		// Discard the partial copy so the retry (or a later repair)
		// starts from an empty tree rather than a torn one.
		if rmErr := dstSM.RemovePartitionIdx(ds, i, true); rmErr != nil {
			return fmt.Errorf("core: discarding partial replica: %v (after copy error: %w)", rmErr, lastErr)
		}
	}
	conn.recordResyncDegradation(fmt.Sprintf("partition %d: resync to %s abandoned after %d attempts: %v", i, newReplica, attempts, lastErr))
	return nil
}

// copyToReplica scans src into a freshly opened replica partition on dstSM,
// a frame of the feed's frame capacity at a time. The "resync:insert" fault
// point, consulted once per record, lets a harness interrupt the copy
// mid-stream.
func (m *Manager) copyToReplica(src *storage.Partition, dstSM *storage.Manager, ds *storage.Dataset, i int) error {
	dst, err := dstSM.OpenPartitionIdx(ds, i, true)
	if err != nil {
		return err
	}
	frame := make([][]byte, 0, m.opt.FrameCapacity)
	var copyErr error
	scanErr := src.Scan(func(rec *adm.Record) bool {
		if m.opt.FaultHook != nil {
			if copyErr = m.opt.FaultHook("resync:insert"); copyErr != nil {
				return false
			}
		}
		frame = append(frame, adm.Encode(rec))
		if len(frame) == cap(frame) {
			copyErr = dst.InsertFrame(frame)
			frame = frame[:0]
		}
		return copyErr == nil
	})
	if copyErr != nil {
		return copyErr
	}
	if scanErr != nil {
		return scanErr
	}
	return dst.InsertFrame(frame)
}

// anyDeadLocked reports whether any listed node is currently down.
func (m *Manager) anyDeadLocked(locs []string) bool {
	for _, l := range locs {
		n := m.cluster.Node(l)
		if n == nil || !n.Alive() {
			return true
		}
	}
	return false
}

func containsStr(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
