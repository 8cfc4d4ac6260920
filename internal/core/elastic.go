package core

import (
	"fmt"
	"time"
)

// This file implements the Elastic policy (§7.3.5): the Central Feed
// Manager monitors each elastic connection's intake backlog and, on
// sustained excess, re-structures the pipeline with a larger compute stage
// (scale-out); a persistently idle backlog shrinks it again (scale-in).
// Re-structuring cancels and re-schedules the tail job; the feed joints and
// their subscriptions survive in the FeedManagers, so the revived intake
// adopts the buffered backlog and no record still in a subscription is
// lost. Records the canceled tail had already taken — between intake and
// store — are lost unless the policy is at-least-once, whose tracker
// replays them.

const (
	// scaleOutAfter is how many consecutive over-budget observations
	// trigger a scale-out.
	scaleOutAfter = 3
	// scaleInAfter is how many consecutive near-idle observations trigger
	// a scale-in.
	scaleInAfter = 20
)

// elasticLoop monitors one connection until it leaves the connected state
// or the manager closes.
func (m *Manager) elasticLoop(conn *Connection) {
	tick := time.NewTicker(m.opt.ElasticInterval)
	defer tick.Stop()
	over, idle := 0, 0
	minCompute := conn.ComputeCount()
	for {
		select {
		case <-m.stopCh:
			return
		case <-conn.disconnecting:
			return
		case <-tick.C:
		}
		if conn.State() != ConnConnected {
			if st := conn.State(); st == ConnFailed || st == ConnDisconnected {
				return
			}
			continue // recovering: skip this round
		}
		// The same sum the feed.<conn>.backlog gauge serves, so scaling
		// decisions and the console cannot disagree about the backlog.
		backlog := int64(m.connSubscriptionStats(conn).Backlog)
		budget := int64(conn.pol.MemoryBudgetRecords)
		switch {
		case backlog > budget:
			over++
			idle = 0
		case backlog < budget/10:
			idle++
			over = 0
		default:
			over, idle = 0, 0
		}
		if over >= scaleOutAfter {
			over = 0
			// Scaling out while the hosting node is over its memory budget
			// would add compute demand to a node already shedding load, so
			// the governor gets a veto: backlog must first drain (or be
			// shed) back under budget.
			if m.governorVetoesScaleOut(conn) {
				continue
			}
			m.rescale(conn, +1, minCompute)
		} else if idle >= scaleInAfter {
			idle = 0
			m.rescale(conn, -1, minCompute)
		}
	}
}

// governorVetoesScaleOut reports whether an ingestion governor on one of
// the connection's intake nodes is over its memory budget. A veto is
// counted on the governor and recorded as an elastic event so tests and
// the console can see the refused decision.
func (m *Manager) governorVetoesScaleOut(conn *Connection) bool {
	conn.mu.Lock()
	locs := append([]string(nil), conn.intakeLocs...)
	conn.mu.Unlock()
	for _, loc := range locs {
		if g := m.governorAt(loc); g != nil && g.OverBudget() {
			g.ElasticVetoes.Add(1)
			conn.addElasticEvent(fmt.Sprintf("scale-out vetoed: node %s over memory budget", loc))
			return true
		}
	}
	return false
}

// rescale adjusts the connection's compute parallelism by delta and
// re-structures its tail (and the tails of child connections pinned to its
// joints).
func (m *Manager) rescale(conn *Connection, delta, minCompute int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || conn.State() != ConnConnected {
		return
	}
	alive := len(m.cluster.AliveNodes())
	conn.mu.Lock()
	cur := conn.computeCount
	next := cur + delta
	if next > alive {
		next = alive
	}
	if next < minCompute {
		next = minCompute
	}
	if next < 1 {
		next = 1
	}
	if next == cur || len(conn.stages) == 0 {
		conn.mu.Unlock()
		return
	}
	conn.computeCount = next
	verb := "scale-out"
	if delta < 0 {
		verb = "scale-in"
	}
	conn.elasticEvents = append(conn.elasticEvents,
		fmt.Sprintf("%s: compute %d -> %d", verb, cur, next))
	conn.mu.Unlock()

	if err := m.rebuildTailLocked(conn); err != nil {
		m.failConnectionLocked(conn, fmt.Errorf("core: elastic re-structure failed: %w", err))
		return
	}
	// Children subscribed to this connection's joints must follow the new
	// compute placement.
	m.rebuildChildrenLocked(conn)
}

// rebuildChildrenLocked re-schedules tails of connections whose source is
// one of conn's produced signatures (their intake must co-locate with the
// moved joints).
func (m *Manager) rebuildChildrenLocked(conn *Connection) {
	sigs := map[string]bool{}
	for _, st := range conn.stages {
		sigs[st.signature] = true
	}
	for _, child := range m.connsByDepthLocked() {
		if child == conn || !sigs[child.sourceSignature] {
			continue
		}
		if st := child.State(); st != ConnConnected && st != ConnDisconnectedKeepAlive {
			continue
		}
		if err := m.rebuildTailLocked(child); err != nil {
			m.failConnectionLocked(child, fmt.Errorf("core: re-structure of parent broke child: %w", err))
		}
	}
}
