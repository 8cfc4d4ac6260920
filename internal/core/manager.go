package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"asterixfeeds/internal/governor"
	"asterixfeeds/internal/hyracks"
	"asterixfeeds/internal/lsm"
)

// FeedManagerService is the node-service key under which each node's
// FeedManager is registered with its hyracks.NodeController.
const FeedManagerService = "feed-manager"

// FeedManager is the per-node feed runtime state holder (§5.4): it tracks
// the feed joints hosted by its node and makes them discoverable to
// co-located operator instances through a search API. Because joints (and
// their subscriptions) live here rather than inside task lifetimes, a
// re-scheduled pipeline can find and adopt the state its failed predecessor
// left behind.
type FeedManager struct {
	node string
	// tracked is the backlog and spill bytes held by every subscription of
	// every hosted joint: each subscription adds the change in its own share
	// (Subscription.publishLocked) and withdraws it when it closes.
	tracked atomic.Int64

	mu     sync.Mutex
	joints map[jointKey]*Joint
	// created is closed, and replaced, whenever CreateJoint registers a
	// joint; WaitJoint waits on it.
	created chan struct{}
}

type jointKey struct {
	signature string
	partition int
}

// NewFeedManager creates the feed manager for node.
func NewFeedManager(node string) *FeedManager {
	return &FeedManager{node: node, joints: make(map[jointKey]*Joint), created: make(chan struct{})}
}

// feedManagerOn returns node n's FeedManager, installing one if the node has
// none yet.
func feedManagerOn(n *hyracks.NodeController) *FeedManager {
	fm, _ := n.Service(FeedManagerService).(*FeedManager)
	if fm == nil {
		fm = NewFeedManager(n.ID())
		n.SetService(FeedManagerService, fm)
	}
	return fm
}

// NewNodeGovernor builds node n's ingestion governor over the three places
// the node holds ingested bytes — feed backlogs and spill files (the node's
// FeedManager), memtables (lm, the lsm.Metrics every tree on the node
// shares), in-flight frames (n itself) — plus the LSM backpressure signal,
// and registers it as the node service the intake operators and the elastic
// controller consult. Every source is an atomic load of a counter its owner
// keeps current.
func NewNodeGovernor(n *hyracks.NodeController, lm *lsm.Metrics, cfg governor.Config) *governor.Governor {
	g := governor.New(n.ID(), cfg)
	g.RegisterSource("lsm", lm.MemtableBytes.Value)
	g.RegisterSource("frames", n.InFlightFrameBytes)
	g.RegisterSource("feeds", feedManagerOn(n).TrackedBytes)
	// LSM backpressure: frozen memtables queued for flush plus runs awaiting
	// compaction. Four queued background units count as "at budget", so a
	// storage layer that cannot keep up throttles intake even while tracked
	// bytes still look healthy (write stalls are the end state this avoids).
	g.RegisterSignal("lsm_backpressure", func() float64 {
		return float64(lm.Immutables.Value()+lm.CompactionDebt.Value()) / 4
	})
	n.SetService(governor.ServiceName, g)
	return g
}

// CreateJoint registers (or returns the existing) joint for the given
// stream signature and producing partition.
func (m *FeedManager) CreateJoint(signature string, partition int) *Joint {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := jointKey{signature, partition}
	if j, ok := m.joints[k]; ok {
		return j
	}
	j := newJoint(signature, partition)
	j.tracked = &m.tracked
	m.joints[k] = j
	close(m.created)
	m.created = make(chan struct{})
	return j
}

// Joint looks up a hosted joint by signature and partition; this is the
// search API a co-located FeedIntake instance uses to find its source.
func (m *FeedManager) Joint(signature string, partition int) (*Joint, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.joints[jointKey{signature, partition}]
	return j, ok
}

// WaitJoint waits for a joint to appear, returning nil if cancel fires
// first. Tail jobs may be scheduled moments before their head job has
// registered its joints.
func (m *FeedManager) WaitJoint(signature string, partition int, cancel <-chan struct{}) *Joint {
	for {
		m.mu.Lock()
		j, ok := m.joints[jointKey{signature, partition}]
		created := m.created
		m.mu.Unlock()
		if ok {
			return j
		}
		select {
		case <-cancel:
			return nil
		case <-created:
		}
	}
}

// RemoveJoint closes and forgets a joint (feed fully disconnected).
func (m *FeedManager) RemoveJoint(signature string, partition int) {
	m.mu.Lock()
	j, ok := m.joints[jointKey{signature, partition}]
	if ok {
		delete(m.joints, jointKey{signature, partition})
	}
	m.mu.Unlock()
	if ok {
		j.close()
	}
}

// TrackedBytes is the backlog and spill bytes buffered across every hosted
// joint — this node's feed-layer contribution to the ingestion governor's
// memory accounting. One atomic load.
func (m *FeedManager) TrackedBytes() int64 { return m.tracked.Load() }

// Joints lists the signatures of hosted joints (for monitoring and tests).
func (m *FeedManager) Joints() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.joints))
	for k := range m.joints {
		out = append(out, fmt.Sprintf("%s[%d]", k.signature, k.partition))
	}
	return out
}

// feedManagerOf fetches the node-local FeedManager from a task context.
func feedManagerOf(ctx *hyracks.TaskContext) (*FeedManager, error) {
	svc := ctx.Service(FeedManagerService)
	fm, ok := svc.(*FeedManager)
	if !ok || fm == nil {
		return nil, fmt.Errorf("core: node %s has no feed manager service", ctx.NodeID)
	}
	return fm, nil
}
