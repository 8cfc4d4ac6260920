package hyracks

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"asterixfeeds/internal/metrics"
)

// Config tunes cluster timing and dataflow parameters. The zero value is
// usable; unset fields assume the defaults below.
type Config struct {
	// HeartbeatInterval is how often node controllers report liveness.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long the cluster controller waits without a
	// heartbeat before declaring a node dead.
	HeartbeatTimeout time.Duration
	// QueueDepth is the per-task input queue depth in frames; a full
	// queue exerts back-pressure on producers.
	QueueDepth int
	// ScheduleDelay models the job planning and task-dispatch round
	// trips a distributed Hyracks deployment pays per job submission;
	// StartJob blocks this long before launching tasks. Zero (the
	// default) disables it. The batch-inserts experiment (Table 5.1)
	// sets it so per-statement overheads are realistic.
	ScheduleDelay time.Duration
	// Clock, when set, replaces the real clock for heartbeat stamping
	// and failure detection, letting deterministic experiments drive
	// time explicitly.
	Clock func() time.Time
	// FrameFault, when non-nil, runs at every consumer frame boundary —
	// after a task dequeues a frame, before the operator sees it — with
	// the hosting node's ID and the operator's name. Only fault-injection
	// harnesses set this (see internal/chaos): the hook may stall the
	// task or kill the node; node liveness is rechecked after it returns
	// so an injected kill lands exactly on the frame boundary.
	FrameFault func(node, op string, f *Frame)
}

func (c Config) withDefaults() Config {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 20 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 6 * c.HeartbeatInterval
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	return c
}

// ClusterEventKind classifies cluster membership events.
type ClusterEventKind int

// Cluster membership events.
const (
	// NodeJoined fires when a node controller joins the cluster.
	NodeJoined ClusterEventKind = iota
	// NodeDead fires when the cluster controller stops receiving a
	// node's heartbeats.
	NodeDead
)

// ClusterEvent notifies subscribers of membership changes.
type ClusterEvent struct {
	Kind   ClusterEventKind
	NodeID string
}

// NodeController is one simulated worker node: it hosts task goroutines,
// node-local services (storage manager, feed manager), and heartbeats its
// liveness to the cluster controller.
type NodeController struct {
	id   string
	dead chan struct{}

	// inflight tracks the bytes of frames enqueued toward this node's
	// tasks but not yet dequeued — the execution layer's contribution to
	// the ingestion governor's memory accounting.
	inflight atomic.Int64
	// Frames and Records count the frames, and the records in them, that
	// this node's consumer tasks dequeued: its share of the frame traffic.
	Frames, Records metrics.Counter

	mu       sync.Mutex
	services map[string]any
	killed   bool
}

// ID returns the node's name.
func (n *NodeController) ID() string { return n.id }

// Alive reports whether the node is still up.
func (n *NodeController) Alive() bool {
	select {
	case <-n.dead:
		return false
	default:
		return true
	}
}

// SetService installs a node-local service under name.
func (n *NodeController) SetService(name string, svc any) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.services[name] = svc
}

// Service returns the node-local service registered under name, or nil.
func (n *NodeController) Service(name string) any {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.services[name]
}

// InFlightFrameBytes reports the bytes of frames currently queued toward
// this node's tasks (enqueued by producers, not yet dequeued by runTask).
func (n *NodeController) InFlightFrameBytes() int64 { return n.inflight.Load() }

func (n *NodeController) addInFlight(delta int64) { n.inflight.Add(delta) }

func (n *NodeController) kill() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.killed {
		return
	}
	n.killed = true
	close(n.dead)
}

// Cluster is a simulated shared-nothing cluster: one cluster controller and
// a set of node controllers, all in-process.
type Cluster struct {
	cfg Config

	mu        sync.Mutex
	nodes     map[string]*NodeController
	alive     map[string]bool
	lastBeat  map[string]time.Time
	clusterFn map[int]func(ClusterEvent)
	subSeq    int
	jobs      map[JobID]*JobHandle
	closed    bool
	stopMon   chan struct{}
	monWG     sync.WaitGroup
}

// NewCluster creates a cluster with the given node names and starts the
// heartbeat monitor. Close must be called to release the monitor.
func NewCluster(cfg Config, nodeNames ...string) *Cluster {
	c := &Cluster{
		cfg:       cfg.withDefaults(),
		nodes:     make(map[string]*NodeController),
		alive:     make(map[string]bool),
		lastBeat:  make(map[string]time.Time),
		clusterFn: make(map[int]func(ClusterEvent)),
		jobs:      make(map[JobID]*JobHandle),
		stopMon:   make(chan struct{}),
	}
	for _, name := range nodeNames {
		c.AddNode(name)
	}
	c.monWG.Add(1)
	go c.monitor()
	return c
}

// AddNode adds a node controller to the cluster (a node "joining").
func (c *Cluster) AddNode(name string) (*NodeController, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("hyracks: cluster closed")
	}
	if _, exists := c.nodes[name]; exists {
		c.mu.Unlock()
		return nil, fmt.Errorf("hyracks: node %q already exists", name)
	}
	n := &NodeController{id: name, dead: make(chan struct{}), services: make(map[string]any)}
	c.nodes[name] = n
	c.alive[name] = true
	c.lastBeat[name] = c.now()
	subs := c.clusterSubsLocked()
	c.mu.Unlock()

	// Start the node's heartbeat loop.
	c.monWG.Add(1)
	go c.heartbeatLoop(n)

	for _, fn := range subs {
		fn(ClusterEvent{Kind: NodeJoined, NodeID: name})
	}
	return n, nil
}

func (c *Cluster) heartbeatLoop(n *NodeController) {
	defer c.monWG.Done()
	t := time.NewTicker(c.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.mu.Lock()
			if c.alive[n.id] {
				c.lastBeat[n.id] = c.now()
			}
			c.mu.Unlock()
		case <-n.dead:
			return
		case <-c.stopMon:
			return
		}
	}
}

// monitor is the cluster controller's failure detector: it scans heartbeat
// timestamps and declares nodes dead after HeartbeatTimeout of silence.
func (c *Cluster) monitor() {
	defer c.monWG.Done()
	t := time.NewTicker(c.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.checkHeartbeats()
		case <-c.stopMon:
			return
		}
	}
}

func (c *Cluster) checkHeartbeats() {
	now := c.now()
	var deadNodes []string
	c.mu.Lock()
	for id, ok := range c.alive {
		if ok && now.Sub(c.lastBeat[id]) > c.cfg.HeartbeatTimeout {
			c.alive[id] = false
			deadNodes = append(deadNodes, id)
		}
	}
	subs := c.clusterSubsLocked()
	c.mu.Unlock()
	sort.Strings(deadNodes)
	for _, id := range deadNodes {
		for _, fn := range subs {
			fn(ClusterEvent{Kind: NodeDead, NodeID: id})
		}
	}
}

// KillNode simulates a hard failure of the named node: its tasks halt, its
// queues drop, and its heartbeats stop, so the cluster controller will
// declare it dead within HeartbeatTimeout.
func (c *Cluster) KillNode(name string) error {
	c.mu.Lock()
	n, ok := c.nodes[name]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("hyracks: unknown node %q", name)
	}
	n.kill()
	return nil
}

// Node returns the named node controller, or nil.
func (c *Cluster) Node(name string) *NodeController {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[name]
}

// AliveNodes returns the names of nodes the cluster controller currently
// believes to be alive, sorted.
func (c *Cluster) AliveNodes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for id, ok := range c.alive {
		if ok {
			// Double-check local liveness so scheduling after a kill but
			// before heartbeat-timeout detection does not pick a dead node.
			if n := c.nodes[id]; n != nil && n.Alive() {
				out = append(out, id)
			}
		}
	}
	sort.Strings(out)
	return out
}

// AllNodes returns every node name ever added, sorted.
func (c *Cluster) AllNodes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.nodes))
	for id := range c.nodes {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// SubscribeCluster registers fn for cluster membership events; the returned
// function unsubscribes.
func (c *Cluster) SubscribeCluster(fn func(ClusterEvent)) (cancel func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.subSeq
	c.subSeq++
	c.clusterFn[id] = fn
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		delete(c.clusterFn, id)
	}
}

func (c *Cluster) clusterSubsLocked() []func(ClusterEvent) {
	out := make([]func(ClusterEvent), 0, len(c.clusterFn))
	for _, fn := range c.clusterFn {
		out = append(out, fn)
	}
	return out
}

// Close shuts the cluster down: cancels running jobs, kills all nodes, and
// stops the monitor.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	jobs := make([]*JobHandle, 0, len(c.jobs))
	for _, j := range c.jobs {
		jobs = append(jobs, j)
	}
	nodes := make([]*NodeController, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.mu.Unlock()

	for _, j := range jobs {
		j.Cancel()
	}
	for _, j := range jobs {
		j.Wait() //nolint:errcheck // shutting down
	}
	for _, n := range nodes {
		n.kill()
	}
	close(c.stopMon)
	c.monWG.Wait()
}
