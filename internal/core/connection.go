package core

import (
	"sync"
	"sync/atomic"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/hyracks"
	"asterixfeeds/internal/metadata"
	"asterixfeeds/internal/metrics"
	"asterixfeeds/internal/storage"
)

// ConnState is a feed connection's lifecycle state.
type ConnState int32

// Connection states.
const (
	// ConnConnected: the ingestion pipeline is active.
	ConnConnected ConnState = iota
	// ConnRecovering: a hard failure is being repaired (§6.2.2).
	ConnRecovering
	// ConnDisconnectedKeepAlive: the feed was disconnected from its
	// dataset but its compute stage stays alive to source child feeds
	// (partial dismantling, Figure 5.10(b)).
	ConnDisconnectedKeepAlive
	// ConnDisconnected: fully torn down by a disconnect statement.
	ConnDisconnected
	// ConnFailed: terminated abnormally (store-node loss, adaptor give-up,
	// policy forbids recovery, ...).
	ConnFailed
)

// String implements fmt.Stringer.
func (s ConnState) String() string {
	switch s {
	case ConnConnected:
		return "connected"
	case ConnRecovering:
		return "recovering"
	case ConnDisconnectedKeepAlive:
		return "disconnected-keepalive"
	case ConnDisconnected:
		return "disconnected"
	case ConnFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// ConnMetrics instruments one feed connection; the feed management console
// of §7.2 reads these.
type ConnMetrics struct {
	// Collected counts records entering the tail (read off the joint).
	Collected *metrics.WindowedCounter
	// Computed counts records leaving the compute stage.
	Computed *metrics.WindowedCounter
	// Persisted counts records written to the target dataset; its
	// windows are the instantaneous ingestion throughput series.
	Persisted *metrics.WindowedCounter
	// SoftFailures counts records skipped due to runtime exceptions.
	SoftFailures metrics.Counter
	// StoreErrors counts environmental store failures (WAL write, fsync,
	// replica IO — not the record's fault). Unlike soft failures these
	// records are NOT acknowledged: the at-least-once protocol replays
	// them until the store succeeds.
	StoreErrors metrics.Counter
	// Replayed counts at-least-once replays.
	Replayed metrics.Counter
	// ReplayDropped counts at-least-once records given up on after
	// maxReplays replays went unacknowledged: records lost.
	ReplayDropped metrics.Counter
	// IngestionLatency samples record latency from intake to store.
	IngestionLatency *metrics.LatencyRecorder
}

func newConnMetrics(window time.Duration) *ConnMetrics {
	return &ConnMetrics{
		Collected:        metrics.NewWindowedCounter(window),
		Computed:         metrics.NewWindowedCounter(window),
		Persisted:        metrics.NewWindowedCounter(window),
		IngestionLatency: metrics.NewLatencyRecorder(),
	}
}

// stage describes one compute stage of a connection's tail.
type stage struct {
	fn        RecordFunction
	signature string // stream signature at this stage's output
}

// Connection is one active feed-to-dataset connection: the unit the connect
// and disconnect statements operate on, and the unit of policy, monitoring,
// fault-tolerance, and elasticity.
type Connection struct {
	id        string
	dataverse string
	feed      *metadata.FeedDecl
	ds        *storage.Dataset
	pol       *Policy

	// Metrics instruments the pipeline.
	Metrics *ConnMetrics
	// Log accumulates soft failures.
	Log *ExceptionLog

	// sourceSignature is the joint signature the tail subscribes to, and
	// subID its subscription id at that joint.
	sourceSignature string
	subID           string
	// stages are the UDF stages between intake and store.
	stages []stage

	// storeEnabled gates persistence; cleared by a disconnect that must
	// keep the pipeline alive for child feeds.
	storeEnabled atomic.Bool
	// onPersist, when set, observes each persisted record (see
	// WithPersistObserver).
	onPersist func(*adm.Record)

	// tracker implements at-least-once delivery when the policy asks.
	tracker     *ackTracker
	trackerStop chan struct{}
	trackerOnce sync.Once

	disconnecting chan struct{}
	discOnce      sync.Once

	mu           sync.Mutex
	state        ConnState
	tailJob      *hyracks.JobHandle
	intakeLocs   []string
	computeLocs  []string
	storeLocs    []string
	computeCount int
	failure      error
	// elasticEvents records scale decisions for tests and the console.
	elasticEvents []string
	// recoveries records the duration of each completed hard-failure
	// repair (failure detection through pipeline re-scheduling).
	recoveries []time.Duration
	// resyncDegraded records replica re-sync attempts that were abandoned
	// (no live target, missing storage manager, or a copy failure that
	// survived the retry): the partition keeps serving but unreplicated.
	resyncDegraded []string
}

// ID returns the connection id ("feed -> dataset").
func (c *Connection) ID() string { return c.id }

// Feed returns the connected feed's declaration.
func (c *Connection) Feed() *metadata.FeedDecl { return c.feed }

// Dataset returns the target dataset.
func (c *Connection) Dataset() *storage.Dataset { return c.ds }

// Policy returns the connection's compiled ingestion policy.
func (c *Connection) Policy() *Policy { return c.pol }

// State reports the connection's lifecycle state.
func (c *Connection) State() ConnState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Err returns the failure that terminated the connection, if any.
func (c *Connection) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failure
}

// Locations reports the nodes hosting the intake, compute, and store stages
// (Figure 5.6 and the console of Appendix A).
func (c *Connection) Locations() (intake, compute, store []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.intakeLocs...),
		append([]string(nil), c.computeLocs...),
		append([]string(nil), c.storeLocs...)
}

// ComputeCount reports the compute stage's current degree of parallelism.
func (c *Connection) ComputeCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.computeCount
}

// Recoveries lists the measured durations of completed hard-failure
// repairs, oldest first.
func (c *Connection) Recoveries() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.recoveries...)
}

func (c *Connection) recordRecovery(d time.Duration) {
	c.mu.Lock()
	c.recoveries = append(c.recoveries, d)
	c.mu.Unlock()
}

// ResyncDegradations lists replica re-syncs that recovery had to abandon,
// leaving the named partition unreplicated until the next repair.
func (c *Connection) ResyncDegradations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.resyncDegraded...)
}

func (c *Connection) recordResyncDegradation(msg string) {
	c.mu.Lock()
	c.resyncDegraded = append(c.resyncDegraded, msg)
	c.mu.Unlock()
}

// ElasticEvents lists scale-out/in decisions taken for this connection.
func (c *Connection) ElasticEvents() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.elasticEvents...)
}

func (c *Connection) addElasticEvent(msg string) {
	c.mu.Lock()
	c.elasticEvents = append(c.elasticEvents, msg)
	c.mu.Unlock()
}

// PendingAcks reports records awaiting at-least-once acknowledgment.
func (c *Connection) PendingAcks() int {
	if c.tracker == nil {
		return 0
	}
	return c.tracker.pendingCount()
}

func (c *Connection) setState(s ConnState) {
	c.mu.Lock()
	c.state = s
	c.mu.Unlock()
}

// tail returns the connection's tail job, or nil.
func (c *Connection) tail() *hyracks.JobHandle {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tailJob
}

func (c *Connection) signalDisconnect() {
	c.discOnce.Do(func() { close(c.disconnecting) })
}

// stopTracker stops the at-least-once ack sweeper, if one was started.
// The Connection owns trackerStop's lifecycle, so the close lives here
// rather than at teardown call sites; the Once makes it idempotent under
// concurrent teardown paths (a bare select-default guard is not — two
// goroutines can both miss the closed case and double-close).
func (c *Connection) stopTracker() {
	if c.trackerStop == nil {
		return
	}
	c.trackerOnce.Do(func() { close(c.trackerStop) })
}
