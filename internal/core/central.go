package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/governor"
	"asterixfeeds/internal/hyracks"
	"asterixfeeds/internal/metadata"
	"asterixfeeds/internal/metrics"
)

// Options tunes the Central Feed Manager.
type Options struct {
	// MetricsWindow is the bucket width for connection throughput series
	// (the paper samples every 2 seconds; scaled-down experiments use
	// smaller windows).
	MetricsWindow time.Duration
	// AckTimeout is the at-least-once replay timeout.
	AckTimeout time.Duration
	// FrameCapacity is the records-per-frame target at collect.
	FrameCapacity int
	// ElasticInterval is how often elastic connections are evaluated.
	ElasticInterval time.Duration
	// FaultHook, when non-nil, is consulted at the feed manager's own
	// failure points ("ack:<node>" before ack delivery, "subscribe:<node>"
	// before an intake subscribes, "resync:insert" per record during
	// replica re-sync, "spill:push" before a subscription spill write). A
	// non-nil return injects that failure.
	// Only fault-injection harnesses set this (see internal/chaos).
	FaultHook func(point string) error
	// Registry, when non-nil, is the named-metric registry the manager
	// publishes per-connection instrumentation into (feedwatch). Nil gets
	// a private registry, so Manager.Registry never returns nil. Sharing
	// one registry with the embedding instance lets node-level metrics
	// (LSM, frame traffic) and feed metrics serve from one endpoint.
	Registry *metrics.Registry
}

func (o Options) withDefaults() Options {
	if o.MetricsWindow <= 0 {
		o.MetricsWindow = 500 * time.Millisecond
	}
	if o.AckTimeout <= 0 {
		o.AckTimeout = time.Second
	}
	if o.FrameCapacity <= 0 {
		o.FrameCapacity = 128
	}
	if o.ElasticInterval <= 0 {
		o.ElasticInterval = 100 * time.Millisecond
	}
	if o.Registry == nil {
		o.Registry = metrics.NewRegistry()
	}
	return o
}

// AQLCompiler converts a stored AQL function declaration into an executable
// RecordFunction. The aql package supplies the implementation; the hook
// keeps this package independent of the language front end.
type AQLCompiler func(decl *metadata.FunctionDecl) (RecordFunction, error)

// headInfo tracks one primary feed's head section: the FeedCollect job
// hosting the adaptor instances and the joints carrying the raw feed.
type headInfo struct {
	primary   *metadata.FeedDecl
	signature string
	adaptor   ConfiguredAdaptor
	job       *hyracks.JobHandle
	locs      []string
	refs      map[string]bool // connection ids depending on this head
}

// production tracks who produces the joints of a stream signature and where.
type production struct {
	locs      []string
	producers map[string]bool
}

// Manager is the Central Feed Manager (§5.3, §6.2): it compiles connect and
// disconnect statements into head/tail Hyracks jobs, tracks every active
// ingestion pipeline and feed joint in the cluster, runs the fault-tolerance
// protocol on node-loss events, and drives elastic re-structuring.
type Manager struct {
	cluster   *hyracks.Cluster
	catalog   *metadata.Catalog
	adaptors  *AdaptorRegistry
	functions *FunctionRegistry
	opt       Options

	aqlCompile AQLCompiler
	registry   *metrics.Registry

	mu       sync.Mutex
	heads    map[string]*headInfo   // primary feed qualified name -> head
	conns    map[string]*Connection // connection id -> connection
	produced map[string]*production // signature -> production info
	closed   bool

	stopCh      chan struct{}
	wg          sync.WaitGroup
	unsubscribe func()
}

// NewManager creates the Central Feed Manager for a cluster, installing a
// FeedManager service on every node (present and future) and subscribing to
// cluster events for failure detection.
func NewManager(cluster *hyracks.Cluster, catalog *metadata.Catalog, opt Options) *Manager {
	m := &Manager{
		cluster:   cluster,
		catalog:   catalog,
		adaptors:  NewAdaptorRegistry(),
		functions: NewFunctionRegistry(),
		opt:       opt.withDefaults(),
		heads:     make(map[string]*headInfo),
		conns:     make(map[string]*Connection),
		produced:  make(map[string]*production),
		stopCh:    make(chan struct{}),
	}
	m.registry = m.opt.Registry
	for _, node := range cluster.AllNodes() {
		m.installFeedManager(node)
	}
	m.unsubscribe = cluster.SubscribeCluster(func(ev hyracks.ClusterEvent) {
		switch ev.Kind {
		case hyracks.NodeJoined:
			m.installFeedManager(ev.NodeID)
		case hyracks.NodeDead:
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				m.handleNodeDeath(ev.NodeID)
			}()
		}
	})
	return m
}

func (m *Manager) installFeedManager(node string) {
	if n := m.cluster.Node(node); n != nil {
		feedManagerOn(n)
	}
}

// Adaptors exposes the adaptor registry for installing custom adaptors.
func (m *Manager) Adaptors() *AdaptorRegistry { return m.adaptors }

// Functions exposes the external-UDF registry.
func (m *Manager) Functions() *FunctionRegistry { return m.functions }

// SetAQLCompiler installs the hook that compiles stored AQL functions.
func (m *Manager) SetAQLCompiler(c AQLCompiler) { m.aqlCompile = c }

// Catalog returns the metadata catalog the manager operates against.
func (m *Manager) Catalog() *metadata.Catalog { return m.catalog }

// Cluster returns the underlying execution cluster.
func (m *Manager) Cluster() *hyracks.Cluster { return m.cluster }

// connID names a feed-to-dataset connection.
func connID(dataverse, feed, dataset string) string {
	return dataverse + "." + feed + " -> " + dataverse + "." + dataset
}

// ConnectOption customizes a ConnectFeed call.
type ConnectOption func(*connectConfig)

type connectConfig struct {
	computeCount int
	onPersist    func(*adm.Record)
}

// WithComputeCount fixes the compute stage's initial degree of parallelism
// (default: one per live node, as in the paper).
func WithComputeCount(n int) ConnectOption {
	return func(c *connectConfig) { c.computeCount = n }
}

// WithPersistObserver has fn observe every record the connection persists,
// from its first: fn is called, possibly from several store partitions at
// once, after the record's frame is stored.
func WithPersistObserver(fn func(*adm.Record)) ConnectOption {
	return func(c *connectConfig) { c.onPersist = fn }
}

// ConnectFeed processes a `connect feed <feed> to dataset <dataset> using
// policy <policy>` statement: it locates (or builds) the head section,
// reuses the nearest connected ancestor's feed joint, constructs the tail
// job (intake → compute* → store), and starts the flow of data (§5.3).
func (m *Manager) ConnectFeed(dataverse, feedName, datasetName, policyName string, opts ...ConnectOption) (*Connection, error) {
	var cfg connectConfig
	for _, o := range opts {
		o(&cfg)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("core: feed manager closed")
	}

	id := connID(dataverse, feedName, datasetName)
	if existing, ok := m.conns[id]; ok {
		st := existing.State()
		if st == ConnConnected || st == ConnRecovering || st == ConnDisconnectedKeepAlive {
			return nil, fmt.Errorf("core: %s is already connected", id)
		}
	}

	feed, ok := m.catalog.Feed(dataverse, feedName)
	if !ok {
		return nil, fmt.Errorf("core: unknown feed %s.%s", dataverse, feedName)
	}
	ds, ok := m.catalog.Dataset(dataverse, datasetName)
	if !ok {
		return nil, fmt.Errorf("core: unknown dataset %s.%s", dataverse, datasetName)
	}
	if policyName == "" {
		policyName = "Basic"
	}
	polDecl, ok := m.catalog.Policy(policyName)
	if !ok {
		return nil, fmt.Errorf("core: unknown ingestion policy %q", policyName)
	}
	pol, err := CompilePolicy(polDecl)
	if err != nil {
		return nil, err
	}
	for _, n := range ds.NodeGroup {
		node := m.cluster.Node(n)
		if node == nil || !node.Alive() {
			return nil, fmt.Errorf("core: dataset %s partition node %q unavailable", ds.QualifiedName(), n)
		}
	}

	lineage, err := m.catalog.FeedLineage(dataverse, feedName)
	if err != nil {
		return nil, err
	}
	// lineage is [feed .. primary]; walk primary-first.
	chain := make([]*metadata.FeedDecl, len(lineage))
	for i, f := range lineage {
		chain[len(lineage)-1-i] = f
	}
	primary := chain[0]
	headSig := dataverse + "." + primary.Name

	// Build the full stage list from the adaptor output to the feed's
	// records, tracking the stream signature after each UDF.
	type fullStage struct {
		fnName    string
		signature string
	}
	var stages []fullStage
	sig := headSig
	sigs := []string{headSig} // signature before stage i is sigs[i]
	for _, f := range chain {
		if f.Function == "" {
			continue
		}
		sig = sig + ":" + f.Function
		stages = append(stages, fullStage{fnName: f.Function, signature: sig})
		sigs = append(sigs, sig)
	}

	// Locate the source: the longest signature prefix with live joints —
	// i.e. the nearest connected ancestor (§5.3.2).
	srcIdx := -1
	for i := len(sigs) - 1; i >= 0; i-- {
		if p, ok := m.produced[sigs[i]]; ok && len(p.locs) > 0 {
			srcIdx = i
			break
		}
	}

	var head *headInfo
	if srcIdx == -1 {
		// No ancestor connected: construct the head section.
		head, err = m.ensureHeadLocked(dataverse, primary)
		if err != nil {
			return nil, err
		}
		srcIdx = 0
	} else if h, ok := m.heads[headSig]; ok {
		head = h
	}

	conn := &Connection{
		id:              id,
		dataverse:       dataverse,
		feed:            feed,
		ds:              ds,
		pol:             pol,
		Metrics:         newConnMetrics(m.opt.MetricsWindow),
		Log:             NewExceptionLog(0),
		sourceSignature: sigs[srcIdx],
		subID:           id,
		disconnecting:   make(chan struct{}),
		state:           ConnConnected,
		onPersist:       cfg.onPersist,
	}
	conn.storeEnabled.Store(true)
	for _, st := range stages[srcIdx:] {
		fn, err := m.resolveFunctionLocked(dataverse, st.fnName)
		if err != nil {
			return nil, err
		}
		conn.stages = append(conn.stages, stage{fn: fn, signature: st.signature})
	}
	conn.computeCount = cfg.computeCount
	if conn.computeCount <= 0 {
		conn.computeCount = len(m.cluster.AliveNodes())
	}
	if pol.AtLeastOnce {
		conn.tracker = newAckTracker(m.opt.AckTimeout)
		conn.trackerStop = make(chan struct{})
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			conn.tracker.runSweeper(conn.trackerStop, &conn.Metrics.ReplayDropped)
		}()
	}

	if err := m.startTailLocked(conn); err != nil {
		conn.stopTracker()
		return nil, err
	}
	m.conns[id] = conn
	m.registerConnMetricsLocked(conn)
	if head != nil {
		head.refs[id] = true
	}
	if pol.Elastic {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.elasticLoop(conn)
		}()
	}
	return conn, nil
}

// ensureHeadLocked builds (or returns) the head section for a primary feed:
// a Feed Collect job whose instances host the adaptor and offer a joint.
func (m *Manager) ensureHeadLocked(dataverse string, primary *metadata.FeedDecl) (*headInfo, error) {
	sig := dataverse + "." + primary.Name
	if h, ok := m.heads[sig]; ok {
		return h, nil
	}
	factory, ok := m.adaptors.Lookup(primary.AdaptorName)
	if !ok {
		return nil, fmt.Errorf("core: unknown adaptor %q for feed %s", primary.AdaptorName, primary.QualifiedName())
	}
	configured, err := factory(primary.AdaptorConfig)
	if err != nil {
		return nil, err
	}
	h := &headInfo{
		primary:   primary,
		signature: sig,
		adaptor:   configured,
		refs:      make(map[string]bool),
	}
	if err := m.startHeadLocked(h, nil); err != nil {
		return nil, err
	}
	m.heads[sig] = h
	return h, nil
}

// startHeadLocked schedules the Feed Collect job. pinned, when non-nil,
// overrides placement (used by recovery to choose substitute nodes).
func (m *Manager) startHeadLocked(h *headInfo, pinned []string) error {
	spec := &hyracks.JobSpec{Name: "FeedCollect(" + h.signature + ")"}
	constraint := h.adaptor.Constraints()
	if pinned != nil {
		constraint = hyracks.LocationConstraint(pinned...)
	}
	spec.AddOperator(&collectOp{
		signature: h.signature,
		adaptor:   h.adaptor,
		frameCap:  m.opt.FrameCapacity,
		// Dispatched asynchronously: the reporting collect task must be
		// able to unwind (ending the head job) while the manager tears
		// the dependent connections down.
		onFatal: func(err error) {
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				m.handleHeadFatal(h.signature, err)
			}()
		},
	}, constraint)
	job, err := m.cluster.StartJob(spec)
	if err != nil {
		return err
	}
	h.job = job
	h.locs = job.Placement()[0].Locations
	m.addProductionLocked(h.signature, "head:"+h.signature, h.locs)
	return nil
}

func (m *Manager) addProductionLocked(sig, producer string, locs []string) {
	p, ok := m.produced[sig]
	if !ok {
		p = &production{producers: make(map[string]bool)}
		m.produced[sig] = p
	}
	p.locs = locs
	p.producers[producer] = true
}

func (m *Manager) dropProductionLocked(sig, producer string) {
	p, ok := m.produced[sig]
	if !ok {
		return
	}
	delete(p.producers, producer)
	if len(p.producers) == 0 {
		for part, loc := range p.locs {
			if fm := m.feedManagerAt(loc); fm != nil {
				fm.RemoveJoint(sig, part)
			}
		}
		delete(m.produced, sig)
	}
}

func (m *Manager) feedManagerAt(node string) *FeedManager {
	n := m.cluster.Node(node)
	if n == nil {
		return nil
	}
	fm, _ := n.Service(FeedManagerService).(*FeedManager)
	return fm
}

func (m *Manager) governorAt(node string) *governor.Governor {
	n := m.cluster.Node(node)
	if n == nil {
		return nil
	}
	g, _ := n.Service(governor.ServiceName).(*governor.Governor)
	return g
}

// dropAdmissionEverywhere forgets the named admission on every node's
// governor. Teardown paths cannot always tell which nodes an intake or
// head actually reached (failure paths reshuffle placement), and dropping
// an unknown name is a no-op, so sweeping the cluster is the robust form.
func (m *Manager) dropAdmissionEverywhere(name string) {
	for _, node := range m.cluster.AllNodes() {
		if g := m.governorAt(node); g != nil {
			g.DropAdmission(name)
		}
	}
}

// startTailLocked compiles and schedules a connection's tail job:
// FeedIntake (co-located with the source joints) → Assign stages (compute)
// → Store (co-located with the dataset partitions), with the connectors of
// Listing 5.4 / Figure 5.7.
func (m *Manager) startTailLocked(conn *Connection) error {
	src, ok := m.produced[conn.sourceSignature]
	if !ok {
		return fmt.Errorf("core: source joints for %s are gone", conn.sourceSignature)
	}
	srcLocs := append([]string(nil), src.locs...)

	var computeLocs []string
	if len(conn.stages) > 0 {
		avoid := append(append([]string(nil), srcLocs...), conn.ds.NodeGroup...)
		computeLocs = m.chooseComputeLocsLocked(conn.computeCount, avoid)
		if len(computeLocs) == 0 {
			return fmt.Errorf("core: no live nodes for compute stage")
		}
	}

	spec := &hyracks.JobSpec{Name: "FeedIntakeJob(" + conn.id + ")"}
	intake := spec.AddOperator(&intakeOp{conn: conn, fault: m.opt.FaultHook}, hyracks.LocationConstraint(srcLocs...))
	prev := intake
	for i, st := range conn.stages {
		op := spec.AddOperator(&assignOp{
			conn:      conn,
			fn:        st.fn,
			signature: st.signature,
			last:      i == len(conn.stages)-1,
		}, hyracks.LocationConstraint(computeLocs...))
		if i == 0 {
			spec.Connect(prev, op, hyracks.MToNRandomPartition, nil)
		} else {
			spec.Connect(prev, op, hyracks.OneToOne, nil)
		}
		prev = op
	}
	store := spec.AddOperator(&storeOp{conn: conn, ds: conn.ds, cluster: m.cluster, fault: m.opt.FaultHook}, hyracks.LocationConstraint(conn.ds.NodeGroup...))
	spec.Connect(prev, store, hyracks.MToNHashPartition, conn.ds.KeyHashFunc())

	job, err := m.cluster.StartJob(spec)
	if err != nil {
		return err
	}

	conn.mu.Lock()
	conn.tailJob = job
	conn.intakeLocs = srcLocs
	conn.computeLocs = computeLocs
	conn.storeLocs = append([]string(nil), conn.ds.NodeGroup...)
	conn.mu.Unlock()

	for _, st := range conn.stages {
		m.addProductionLocked(st.signature, conn.id, computeLocs)
	}

	// Watch for fatal (non-node, non-cancel) failures: adaptor give-up is
	// handled by onFatal; exceeded soft-failure budgets and alike land
	// here.
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		err := job.Wait()
		if err == nil || errors.Is(err, hyracks.ErrJobCanceled) || errors.Is(err, hyracks.ErrNodeFailure) {
			return
		}
		m.failConnection(conn, err)
	}()
	return nil
}

// chooseComputeLocsLocked picks n live nodes for a compute stage,
// preferring nodes not already busy with intake or store work (the avoid
// list) and wrapping round-robin over the sorted live set beyond that.
func (m *Manager) chooseComputeLocsLocked(n int, avoid []string) []string {
	alive := m.cluster.AliveNodes()
	if len(alive) == 0 || n <= 0 {
		return nil
	}
	avoided := map[string]bool{}
	for _, a := range avoid {
		avoided[a] = true
	}
	var preferred, rest []string
	for _, a := range alive {
		if avoided[a] {
			rest = append(rest, a)
		} else {
			preferred = append(preferred, a)
		}
	}
	ordered := append(preferred, rest...)
	locs := make([]string, n)
	for i := 0; i < n; i++ {
		locs[i] = ordered[i%len(ordered)]
	}
	return locs
}

// resolveFunctionLocked resolves a feed's UDF name: external "lib#fn" names
// come from the function registry; stored AQL functions are compiled via
// the installed AQLCompiler.
func (m *Manager) resolveFunctionLocked(dataverse, name string) (RecordFunction, error) {
	if strings.Contains(name, "#") {
		if fn, ok := m.functions.Lookup(name); ok {
			return fn, nil
		}
		return nil, fmt.Errorf("core: external function %q is not installed", name)
	}
	if fn, ok := m.functions.Lookup(name); ok {
		return fn, nil
	}
	decl, ok := m.catalog.Function(dataverse, name)
	if !ok {
		return nil, fmt.Errorf("core: unknown function %s.%s", dataverse, name)
	}
	if decl.Kind == metadata.ExternalFunction {
		return nil, fmt.Errorf("core: external function %q is not installed", name)
	}
	if m.aqlCompile == nil {
		return nil, fmt.Errorf("core: no AQL compiler installed to evaluate %s", name)
	}
	return m.aqlCompile(decl)
}

// Connection returns the active connection for feed -> dataset, if any.
func (m *Manager) Connection(dataverse, feed, dataset string) (*Connection, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.conns[connID(dataverse, feed, dataset)]
	return c, ok
}

// Connections lists all known connections, sorted by id.
func (m *Manager) Connections() []*Connection {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Connection, 0, len(m.conns))
	for _, c := range m.conns {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// DisconnectFeed processes a `disconnect feed` statement. The flow is
// graceful: the intake unsubscribes, already-received records traverse the
// pipeline into the dataset, and the job ends. If descendant feeds are
// drawing from this connection's joints, the compute stage stays alive and
// only persistence stops (partial dismantling, Figure 5.10).
func (m *Manager) DisconnectFeed(dataverse, feedName, datasetName string) error {
	m.mu.Lock()
	id := connID(dataverse, feedName, datasetName)
	conn, ok := m.conns[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("core: %s is not connected", id)
	}
	st := conn.State()
	if st != ConnConnected && st != ConnDisconnectedKeepAlive {
		m.mu.Unlock()
		return fmt.Errorf("core: %s is %s", id, st)
	}

	conn.storeEnabled.Store(false)
	if m.hasDownstreamSubscribersLocked(conn) {
		conn.setState(ConnDisconnectedKeepAlive)
		m.mu.Unlock()
		return nil
	}
	m.teardownConnLocked(conn, true)
	conn.setState(ConnDisconnected)
	m.sweepKeepAlivesLocked()
	m.mu.Unlock()
	return nil
}

// hasDownstreamSubscribersLocked reports whether any joint produced by this
// connection's compute stages has registered subscribers (i.e. child feeds
// are drawing data).
func (m *Manager) hasDownstreamSubscribersLocked(conn *Connection) bool {
	for _, st := range conn.stages {
		p, ok := m.produced[st.signature]
		if !ok {
			continue
		}
		for part, loc := range p.locs {
			fm := m.feedManagerAt(loc)
			if fm == nil {
				continue
			}
			if j, ok := fm.Joint(st.signature, part); ok && j.HasSubscribers() {
				return true
			}
		}
	}
	return false
}

// sweepKeepAlivesLocked tears down keep-alive connections whose joints have
// no subscribers left (their last child disconnected).
func (m *Manager) sweepKeepAlivesLocked() {
	for {
		swept := false
		for _, conn := range m.conns {
			if conn.State() != ConnDisconnectedKeepAlive {
				continue
			}
			if m.hasDownstreamSubscribersLocked(conn) {
				continue
			}
			m.teardownConnLocked(conn, true)
			conn.setState(ConnDisconnected)
			swept = true
		}
		if !swept {
			return
		}
	}
}

// teardownConnLocked stops a connection's tail (gracefully draining when
// graceful) and releases its productions and head reference.
func (m *Manager) teardownConnLocked(conn *Connection, graceful bool) {
	job := conn.tail()

	var joints []*Joint
	if p, ok := m.produced[conn.sourceSignature]; ok {
		for part, loc := range p.locs {
			if fm := m.feedManagerAt(loc); fm != nil {
				if j, ok := fm.Joint(conn.sourceSignature, part); ok {
					joints = append(joints, j)
				}
			}
		}
	}
	if graceful {
		// Each intake drains its subscription and ends. The subscription
		// drains where it is registered, so an intake that re-attaches to
		// it after this still takes its backlog; one subscribing after
		// this sees disconnecting closed and drains itself.
		conn.signalDisconnect()
		for _, j := range joints {
			if s, ok := j.Subscription(conn.subID); ok {
				s.drainAndClose()
			}
		}
		if job != nil {
			select {
			case <-job.Done():
			case <-time.After(5 * time.Second):
				job.Cancel()
				<-job.Done()
			}
		}
	} else if job != nil {
		job.Cancel()
		<-job.Done()
	}

	// Drop this connection's subscription at the source joints.
	for _, j := range joints {
		j.DropSubscription(conn.subID)
	}
	for _, st := range conn.stages {
		m.dropProductionLocked(st.signature, conn.id)
	}
	conn.stopTracker()
	m.dropAdmissionEverywhere("feed:" + conn.id)
	m.registry.Unregister(connMetricPrefix(conn.id))
	m.derefHeadLocked(conn)
}

// derefHeadLocked drops the connection's claim on its head section; an
// unreferenced head is stopped and its joints removed.
func (m *Manager) derefHeadLocked(conn *Connection) {
	for sig, h := range m.heads {
		if !h.refs[conn.id] {
			continue
		}
		delete(h.refs, conn.id)
		if len(h.refs) > 0 {
			continue
		}
		if h.job != nil {
			h.job.Cancel()
			<-h.job.Done()
		}
		m.dropProductionLocked(sig, "head:"+sig)
		m.dropAdmissionEverywhere("head:" + sig)
		delete(m.heads, sig)
	}
}

// failConnection marks a connection failed and tears it down forcedly.
func (m *Manager) failConnection(conn *Connection, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st := conn.State(); st == ConnFailed || st == ConnDisconnected {
		return
	}
	conn.mu.Lock()
	conn.failure = err
	conn.mu.Unlock()
	conn.setState(ConnFailed)
	m.teardownConnLocked(conn, false)
	m.sweepKeepAlivesLocked()
}

// handleHeadFatal terminates every connection fed by a head whose adaptor
// gave up reconnecting to the external source (§6.2.3).
func (m *Manager) handleHeadFatal(headSig string, cause error) {
	m.mu.Lock()
	h, ok := m.heads[headSig]
	if !ok {
		m.mu.Unlock()
		return
	}
	ids := make([]string, 0, len(h.refs))
	for id := range h.refs {
		ids = append(ids, id)
	}
	conns := make([]*Connection, 0, len(ids))
	for _, id := range ids {
		if c, ok := m.conns[id]; ok {
			conns = append(conns, c)
		}
	}
	m.mu.Unlock()
	for _, c := range conns {
		m.failConnection(c, fmt.Errorf("core: external source unreachable: %w", cause))
	}
}

// Close stops all connections, heads, and monitors.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	conns := make([]*Connection, 0, len(m.conns))
	for _, c := range m.conns {
		conns = append(conns, c)
	}
	for _, c := range conns {
		if st := c.State(); st == ConnConnected || st == ConnRecovering || st == ConnDisconnectedKeepAlive {
			c.storeEnabled.Store(false)
			m.teardownConnLocked(c, false)
			c.setState(ConnDisconnected)
		}
	}
	m.mu.Unlock()
	if m.unsubscribe != nil {
		m.unsubscribe()
	}
	close(m.stopCh)
	m.wg.Wait()
}
