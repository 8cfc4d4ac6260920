package core

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/hyracks"
	"asterixfeeds/internal/lsm"
	"asterixfeeds/internal/metadata"
	"asterixfeeds/internal/storage"
)

// harness wires a simulated cluster, per-node storage managers, a catalog,
// and a Central Feed Manager for end-to-end feed tests.
type harness struct {
	t       testing.TB
	cluster *hyracks.Cluster
	catalog *metadata.Catalog
	mgr     *Manager
	dir     string
}

func newHarness(t testing.TB, nodes ...string) *harness {
	t.Helper()
	if len(nodes) == 0 {
		nodes = []string{"A"}
	}
	dir := t.TempDir()
	cluster := hyracks.NewCluster(hyracks.Config{
		HeartbeatInterval: 5 * time.Millisecond,
		HeartbeatTimeout:  30 * time.Millisecond,
		QueueDepth:        8,
		FrameCapacity:     32,
	}, nodes...)
	for _, n := range nodes {
		sm := storage.NewManager(n, filepath.Join(dir, n), lsm.Options{})
		cluster.Node(n).SetService(storage.ServiceName, sm)
	}
	catalog := metadata.NewCatalog()
	if err := catalog.CreateDataverse("feeds"); err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(cluster, catalog, Options{
		MetricsWindow:   50 * time.Millisecond,
		AckTimeout:      200 * time.Millisecond,
		FrameCapacity:   16,
		ElasticInterval: 20 * time.Millisecond,
	})
	h := &harness{t: t, cluster: cluster, catalog: catalog, mgr: mgr, dir: dir}
	t.Cleanup(func() {
		mgr.Close()
		cluster.Close()
		for _, n := range nodes {
			if sm, ok := cluster.Node(n).Service(storage.ServiceName).(*storage.Manager); ok {
				sm.Close()
			}
		}
	})
	return h
}

// remakeManager replaces the harness's manager with one built from opts.
func (h *harness) remakeManager(opts Options) {
	h.mgr.Close()
	h.mgr = NewManager(h.cluster, h.catalog, opts)
	h.t.Cleanup(h.mgr.Close)
}

// addNode joins a new node with storage to the cluster.
func (h *harness) addNode(name string) {
	h.t.Helper()
	n, err := h.cluster.AddNode(name)
	if err != nil {
		h.t.Fatal(err)
	}
	n.SetService(storage.ServiceName, storage.NewManager(name, filepath.Join(h.dir, name), lsm.Options{}))
}

// tweet builds a test tweet record.
func tweet(id int, partition int, text string) *adm.Record {
	return (&adm.RecordBuilder{}).
		Add("id", adm.String(fmt.Sprintf("p%d-%06d", partition, id))).
		Add("message_text", adm.String(text)).
		Add("seq", adm.Int64(int64(id))).
		MustBuild()
}

// makeGen returns a generator emitting count tweets per partition (count<=0
// means until stopped), pausing interval between records when interval > 0.
func makeGen(count int, interval time.Duration) GeneratorFunc {
	return func(partition int, sink RecordSink, stop <-chan struct{}) error {
		for i := 0; count <= 0 || i < count; i++ {
			select {
			case <-stop:
				return nil
			default:
			}
			if err := sink.Emit(tweet(i, partition, "hello #world from #go")); err != nil {
				return nil
			}
			if interval > 0 {
				select {
				case <-stop:
					return nil
				case <-time.After(interval):
				}
			}
		}
		return nil
	}
}

// makeBurstGen returns a generator emitting burst records then sleeping
// interval, repeating until count records (count<=0: forever) or stop. The
// bursty shape sidesteps timer granularity, giving accurate high rates.
func makeBurstGen(count, burst int, interval time.Duration) GeneratorFunc {
	return func(partition int, sink RecordSink, stop <-chan struct{}) error {
		i := 0
		for count <= 0 || i < count {
			for b := 0; b < burst && (count <= 0 || i < count); b++ {
				select {
				case <-stop:
					return nil
				default:
				}
				if err := sink.Emit(tweet(i, partition, "hello #world from #go")); err != nil {
					return nil
				}
				i++
			}
			select {
			case <-stop:
				return nil
			case <-time.After(interval):
			}
		}
		return nil
	}
}

// declareTweetDataset declares an open dataset for tweets on the given
// nodegroup.
func (h *harness) declareTweetDataset(name string, nodegroup ...string) *storage.Dataset {
	h.t.Helper()
	rt := adm.MustRecordType(name+"Type", true, []adm.Field{
		{Name: "id", Type: adm.TString},
		{Name: "message_text", Type: adm.TString},
	})
	if len(nodegroup) == 0 {
		nodegroup = h.cluster.AliveNodes()
	}
	ds := &storage.Dataset{
		Dataverse:  "feeds",
		Name:       name,
		Type:       rt,
		PrimaryKey: []string{"id"},
		NodeGroup:  nodegroup,
	}
	if err := h.catalog.CreateDataset(ds); err != nil {
		h.t.Fatal(err)
	}
	return ds
}

// declarePrimaryFeed registers a primary feed backed by an in-process
// generator adaptor.
func (h *harness) declarePrimaryFeed(name string, gen GeneratorFunc, parallelism int, function string) {
	h.t.Helper()
	alias := "gen-" + name
	h.mgr.Adaptors().Register(alias, func(map[string]string) (ConfiguredAdaptor, error) {
		return &InProcessAdaptor{Gen: gen, Parallelism: parallelism, Push: true}, nil
	})
	err := h.catalog.CreateFeed(&metadata.FeedDecl{
		Dataverse: "feeds", Name: name, Primary: true,
		AdaptorName: alias, Function: function,
	})
	if err != nil {
		h.t.Fatal(err)
	}
}

// declareSecondaryFeed registers a secondary feed.
func (h *harness) declareSecondaryFeed(name, parent, function string) {
	h.t.Helper()
	err := h.catalog.CreateFeed(&metadata.FeedDecl{
		Dataverse: "feeds", Name: name, SourceFeed: parent, Function: function,
	})
	if err != nil {
		h.t.Fatal(err)
	}
}

// datasetCount sums live records across a dataset's partitions.
func (h *harness) datasetCount(ds *storage.Dataset) int {
	h.t.Helper()
	total := 0
	for _, node := range ds.NodeGroup {
		nc := h.cluster.Node(node)
		if nc == nil || !nc.Alive() {
			continue
		}
		sm, _ := nc.Service(storage.ServiceName).(*storage.Manager)
		if sm == nil {
			continue
		}
		p := sm.Partition(ds.QualifiedName())
		if p == nil {
			continue
		}
		n, err := p.Count()
		if err != nil {
			h.t.Fatal(err)
		}
		total += n
	}
	return total
}

// waitFor polls cond until it returns true or the timeout elapses.
func waitFor(t testing.TB, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitStable polls value() until it stops changing for quiet, returning the
// final value.
func waitStable(t testing.TB, timeout, quiet time.Duration, value func() int) int {
	t.Helper()
	deadline := time.Now().Add(timeout)
	last := value()
	lastChange := time.Now()
	for time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		cur := value()
		if cur != last {
			last = cur
			lastChange = time.Now()
			continue
		}
		if time.Since(lastChange) >= quiet {
			return cur
		}
	}
	return last
}
