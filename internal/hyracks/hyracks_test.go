package hyracks

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testConfig() Config {
	return Config{
		HeartbeatInterval: 5 * time.Millisecond,
		HeartbeatTimeout:  30 * time.Millisecond,
		QueueDepth:        4,
	}
}

// genOp emits count records, each an 8-byte little-endian sequence number
// offset by the partition index. With tracked set, every frame carries the
// IDs column, each id a function of its record's key (trackedID).
type genOp struct {
	count   int
	tracked bool
}

func trackedID(key uint64) uint64 { return key ^ 0xA1A1A1A1 }

func (g *genOp) Name() string { return "gen" }

func (g *genOp) CreateRuntime(ctx *TaskContext, out Writer) (OperatorRuntime, error) {
	return &genRuntime{op: g, ctx: ctx, out: out}, nil
}

type genRuntime struct {
	op  *genOp
	ctx *TaskContext
	out Writer
}

func (r *genRuntime) Open() error            { return r.out.Open() }
func (r *genRuntime) NextFrame(*Frame) error { return errors.New("gen is a source") }
func (r *genRuntime) Close() error           { return r.out.Close() }
func (r *genRuntime) Fail(err error)         { r.out.Fail(err) }

func (r *genRuntime) Run() error {
	defer r.out.Close()
	f := NewFrame(8)
	for i := 0; i < r.op.count; i++ {
		select {
		case <-r.ctx.Canceled:
			return nil
		default:
		}
		rec := make([]byte, 8)
		key := uint64(i*r.ctx.NumPartitions + r.ctx.Partition)
		binary.LittleEndian.PutUint64(rec, key)
		f.Append(rec)
		if r.op.tracked {
			f.IDs = append(f.IDs, trackedID(key))
		}
		if f.Len() == 8 {
			if err := r.out.NextFrame(f); err != nil {
				return err
			}
			f = NewFrame(8)
		}
	}
	if f.Len() > 0 {
		return r.out.NextFrame(f)
	}
	return nil
}

// collectOp gathers every record it sees into a shared sink, counting the
// tracked records whose id arrived detached from its record.
type collectOp struct {
	mu       sync.Mutex
	recs     map[string][]uint64 // per node
	frames   map[string]int64    // per node
	tracked  int
	badPairs int
}

func newCollectOp() *collectOp {
	return &collectOp{recs: make(map[string][]uint64), frames: make(map[string]int64)}
}

func (c *collectOp) Name() string { return "collect" }

func (c *collectOp) CreateRuntime(ctx *TaskContext, out Writer) (OperatorRuntime, error) {
	return &collectRuntime{op: c, ctx: ctx, out: out}, nil
}

func (c *collectOp) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, rs := range c.recs {
		n += len(rs)
	}
	return n
}

func (c *collectOp) all() map[uint64]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint64]int)
	for _, rs := range c.recs {
		for _, r := range rs {
			out[r]++
		}
	}
	return out
}

type collectRuntime struct {
	op  *collectOp
	ctx *TaskContext
	out Writer
}

func (r *collectRuntime) Open() error { return r.out.Open() }

func (r *collectRuntime) NextFrame(f *Frame) error {
	r.op.mu.Lock()
	r.op.frames[r.ctx.NodeID]++
	for i, rec := range f.Records {
		key := binary.LittleEndian.Uint64(rec)
		r.op.recs[r.ctx.NodeID] = append(r.op.recs[r.ctx.NodeID], key)
		if len(f.IDs) > 0 {
			r.op.tracked++
			if len(f.IDs) != len(f.Records) || f.IDs[i] != trackedID(key) {
				r.op.badPairs++
			}
		}
	}
	r.op.mu.Unlock()
	return r.out.NextFrame(f)
}

func (r *collectRuntime) Close() error   { return r.out.Close() }
func (r *collectRuntime) Fail(err error) { r.out.Fail(err) }

// failOp returns an error on the nth record it sees.
type failOp struct {
	failAt int64
	seen   atomic.Int64
}

func (f *failOp) Name() string { return "failer" }

func (f *failOp) CreateRuntime(ctx *TaskContext, out Writer) (OperatorRuntime, error) {
	return &failRuntime{op: f, out: out}, nil
}

type failRuntime struct {
	op  *failOp
	out Writer
}

func (r *failRuntime) Open() error { return r.out.Open() }

func (r *failRuntime) NextFrame(f *Frame) error {
	for range f.Records {
		if r.op.seen.Add(1) >= r.op.failAt {
			return errors.New("synthetic operator failure")
		}
	}
	return r.out.NextFrame(f)
}

func (r *failRuntime) Close() error   { return r.out.Close() }
func (r *failRuntime) Fail(err error) { r.out.Fail(err) }

func leUint64Hash(rec []byte) uint64 { return binary.LittleEndian.Uint64(rec) }

func TestSimpleJobOneToOne(t *testing.T) {
	c := NewCluster(testConfig(), "A", "B")
	defer c.Close()

	spec := &JobSpec{Name: "simple"}
	sink := newCollectOp()
	gen := spec.AddOperator(&genOp{count: 100}, LocationConstraint("A", "B"))
	col := spec.AddOperator(sink, LocationConstraint("A", "B"))
	spec.Connect(gen, col, OneToOne, nil)

	j, err := c.StartJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := sink.total(); got != 200 {
		t.Fatalf("collected %d records, want 200", got)
	}
	seen := sink.all()
	for i := 0; i < 200; i++ {
		if seen[uint64(i)] != 1 {
			t.Fatalf("record %d seen %d times", i, seen[uint64(i)])
		}
	}
	if j.Status() != JobFinished {
		t.Fatalf("status = %v, want finished", j.Status())
	}
}

// TestNodeCountsFrameTraffic: each node counts the frames, and the records
// in them, that its consumer tasks dequeued — here exactly what the
// collector tasks on that node received.
func TestNodeCountsFrameTraffic(t *testing.T) {
	nodes := []string{"A", "B"}
	c := NewCluster(testConfig(), nodes...)
	defer c.Close()

	spec := &JobSpec{Name: "traffic"}
	sink := newCollectOp()
	gen := spec.AddOperator(&genOp{count: 101}, LocationConstraint(nodes...))
	col := spec.AddOperator(sink, LocationConstraint(nodes...))
	spec.Connect(gen, col, MToNHashPartition, leUint64Hash)

	j, err := c.StartJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for _, n := range nodes {
		node := c.Node(n)
		frames, records := node.Frames.Value(), node.Records.Value()
		if frames == 0 || frames != sink.frames[n] || records != int64(len(sink.recs[n])) {
			t.Errorf("node %s counted %d frames, %d records; its collector received %d frames, %d records",
				n, frames, records, sink.frames[n], len(sink.recs[n]))
		}
	}
}

func TestHashPartitionRoutesByKey(t *testing.T) {
	nodes := []string{"A", "B", "C"}
	for _, tracked := range []bool{false, true} {
		t.Run(fmt.Sprintf("tracked=%v", tracked), func(t *testing.T) {
			c := NewCluster(testConfig(), nodes...)
			defer c.Close()

			spec := &JobSpec{Name: "hash"}
			sink := newCollectOp()
			gen := spec.AddOperator(&genOp{count: 300, tracked: tracked}, CountConstraint(1))
			col := spec.AddOperator(sink, LocationConstraint(nodes...))
			spec.Connect(gen, col, MToNHashPartition, leUint64Hash)

			j, err := c.StartJob(spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Wait(); err != nil {
				t.Fatal(err)
			}
			if sink.total() != 300 {
				t.Fatalf("collected %d, want 300", sink.total())
			}
			// Every record lands on the node its key hashes to, still paired
			// with its own id when the frames are tracked.
			sink.mu.Lock()
			defer sink.mu.Unlock()
			for i, n := range nodes {
				if len(sink.recs[n]) != 100 {
					t.Fatalf("node %s got %d records, want 100", n, len(sink.recs[n]))
				}
				for _, key := range sink.recs[n] {
					if key%3 != uint64(i) {
						t.Fatalf("key %d routed to node %s", key, n)
					}
				}
			}
			wantTracked := 0
			if tracked {
				wantTracked = 300
			}
			if sink.tracked != wantTracked || sink.badPairs != 0 {
				t.Fatalf("tracked records = %d (want %d), detached ids = %d", sink.tracked, wantTracked, sink.badPairs)
			}
		})
	}
	// The router driven directly: bucketed records are the input byte slices
	// themselves, and a frame whose IDs column does not match its records is
	// rejected before anything is forwarded.
	t.Run("router", func(t *testing.T) {
		c := NewCluster(testConfig(), "A", "B")
		defer c.Close()
		queues := []*inQueue{
			{ch: make(chan *Frame, 1), node: c.Node("A"), producers: 1},
			{ch: make(chan *Frame, 1), node: c.Node("B"), producers: 1},
		}
		r := &router{strategy: MToNHashPartition, keyHash: leUint64Hash, queues: queues}

		in := NewFrame(10)
		for key := uint64(0); key < 10; key++ {
			in.Append(binary.LittleEndian.AppendUint64(nil, key))
			in.IDs = append(in.IDs, trackedID(key))
		}
		if err := r.NextFrame(in); err != nil {
			t.Fatal(err)
		}
		for i, q := range queues {
			f := <-q.ch
			if f.Len() != 5 || len(f.IDs) != 5 {
				t.Fatalf("queue %d: %d records, %d ids, want 5 and 5", i, f.Len(), len(f.IDs))
			}
			for k, rec := range f.Records {
				key := binary.LittleEndian.Uint64(rec)
				if key%2 != uint64(i) || f.IDs[k] != trackedID(key) {
					t.Fatalf("queue %d: key %d arrived with id %#x", i, key, f.IDs[k])
				}
				if &rec[0] != &in.Records[key][0] {
					t.Fatalf("queue %d: record %d was copied", i, key)
				}
			}
		}

		for _, strategy := range []ConnectorStrategy{OneToOne, MToNRandomPartition, MToNHashPartition} {
			r := &router{strategy: strategy, keyHash: leUint64Hash, queues: queues}
			bad := &Frame{Records: in.Records[:2], IDs: in.IDs[:1]}
			if err := r.NextFrame(bad); err == nil {
				t.Fatalf("strategy %d accepted 1 id for 2 records", strategy)
			}
			for i, q := range queues {
				if len(q.ch) != 0 {
					t.Fatalf("strategy %d forwarded a malformed frame to queue %d", strategy, i)
				}
			}
		}
	})
}

// TestHashRouterAllocsPerFrame: the hash connector cuts every consumer's
// bucket out of one records array and one ids array, so a frame of 1, 5 or
// 128 records costs at most three allocations. Each bucket keeps its
// records in frame order, each with its own id, and appending to one
// bucket leaves the next one alone.
func TestHashRouterAllocsPerFrame(t *testing.T) {
	c := NewCluster(testConfig(), "A", "B", "C")
	defer c.Close()
	queues := make([]*inQueue, 3)
	for i, n := range []string{"A", "B", "C"} {
		queues[i] = &inQueue{ch: make(chan *Frame, 1), node: c.Node(n), producers: 1}
	}
	r := &router{strategy: MToNHashPartition, keyHash: leUint64Hash, queues: queues}
	for _, size := range []int{1, 5, 128} {
		in := NewFrame(size)
		for k := 0; k < size; k++ {
			key := uint64(k*7 + 1) // keys out of step with the consumer count
			in.Append(binary.LittleEndian.AppendUint64(nil, key))
			in.IDs = append(in.IDs, trackedID(key))
		}
		var out [3]*Frame
		route := func() {
			if err := r.NextFrame(in); err != nil {
				t.Fatal(err)
			}
			for i, q := range queues {
				out[i] = nil
				select {
				case out[i] = <-q.ch:
				default:
				}
			}
		}
		if n := testing.AllocsPerRun(100, route); n > 3 {
			t.Fatalf("%d-record frame: %.1f allocations, want at most 3", size, n)
		}
		route()
		got := 0
		for i, f := range out {
			if f == nil {
				continue
			}
			prev := -1
			for k, rec := range f.Records {
				key := binary.LittleEndian.Uint64(rec)
				pos := int(key-1) / 7
				if key%3 != uint64(i) || f.IDs[k] != trackedID(key) || pos <= prev {
					t.Fatalf("%d-record frame, consumer %d: key %d at %d with id %#x", size, i, key, k, f.IDs[k])
				}
				prev = pos
			}
			got += f.Len()
		}
		if got != size {
			t.Fatalf("%d-record frame: consumers got %d records", size, got)
		}
		if out[0] != nil && out[1] != nil {
			_ = append(out[0].Records, []byte("x"))
			_ = append(out[0].IDs, 0)
			if rec := out[1].Records[0]; len(rec) != 8 || out[1].IDs[0] != trackedID(binary.LittleEndian.Uint64(rec)) {
				t.Fatalf("%d-record frame: appending to one bucket wrote into the next", size)
			}
		}
	}
}

func TestRandomPartitionBalances(t *testing.T) {
	c := NewCluster(testConfig(), "A", "B")
	defer c.Close()

	spec := &JobSpec{Name: "rand"}
	sink := newCollectOp()
	gen := spec.AddOperator(&genOp{count: 160}, CountConstraint(1))
	col := spec.AddOperator(sink, LocationConstraint("A", "B"))
	spec.Connect(gen, col, MToNRandomPartition, nil)

	j, err := c.StartJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.recs["A"]) == 0 || len(sink.recs["B"]) == 0 {
		t.Fatalf("round robin left a consumer idle: A=%d B=%d", len(sink.recs["A"]), len(sink.recs["B"]))
	}
}

func TestOperatorErrorFailsJob(t *testing.T) {
	c := NewCluster(testConfig(), "A")
	defer c.Close()

	spec := &JobSpec{Name: "failing"}
	gen := spec.AddOperator(&genOp{count: 1000}, CountConstraint(1))
	fl := spec.AddOperator(&failOp{failAt: 10}, CountConstraint(1))
	sink := spec.AddOperator(newCollectOp(), CountConstraint(1))
	spec.Connect(gen, fl, OneToOne, nil)
	spec.Connect(fl, sink, OneToOne, nil)

	j, err := c.StartJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	err = j.Wait()
	if err == nil {
		t.Fatal("job with failing operator completed, want error")
	}
	if j.Status() != JobFailed {
		t.Fatalf("status = %v, want failed", j.Status())
	}
}

func TestNodeDeathFailsJobAndFiresClusterEvent(t *testing.T) {
	c := NewCluster(testConfig(), "A", "B")
	defer c.Close()

	deadCh := make(chan string, 4)
	cancel := c.SubscribeCluster(func(ev ClusterEvent) {
		if ev.Kind == NodeDead {
			deadCh <- ev.NodeID
		}
	})
	defer cancel()

	// A source that runs until canceled.
	spec := &JobSpec{Name: "longrun"}
	gen := spec.AddOperator(&infiniteOp{}, LocationConstraint("B"))
	sink := spec.AddOperator(newCollectOp(), LocationConstraint("B"))
	spec.Connect(gen, sink, OneToOne, nil)

	j, err := c.StartJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := c.KillNode("B"); err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err == nil {
		t.Fatal("job survived node death, want failure")
	}
	select {
	case id := <-deadCh:
		if id != "B" {
			t.Fatalf("dead node = %q, want B", id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no NodeDead cluster event after kill")
	}
	alive := c.AliveNodes()
	if len(alive) != 1 || alive[0] != "A" {
		t.Fatalf("AliveNodes = %v, want [A]", alive)
	}
}

// infiniteOp emits frames until canceled.
type infiniteOp struct{}

func (i *infiniteOp) Name() string { return "infinite" }

func (i *infiniteOp) CreateRuntime(ctx *TaskContext, out Writer) (OperatorRuntime, error) {
	return &infiniteRuntime{ctx: ctx, out: out}, nil
}

type infiniteRuntime struct {
	ctx *TaskContext
	out Writer
}

func (r *infiniteRuntime) Open() error            { return r.out.Open() }
func (r *infiniteRuntime) NextFrame(*Frame) error { return errors.New("source") }
func (r *infiniteRuntime) Close() error           { return r.out.Close() }
func (r *infiniteRuntime) Fail(err error)         { r.out.Fail(err) }

func (r *infiniteRuntime) Run() error {
	defer r.out.Close()
	rec := make([]byte, 8)
	for seq := uint64(0); ; seq++ {
		select {
		case <-r.ctx.Canceled:
			return nil
		default:
		}
		binary.LittleEndian.PutUint64(rec, seq)
		f := NewFrame(1)
		f.Append(append([]byte(nil), rec...))
		if err := r.out.NextFrame(f); err != nil {
			return nil
		}
	}
}

func TestCancelStopsLongRunningJob(t *testing.T) {
	c := NewCluster(testConfig(), "A")
	defer c.Close()

	spec := &JobSpec{Name: "cancelme"}
	gen := spec.AddOperator(&infiniteOp{}, CountConstraint(1))
	sink := spec.AddOperator(newCollectOp(), CountConstraint(1))
	spec.Connect(gen, sink, OneToOne, nil)

	j, err := c.StartJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	j.Cancel()
	if err := j.Wait(); !errors.Is(err, ErrJobCanceled) {
		t.Fatalf("Wait after cancel = %v, want ErrJobCanceled", err)
	}
	if j.Status() != JobCanceled {
		t.Fatalf("status = %v, want canceled", j.Status())
	}
}

// A job runs from StartJob to a finished status, and Wait reports its end.
func TestJobLifecycle(t *testing.T) {
	c := NewCluster(testConfig(), "A")
	defer c.Close()

	spec := &JobSpec{Name: "lifecycle"}
	gen := spec.AddOperator(&genOp{count: 10}, CountConstraint(1))
	sink := spec.AddOperator(newCollectOp(), CountConstraint(1))
	spec.Connect(gen, sink, OneToOne, nil)
	j, err := c.StartJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st != JobRunning && st != JobFinished {
		t.Fatalf("status after StartJob = %v, want running or finished", st)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st != JobFinished {
		t.Fatalf("status after Wait = %v, want finished", st)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	empty := &JobSpec{Name: "empty"}
	if err := empty.Validate(); err == nil {
		t.Error("empty spec validated")
	}

	selfLoop := &JobSpec{Name: "loop"}
	op := selfLoop.AddOperator(&genOp{}, CountConstraint(1))
	selfLoop.Connect(op, op, OneToOne, nil)
	if err := selfLoop.Validate(); err == nil {
		t.Error("self loop validated")
	}

	noHash := &JobSpec{Name: "nohash"}
	a := noHash.AddOperator(&genOp{}, CountConstraint(1))
	b := noHash.AddOperator(newCollectOp(), CountConstraint(1))
	noHash.Connect(a, b, MToNHashPartition, nil)
	if err := noHash.Validate(); err == nil {
		t.Error("hash connector without KeyHash validated")
	}

	// An operator's output goes through one connector; there is no
	// fan-out writer behind a second one.
	fanOut := &JobSpec{Name: "fanout"}
	src := fanOut.AddOperator(&genOp{}, CountConstraint(1))
	c1 := fanOut.AddOperator(newCollectOp(), CountConstraint(1))
	c2 := fanOut.AddOperator(newCollectOp(), CountConstraint(1))
	fanOut.Connect(src, c1, OneToOne, nil)
	fanOut.Connect(src, c2, OneToOne, nil)
	if err := fanOut.Validate(); err == nil {
		t.Error("second outbound connector validated")
	}
}

func TestPinToDeadNodeIsRejected(t *testing.T) {
	c := NewCluster(testConfig(), "A", "B")
	defer c.Close()
	if err := c.KillNode("B"); err != nil {
		t.Fatal(err)
	}
	spec := &JobSpec{Name: "pinned"}
	spec.AddOperator(&genOp{count: 1}, LocationConstraint("B"))
	if _, err := c.StartJob(spec); err == nil {
		t.Fatal("job pinned to dead node started")
	}
}

func TestCountConstraintSpreadsOverNodes(t *testing.T) {
	c := NewCluster(testConfig(), "A", "B", "C")
	defer c.Close()
	spec := &JobSpec{Name: "count"}
	sink := newCollectOp()
	gen := spec.AddOperator(&genOp{count: 30}, CountConstraint(3))
	col := spec.AddOperator(sink, CountConstraint(3))
	spec.Connect(gen, col, OneToOne, nil)
	j, err := c.StartJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	pl := j.Placement()
	if len(pl) != 2 {
		t.Fatalf("placement entries = %d, want 2", len(pl))
	}
	seen := map[string]bool{}
	for _, loc := range pl[0].Locations {
		seen[loc] = true
	}
	if len(seen) != 3 {
		t.Fatalf("count constraint placed on %d distinct nodes, want 3: %v", len(seen), pl[0].Locations)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultConstraintUsesAllNodes(t *testing.T) {
	c := NewCluster(testConfig(), "A", "B", "C", "D")
	defer c.Close()
	spec := &JobSpec{Name: "default"}
	sink := newCollectOp()
	gen := spec.AddOperator(&genOp{count: 10}, PartitionConstraint{})
	col := spec.AddOperator(sink, PartitionConstraint{})
	spec.Connect(gen, col, OneToOne, nil)
	j, err := c.StartJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(j.Placement()[0].Locations); got != 4 {
		t.Fatalf("default constraint parallelism = %d, want 4", got)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if sink.total() != 40 {
		t.Fatalf("collected %d, want 40", sink.total())
	}
}

func TestAddNodeDuplicate(t *testing.T) {
	c := NewCluster(testConfig(), "A")
	defer c.Close()
	if _, err := c.AddNode("A"); err == nil {
		t.Fatal("duplicate AddNode succeeded")
	}
	if _, err := c.AddNode("E"); err != nil {
		t.Fatalf("AddNode(E): %v", err)
	}
	if len(c.AllNodes()) != 2 {
		t.Fatalf("AllNodes = %v", c.AllNodes())
	}
}

func TestServicesRegistry(t *testing.T) {
	c := NewCluster(testConfig(), "A")
	defer c.Close()
	n := c.Node("A")
	n.SetService("x", 42)
	if got := n.Service("x"); got != 42 {
		t.Fatalf("Service(x) = %v", got)
	}
	if got := n.Service("missing"); got != nil {
		t.Fatalf("Service(missing) = %v, want nil", got)
	}
}

func TestFrameHelpers(t *testing.T) {
	f := NewFrame(4)
	f.Append([]byte{1, 2})
	f.Append([]byte{3})
	if f.Len() != 2 || f.Bytes() != 3 {
		t.Fatalf("Len/Bytes = %d/%d", f.Len(), f.Bytes())
	}

	f.IDs = []uint64{10, 11}
	if f.Bytes() != 3+2*8 {
		t.Fatalf("tracked Bytes = %d, want records + 8 per id", f.Bytes())
	}
}

func TestBackPressureDoesNotDeadlock(t *testing.T) {
	// A slow consumer with a tiny queue must not deadlock the producer.
	cfg := testConfig()
	cfg.QueueDepth = 1
	c := NewCluster(cfg, "A")
	defer c.Close()

	slow := &slowSink{delay: 100 * time.Microsecond}
	spec := &JobSpec{Name: "bp"}
	gen := spec.AddOperator(&genOp{count: 200}, CountConstraint(1))
	snk := spec.AddOperator(slow, CountConstraint(1))
	spec.Connect(gen, snk, OneToOne, nil)

	j, err := c.StartJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- j.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("back-pressure deadlock")
	}
	if slow.count.Load() != 200 {
		t.Fatalf("slow sink saw %d records, want 200", slow.count.Load())
	}
}

type slowSink struct {
	delay time.Duration
	count atomic.Int64
}

func (s *slowSink) Name() string { return "slowsink" }

func (s *slowSink) CreateRuntime(ctx *TaskContext, out Writer) (OperatorRuntime, error) {
	return &slowSinkRuntime{op: s, out: out}, nil
}

type slowSinkRuntime struct {
	op  *slowSink
	out Writer
}

func (r *slowSinkRuntime) Open() error { return r.out.Open() }

func (r *slowSinkRuntime) NextFrame(f *Frame) error {
	time.Sleep(r.op.delay)
	r.op.count.Add(int64(f.Len()))
	return r.out.NextFrame(f)
}

func (r *slowSinkRuntime) Close() error   { return r.out.Close() }
func (r *slowSinkRuntime) Fail(err error) { r.out.Fail(err) }

func TestClusterCloseCancelsJobs(t *testing.T) {
	c := NewCluster(testConfig(), "A")
	spec := &JobSpec{Name: "closeme"}
	gen := spec.AddOperator(&infiniteOp{}, CountConstraint(1))
	sink := spec.AddOperator(newCollectOp(), CountConstraint(1))
	spec.Connect(gen, sink, OneToOne, nil)
	j, err := c.StartJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { c.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	if j.Status() == JobRunning {
		t.Fatal("job still running after cluster close")
	}
	if _, err := c.StartJob(spec); err == nil {
		t.Fatal("StartJob succeeded on closed cluster")
	}
}

func TestJobStatusStrings(t *testing.T) {
	for st, want := range map[JobStatus]string{
		JobPending: "pending", JobRunning: "running", JobFinished: "finished",
		JobFailed: "failed", JobCanceled: "canceled",
	} {
		if st.String() != want {
			t.Errorf("JobStatus(%d).String() = %q, want %q", st, st.String(), want)
		}
	}
}

func BenchmarkOneToOnePipeline(b *testing.B) {
	c := NewCluster(testConfig(), "A")
	defer c.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec := &JobSpec{Name: fmt.Sprintf("bench-%d", i)}
		gen := spec.AddOperator(&genOp{count: 1000}, CountConstraint(1))
		sink := spec.AddOperator(newCollectOp(), CountConstraint(1))
		spec.Connect(gen, sink, OneToOne, nil)
		j, err := c.StartJob(spec)
		if err != nil {
			b.Fatal(err)
		}
		if err := j.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestScheduleDelayAppliesPerJob(t *testing.T) {
	cfg := testConfig()
	cfg.ScheduleDelay = 30 * time.Millisecond
	c := NewCluster(cfg, "A")
	defer c.Close()
	spec := &JobSpec{Name: "delayed"}
	gen := spec.AddOperator(&genOp{count: 1}, CountConstraint(1))
	sink := spec.AddOperator(newCollectOp(), CountConstraint(1))
	spec.Connect(gen, sink, OneToOne, nil)

	start := time.Now()
	j, err := c.StartJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < cfg.ScheduleDelay {
		t.Fatalf("StartJob returned in %v, want >= %v (simulated planning latency)", elapsed, cfg.ScheduleDelay)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestNodeJoinEventFires(t *testing.T) {
	c := NewCluster(testConfig(), "A")
	defer c.Close()
	joined := make(chan string, 1)
	cancel := c.SubscribeCluster(func(ev ClusterEvent) {
		if ev.Kind == NodeJoined {
			joined <- ev.NodeID
		}
	})
	defer cancel()
	if _, err := c.AddNode("B"); err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-joined:
		if id != "B" {
			t.Fatalf("joined node = %q", id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no NodeJoined event")
	}
}

// TestInFlightFrameBytesLedger asserts the per-node in-flight frame-byte
// account — the execution layer's contribution to the ingestion governor's
// memory picture — returns to zero once a job completes, both on the normal
// path (every frame dequeued by its consumer) and on the cancel path (the
// job-completion drain credits back frames a canceled task left queued).
func TestInFlightFrameBytesLedger(t *testing.T) {
	t.Run("completed", func(t *testing.T) {
		c := NewCluster(testConfig(), "A", "B")
		defer c.Close()
		col := newCollectOp()
		spec := &JobSpec{Name: "inflight-done"}
		gen := spec.AddOperator(&genOp{count: 200}, LocationConstraint("A", "B"))
		snk := spec.AddOperator(col, LocationConstraint("A", "B"))
		spec.Connect(gen, snk, OneToOne, nil)
		j, err := c.StartJob(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		for _, n := range []string{"A", "B"} {
			if got := c.Node(n).InFlightFrameBytes(); got != 0 {
				t.Fatalf("node %s in-flight bytes = %d after completion, want 0", n, got)
			}
		}
	})
	t.Run("tracked", func(t *testing.T) {
		// A tracking id is charged at 8 bytes: a tracked frame weighs what
		// its records do plus its IDs column, and is credited back in full.
		c := NewCluster(testConfig(), "A", "B")
		defer c.Close()
		q := &inQueue{ch: make(chan *Frame, 1), node: c.Node("A"), producers: 1}
		if err := q.send(&Frame{Records: [][]byte{{1, 2, 3}, {4}}, IDs: []uint64{7, 8}}, nil); err != nil {
			t.Fatal(err)
		}
		if got := c.Node("A").InFlightFrameBytes(); got != 4+2*8 {
			t.Fatalf("in-flight bytes = %d for 4 record bytes and 2 ids, want 20", got)
		}

		col := newCollectOp()
		spec := &JobSpec{Name: "inflight-tracked"}
		gen := spec.AddOperator(&genOp{count: 200, tracked: true}, CountConstraint(1))
		snk := spec.AddOperator(col, LocationConstraint("A", "B"))
		spec.Connect(gen, snk, MToNHashPartition, leUint64Hash)
		j, err := c.StartJob(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		if a, b := c.Node("A").InFlightFrameBytes(), c.Node("B").InFlightFrameBytes(); a != 4+2*8 || b != 0 {
			t.Fatalf("in-flight bytes = %d, %d after a tracked job, want only the 20 still queued on A", a, b)
		}
	})
	t.Run("canceled", func(t *testing.T) {
		c := NewCluster(testConfig(), "A")
		defer c.Close()
		spec := &JobSpec{Name: "inflight-cancel"}
		gen := spec.AddOperator(&infiniteOp{}, CountConstraint(1))
		snk := spec.AddOperator(&slowSink{delay: 200 * time.Microsecond}, CountConstraint(1))
		spec.Connect(gen, snk, OneToOne, nil)
		j, err := c.StartJob(spec)
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond) // let frames pile up in the queue
		j.Cancel()
		if err := j.Wait(); !errors.Is(err, ErrJobCanceled) {
			t.Fatalf("Wait after cancel = %v, want ErrJobCanceled", err)
		}
		if got := c.Node("A").InFlightFrameBytes(); got != 0 {
			t.Fatalf("in-flight bytes = %d after cancel drain, want 0", got)
		}
	})
}
