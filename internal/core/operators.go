package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/governor"
	"asterixfeeds/internal/hyracks"
	"asterixfeeds/internal/storage"
)

// governorOf fetches the node-local ingestion governor from a task context;
// nil when the embedding instance runs ungoverned.
func governorOf(ctx *hyracks.TaskContext) *governor.Governor {
	g, _ := ctx.Service(governor.ServiceName).(*governor.Governor)
	return g
}

func osMkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// defaultFlushInterval bounds how long a partially filled frame sits in a
// collect buffer before being pushed out, so low-rate feeds stay live.
const defaultFlushInterval = 10 * time.Millisecond

// ---------------------------------------------------------------------------
// FeedCollect: the head-section operator. Each instance houses one adaptor
// instance, manages its lifecycle, and deposits the parsed records into its
// feed joint (§5.3.1). The head job consists solely of collect instances
// (the paper pairs them with a no-op NullSink; here the joint is the only
// output).

type collectOp struct {
	signature string
	adaptor   ConfiguredAdaptor
	frameCap  int
	// onFatal reports adaptor give-up to the Central Feed Manager.
	onFatal func(error)
}

// Name implements hyracks.OperatorDescriptor.
func (o *collectOp) Name() string { return "FeedCollect(" + o.signature + ")" }

// CreateRuntime implements hyracks.OperatorDescriptor.
func (o *collectOp) CreateRuntime(ctx *hyracks.TaskContext, out hyracks.Writer) (hyracks.OperatorRuntime, error) {
	return &collectRuntime{op: o, ctx: ctx, out: out}, nil
}

type collectRuntime struct {
	op  *collectOp
	ctx *hyracks.TaskContext
	out hyracks.Writer
}

func (r *collectRuntime) Open() error                    { return r.out.Open() }
func (r *collectRuntime) NextFrame(*hyracks.Frame) error { return errors.New("collect is a source") }
func (r *collectRuntime) Close() error                   { return r.out.Close() }
func (r *collectRuntime) Fail(err error)                 { r.out.Fail(err) }

// Run implements hyracks.SourceRuntime.
func (r *collectRuntime) Run() error {
	defer r.out.Close()
	fm, err := feedManagerOf(r.ctx)
	if err != nil {
		return err
	}
	joint := fm.CreateJoint(r.op.signature, r.ctx.Partition)

	// Defer adaptor creation until the output is requested (§5.3.1).
	if !joint.WaitForSubscriber(r.ctx.Canceled) {
		return nil
	}
	adaptor, err := r.op.adaptor.NewInstance(r.ctx.Partition)
	if err != nil {
		return fmt.Errorf("core: creating adaptor instance %d: %w", r.ctx.Partition, err)
	}

	sink := newBatchingSink(joint, r.frameCap(), defaultFlushInterval, r.ctx.Canceled)
	if g := governorOf(r.ctx); g != nil {
		// The head gate: deposits block while the node is over budget and
		// a non-lossy subscriber is attached. The class is refreshed per
		// deposit from the joint's subscribers.
		sink.adm = g.Admission("head:"+r.op.signature, governor.ClassNormal)
	}
	defer sink.stop()
	if err := adaptor.Start(sink, r.ctx.Canceled); err != nil {
		// The adaptor found reconnection futile: the feed ends (§6.2.3).
		if r.op.onFatal != nil {
			r.op.onFatal(err)
		}
		return err
	}
	return nil
}

func (r *collectRuntime) frameCap() int {
	if r.op.frameCap > 0 {
		return r.op.frameCap
	}
	return 128
}

// batchingSink batches emitted records into frames and deposits them into a
// joint, flushing on size or on a timer.
type batchingSink struct {
	joint    *Joint
	cap      int
	mu       sync.Mutex
	buf      *hyracks.Frame
	stopCh   chan struct{}
	stopOnce sync.Once
	canceled <-chan struct{}
	// adm, when set, gates deposits through the node governor: while the
	// node is over budget and the joint has a non-lossy subscriber, the
	// sink blocks (slowing the adaptor) instead of growing the backlog.
	adm *governor.Admission
}

func newBatchingSink(joint *Joint, frameCap int, flushEvery time.Duration, canceled <-chan struct{}) *batchingSink {
	s := &batchingSink{
		joint:    joint,
		cap:      frameCap,
		buf:      hyracks.NewFrame(frameCap),
		stopCh:   make(chan struct{}),
		canceled: canceled,
	}
	go func() {
		t := time.NewTicker(flushEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.flush()
			case <-s.stopCh:
				return
			}
		}
	}()
	return s
}

// Emit implements RecordSink.
func (s *batchingSink) Emit(rec *adm.Record) error { return s.EmitEncoded(adm.Encode(rec)) }

// EmitEncoded implements RecordSink: enc joins the frame being batched as it
// is, not copied.
func (s *batchingSink) EmitEncoded(enc []byte) error {
	select {
	case <-s.canceled:
		return fmt.Errorf("core: feed collect canceled")
	default:
	}
	s.mu.Lock()
	s.buf.Append(enc)
	full := s.buf.Len() >= s.cap
	var out *hyracks.Frame
	if full {
		out = s.buf
		s.buf = hyracks.NewFrame(s.cap)
	}
	s.mu.Unlock()
	if out != nil {
		s.deposit(out)
	}
	return nil
}

func (s *batchingSink) flush() {
	s.mu.Lock()
	var out *hyracks.Frame
	if s.buf.Len() > 0 {
		out = s.buf
		s.buf = hyracks.NewFrame(s.cap)
	}
	s.mu.Unlock()
	if out != nil {
		s.deposit(out)
	}
}

// deposit hands one batched frame to the joint, first passing the head
// gate. The gate only blocks when a non-lossy subscriber is attached —
// lossy subscribers shed refused frames themselves, and blocking the head
// would starve them of the frames their policy is supposed to drop. A
// cancel during the gate still deposits: the frame's records were emitted
// by the adaptor and must reach the parked subscription state.
func (s *batchingSink) deposit(out *hyracks.Frame) {
	if s.adm != nil {
		if cls, ok := s.joint.headClass(); ok {
			s.adm.SetClass(cls)
			s.adm.Wait(int64(out.Bytes()), int64(out.Len()), s.canceled)
		}
	}
	s.joint.Deposit(out)
}

func (s *batchingSink) stop() {
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.flush()
}

// ---------------------------------------------------------------------------
// FeedIntake: the first operator of a tail section. Each instance locates
// the co-located source joint through the local Feed Manager's search API,
// subscribes (or re-attaches after a failure), and pushes arriving frames
// downstream (§5.3.1). With at-least-once enabled it assigns tracking ids
// and retains payloads until acknowledged (§5.6).

type intakeOp struct {
	conn *Connection
	// fault is the manager's injection hook (Options.FaultHook); installed
	// on the subscription as its spill fault. Nil in production.
	fault func(point string) error
}

// Name implements hyracks.OperatorDescriptor.
func (o *intakeOp) Name() string { return "FeedIntake(" + o.conn.id + ")" }

// CreateRuntime implements hyracks.OperatorDescriptor.
func (o *intakeOp) CreateRuntime(ctx *hyracks.TaskContext, out hyracks.Writer) (hyracks.OperatorRuntime, error) {
	return &intakeRuntime{op: o, ctx: ctx, out: out}, nil
}

type intakeRuntime struct {
	op  *intakeOp
	ctx *hyracks.TaskContext
	out hyracks.Writer
}

func (r *intakeRuntime) Open() error                    { return r.out.Open() }
func (r *intakeRuntime) NextFrame(*hyracks.Frame) error { return errors.New("intake is a source") }
func (r *intakeRuntime) Close() error                   { return r.out.Close() }
func (r *intakeRuntime) Fail(err error)                 { r.out.Fail(err) }

// Run implements hyracks.SourceRuntime.
func (r *intakeRuntime) Run() error {
	defer r.out.Close()
	conn := r.op.conn
	fm, err := feedManagerOf(r.ctx)
	if err != nil {
		return err
	}
	joint := fm.WaitJoint(conn.sourceSignature, r.ctx.Partition, r.ctx.Canceled)
	if joint == nil {
		return nil // canceled while waiting
	}
	spillPath := filepath.Join(spillDir(r.ctx), fmt.Sprintf("%s-p%d.spill", sanitize(conn.subID), r.ctx.Partition))
	sub, err := joint.Subscribe(conn.subID, conn.pol, spillPath)
	if err != nil {
		return err
	}
	sub.SetLatencyRecorder(conn.Metrics.IngestionLatency)
	if r.op.fault != nil {
		sub.SetSpillFault(r.op.fault)
	}
	if g := governorOf(r.ctx); g != nil {
		sub.SetAdmission(g.Admission("feed:"+conn.id, conn.pol.Priority))
	}
	// Unsubscribed or dropped, the subscription is reachable only from this
	// intake: whatever it still holds when the intake leaves — a drain cut
	// short, its spill file — is released with it.
	defer func() {
		if sub.isDraining() {
			sub.discardAndClose()
		}
	}()

	// Pump subscription frames into a channel so the main loop can also
	// service replays and disconnect signals.
	frames := make(chan *hyracks.Frame)
	pumpDone := make(chan struct{})
	go func() {
		defer close(frames)
		for {
			f, ok := sub.Next(r.ctx.Canceled)
			if !ok {
				return
			}
			select {
			case frames <- f:
			case <-r.ctx.Canceled:
				// The frame is already out of the subscription queue but
				// not yet handed downstream: put it back so the adopted
				// subscription still holds it for the next intake.
				sub.requeue(f)
				return
			case <-pumpDone:
				sub.requeue(f)
				return
			}
		}
	}()
	defer close(pumpDone)

	// Watch for a graceful disconnect: unsubscribe so the subscription
	// drains its backlog and then reports closed.
	unsubDone := make(chan struct{})
	go func() {
		select {
		case <-conn.disconnecting:
			joint.Unsubscribe(conn.subID)
		case <-unsubDone:
		}
	}()
	defer close(unsubDone)

	var replay <-chan *hyracks.Frame
	if conn.tracker != nil {
		replay = conn.tracker.register(r.ctx.Partition)
	}

	for {
		select {
		case f, ok := <-frames:
			if !ok {
				// Upstream closed gracefully (disconnect drain, or the
				// adaptor's source is exhausted). Tracked records may still
				// be awaiting acknowledgment — closing the pipeline now
				// would orphan their replays and break at-least-once.
				return r.drainPendingReplays(replay)
			}
			out := f
			if conn.tracker != nil {
				// A new header over the subscription's record slice: f may
				// be shared with other subscribers, the ids are this
				// connection's alone.
				out = &hyracks.Frame{Records: f.Records, IDs: conn.tracker.track(r.ctx.Partition, f.Records)}
			}
			conn.Metrics.Collected.Add(int64(f.Len()))
			if err := r.out.NextFrame(out); err != nil {
				return nil
			}
		case f := <-replay:
			conn.Metrics.Replayed.Add(int64(f.Len()))
			if err := r.out.NextFrame(f); err != nil {
				return nil
			}
		case <-r.ctx.Canceled:
			return nil
		}
	}
}

// drainPendingReplays keeps the intake→store path open after the upstream
// source closed, servicing ack-timeout replays until no tracked record is
// pending. Without this, a record lost downstream (node death, dropped ack)
// near the end of the stream would be replayed into a pipeline that no
// longer exists and silently dropped once it exceeded its replay budget.
// Termination is bounded: every pending record is either acked or dropped
// by the sweeper after maxReplays attempts.
func (r *intakeRuntime) drainPendingReplays(replay <-chan *hyracks.Frame) error {
	conn := r.op.conn
	if conn.tracker == nil {
		return nil
	}
	for conn.tracker.pendingCount() > 0 {
		select {
		case f := <-replay:
			conn.Metrics.Replayed.Add(int64(f.Len()))
			if err := r.out.NextFrame(f); err != nil {
				return nil
			}
		case <-r.ctx.Canceled:
			return nil
		case <-time.After(5 * time.Millisecond):
			// Re-check: acks may have arrived, or another partition's
			// records may be the only ones left pending.
		}
	}
	return nil
}

func spillDir(ctx *hyracks.TaskContext) string {
	if sm, ok := ctx.Service(storage.ServiceName).(*storage.Manager); ok && sm != nil {
		dir := filepath.Join(sm.Dir(), "spill")
		if err := osMkdirAll(dir); err == nil {
			return dir
		}
	}
	return "."
}

func sanitize(s string) string {
	out := []byte(s)
	for i, c := range out {
		switch c {
		case '/', '\\', ':', '>', ' ':
			out[i] = '_'
		}
	}
	return string(out)
}

// ---------------------------------------------------------------------------
// Assign: the compute-stage operator. Each instance applies the UDF to every
// record inside the MetaFeed sandbox and offers its output through a feed
// joint so descendant feeds can subscribe (§5.3.2).

type assignOp struct {
	conn      *Connection
	fn        RecordFunction
	signature string
	last      bool // last compute stage feeds the connection's Computed counter
}

// Name implements hyracks.OperatorDescriptor.
func (o *assignOp) Name() string { return "Assign(" + o.signature + ")" }

// CreateRuntime implements hyracks.OperatorDescriptor.
func (o *assignOp) CreateRuntime(ctx *hyracks.TaskContext, out hyracks.Writer) (hyracks.OperatorRuntime, error) {
	fm, err := feedManagerOf(ctx)
	if err != nil {
		return nil, err
	}
	apply := func(rec []byte) ([]byte, error) { return applyDecoded(o.fn, rec) }
	if enc, ok := o.fn.(EncodedRecordFunction); ok {
		apply = enc.ApplyEncoded
	}
	return &assignRuntime{
		op:    o,
		ctx:   ctx,
		out:   out,
		joint: fm.CreateJoint(o.signature, ctx.Partition),
		mf:    newMetaFeed("assign:"+o.fn.Name(), ctx.NodeID, o.conn.pol, o.conn.Log),
		apply: apply,
	}, nil
}

type assignRuntime struct {
	op    *assignOp
	ctx   *hyracks.TaskContext
	out   hyracks.Writer
	joint *Joint
	mf    *metaFeed
	// apply is the UDF over one encoded record: ApplyEncoded when the
	// function has it, decode → Apply → encode otherwise.
	apply func(rec []byte) ([]byte, error)
}

func (r *assignRuntime) Open() error { return r.out.Open() }

func (r *assignRuntime) NextFrame(f *hyracks.Frame) error {
	if fc, ok := r.op.fn.(FrameCoster); ok {
		if d := fc.FrameDelay(f.Len()); d > 0 {
			select {
			case <-time.After(d):
			case <-r.ctx.Canceled:
				return hyracks.ErrJobCanceled
			}
		}
	}
	out := hyracks.NewFrame(f.Len())
	tracked := len(f.IDs) > 0
	var ids, terminated []uint64 // ids of the records passed on / ended here
	if tracked {
		ids = make([]uint64, 0, f.Len())
	}
	for i, rec := range f.Records {
		var produced []byte
		skipped, fatal := r.mf.guard(rec, func() (err error) {
			produced, err = r.apply(rec)
			return err
		})
		if fatal != nil {
			return fatal
		}
		if skipped {
			r.op.conn.Metrics.SoftFailures.Add(1)
		}
		if produced == nil {
			// Soft-failed, or filtered out by the UDF: the record never
			// reaches the store, so its ack comes from here — at-least-once
			// covers loss, not unprocessable input.
			if tracked {
				terminated = append(terminated, f.IDs[i])
			}
			continue
		}
		out.Append(produced)
		if tracked {
			ids = append(ids, f.IDs[i])
		}
	}
	if len(terminated) > 0 {
		r.op.conn.tracker.ack(terminated)
	}
	if out.Len() == 0 {
		return nil
	}
	if r.op.last {
		r.op.conn.Metrics.Computed.Add(int64(out.Len()))
	}
	// Frames in joints are untracked: the ids belong to this connection's
	// tracker, and a subscribing child connection assigns its own.
	r.joint.Deposit(out)
	if tracked {
		out = &hyracks.Frame{Records: out.Records, IDs: ids}
	}
	return r.out.NextFrame(out)
}

func (r *assignRuntime) Close() error   { return r.out.Close() }
func (r *assignRuntime) Fail(err error) { r.out.Fail(err) }

// ---------------------------------------------------------------------------
// Store: the tail's final stage. Each instance is co-located with one
// partition of the target dataset, inserting frames into the primary index
// and updating secondary indexes, with per-record soft-failure handling and
// grouped at-least-once acks (§5.3.1, §5.6).

type storeOp struct {
	conn *Connection
	ds   *storage.Dataset
	// cluster resolves replica nodes' storage managers when the dataset
	// is replicated (the §9.2.2 extension).
	cluster *hyracks.Cluster
	// fault is the manager's injection hook (Options.FaultHook); consulted
	// as "ack:<node>" before each grouped ack delivery. Nil in production.
	fault func(point string) error
}

// Name implements hyracks.OperatorDescriptor.
func (o *storeOp) Name() string { return "Store(" + o.ds.QualifiedName() + ")" }

// CreateRuntime implements hyracks.OperatorDescriptor.
func (o *storeOp) CreateRuntime(ctx *hyracks.TaskContext, out hyracks.Writer) (hyracks.OperatorRuntime, error) {
	sm, ok := ctx.Service(storage.ServiceName).(*storage.Manager)
	if !ok || sm == nil {
		return nil, fmt.Errorf("core: node %s has no storage manager", ctx.NodeID)
	}
	// The task's partition index equals its position in the nodegroup
	// (the store stage is location-constrained to the nodegroup in order).
	part, err := sm.OpenPartitionIdx(o.ds, ctx.Partition, false)
	if err != nil {
		return nil, err
	}
	rt := &storeRuntime{
		op:   o,
		ctx:  ctx,
		out:  out,
		part: part,
		mf:   newMetaFeed("store:"+o.ds.QualifiedName(), ctx.NodeID, o.conn.pol, o.conn.Log),
	}
	// Synchronous replication: open the replica partition on the next
	// nodegroup member. A dead replica node degrades to unreplicated
	// writes rather than blocking ingestion.
	if replicaNode := o.ds.ReplicaOf(ctx.Partition); replicaNode != "" && replicaNode != ctx.NodeID && o.cluster != nil {
		if n := o.cluster.Node(replicaNode); n != nil && n.Alive() {
			if rsm, ok := n.Service(storage.ServiceName).(*storage.Manager); ok && rsm != nil {
				rp, err := rsm.OpenPartitionIdx(o.ds, ctx.Partition, true)
				if err == nil {
					rt.replica = rp
					rt.replicaNode = n
				}
			}
		}
	}
	return rt, nil
}

type storeRuntime struct {
	op          *storeOp
	ctx         *hyracks.TaskContext
	out         hyracks.Writer
	part        *storage.Partition
	replica     *storage.Partition
	replicaNode *hyracks.NodeController
	mf          *metaFeed
	// acks is per-task scratch for the ids of a frame retried record by
	// record (one task goroutine drives NextFrame, so no locking).
	acks []uint64
}

func (r *storeRuntime) Open() error { return r.out.Open() }

// insert writes recs as one frame — one batch per index, one WAL record and
// a group-committed fsync per tree — to the partition and, under synchronous
// replication, to the replica partition (the in-process stand-in for a
// replication RPC). A persist observer, when installed, then sees each
// stored record decoded.
func (r *storeRuntime) insert(recs [][]byte) error {
	if err := r.part.InsertFrame(recs); err != nil {
		return err
	}
	if r.replica != nil && r.replicaNode.Alive() {
		if err := r.replica.InsertFrame(recs); err != nil {
			return err
		}
	}
	if obs := r.op.conn.onPersist.Load(); obs != nil {
		for _, rec := range recs {
			// InsertFrame validated rec as a record of the dataset's type.
			if v, err := adm.DecodeOne(rec); err == nil {
				if stored, ok := v.(*adm.Record); ok {
					(*obs)(stored)
				}
			}
		}
	}
	return nil
}

// deliverAcks sends one grouped ack message for this frame (§5.6's windowed
// encoding). An injected "ack:<node>" fault models the ack message being
// lost in transit: the records are stored but stay tracked, so the sweeper
// replays them and the idempotent upsert absorbs the duplicates — the
// at-least-once guarantee must hold regardless.
func (r *storeRuntime) deliverAcks(acks []uint64) {
	conn := r.op.conn
	if len(acks) == 0 {
		return
	}
	if r.op.fault != nil {
		if err := r.op.fault("ack:" + r.ctx.NodeID); err != nil {
			return // ack message dropped
		}
	}
	conn.tracker.ack(acks)
}

// NextFrame stores the frame. The whole frame is tried first; when that
// fails, the same records are retried as frames of one record each under
// the MetaFeed guard, which isolates the failing record (soft-failure
// semantics, §5.3.1) instead of rejecting its neighbours. The retry is safe
// after any failure: InsertFrame validates a frame before touching a tree,
// so a data error leaves the partition untouched, and LSM puts are
// idempotent upserts, so after an IO error mid-frame the retry converges to
// the same state.
func (r *storeRuntime) NextFrame(f *hyracks.Frame) error {
	conn := r.op.conn
	persisted := 0
	acks := f.IDs // every id is acked unless the retry below withholds it
	switch {
	case !conn.storeEnabled.Load():
		// Disconnected-but-kept-alive: records flow for child feeds but are
		// not persisted here. Ack so intake memory frees.
	case r.insert(f.Records) == nil:
		persisted = f.Len()
	default:
		acks = r.acks[:0]
		for i, rec := range f.Records {
			var envErr error
			skipped, fatal := r.mf.guard(rec, func() error {
				err := r.insert(f.Records[i : i+1])
				if err != nil && !storage.IsDataError(err) {
					envErr = err
				}
				return err
			})
			switch {
			case fatal != nil:
				return fatal
			case !skipped:
				persisted++
			case envErr != nil:
				// Environmental failure (WAL write, fsync, replica IO): not
				// the record's fault, so acking it as a soft failure would
				// silently lose it. Leave it un-acked — the at-least-once
				// sweeper replays it and the idempotent upsert converges.
				conn.Metrics.StoreErrors.Add(1)
				continue
			default:
				// A soft-failed record is still acknowledged: at-least-once
				// covers loss, not unprocessable input.
				conn.Metrics.SoftFailures.Add(1)
			}
			if len(f.IDs) > 0 {
				acks = append(acks, f.IDs[i])
			}
		}
		r.acks = acks
	}
	if persisted > 0 {
		conn.Metrics.Persisted.Add(int64(persisted))
	}
	r.deliverAcks(acks)
	return r.out.NextFrame(f)
}

func (r *storeRuntime) Close() error   { return r.out.Close() }
func (r *storeRuntime) Fail(err error) { r.out.Fail(err) }
