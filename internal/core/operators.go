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
// collect buffer before being pushed out, so low-rate feeds stay live. An
// adaptor that sees its source pause (the socket adaptor) flushes sooner;
// the tick is the bound for generators, which cannot see one.
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
// joint. A frame leaves when it is full, when the adaptor calls Flush, or on
// the flush tick. Records are staged in one scratch buffer the sink reuses,
// and a leaving frame takes them in exact-size allocations of its own
// (hyracks.FrameAppender.Take): allocation is paid per frame, not per record.
type batchingSink struct {
	joint    *Joint
	cap      int
	mu       sync.Mutex
	buf      hyracks.FrameAppender
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
		stopCh:   make(chan struct{}),
		canceled: canceled,
	}
	go func() {
		t := time.NewTicker(flushEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.Flush()
			case <-s.stopCh:
				return
			}
		}
	}()
	return s
}

// Emit implements RecordSink: rec is encoded straight into the frame being
// batched.
func (s *batchingSink) Emit(rec *adm.Record) error {
	return s.emit(func(a *hyracks.FrameAppender) { a.Buf = adm.AppendValue(a.Buf, rec); a.End() })
}

// EmitEncoded implements RecordSink: enc is copied into the frame being
// batched.
func (s *batchingSink) EmitEncoded(enc []byte) error {
	return s.emit(func(a *hyracks.FrameAppender) { a.Append(enc) })
}

// emit stages one record with stage, under the sink's lock, and deposits the
// frame if that filled it.
func (s *batchingSink) emit(stage func(*hyracks.FrameAppender)) error {
	select {
	case <-s.canceled:
		return fmt.Errorf("core: feed collect canceled")
	default:
	}
	s.mu.Lock()
	stage(&s.buf)
	var out *hyracks.Frame
	if s.buf.Len() >= s.cap {
		out = s.buf.Take()
	}
	s.mu.Unlock()
	if out != nil {
		s.deposit(out)
	}
	return nil
}

// Flush implements RecordSink: the frame being batched leaves now.
func (s *batchingSink) Flush() {
	s.mu.Lock()
	var out *hyracks.Frame
	if s.buf.Len() > 0 {
		out = s.buf.Take()
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
	s.Flush()
}

// ---------------------------------------------------------------------------
// FeedIntake: the first operator of a tail section. Each instance locates
// the co-located source joint through the local Feed Manager's search API,
// subscribes (or re-attaches after a failure), and pushes arriving frames
// downstream (§5.3.1). With at-least-once enabled it assigns tracking ids
// and retains payloads until acknowledged (§5.6).

type intakeOp struct {
	conn *Connection
	// fault is the manager's injection hook (Options.FaultHook); consulted
	// before subscribing, and installed on the subscription as its spill
	// fault. Nil in production.
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
	if r.op.fault != nil {
		if err := r.op.fault("subscribe:" + r.ctx.NodeID); err != nil {
			return err
		}
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
	if conn.tracker != nil {
		conn.tracker.attach(r.ctx.Partition, sub)
	}
	// A disconnect drains the subscriptions it finds at the source joints;
	// one that began before this Subscribe may have found none, so drain
	// here. The subscription stays registered: the disconnect drops it
	// once this job has ended.
	select {
	case <-conn.disconnecting:
		sub.drainAndClose()
	default:
	}

	// One loop takes everything from the subscription: frames, replays,
	// and the end of the stream, which with at-least-once comes only once
	// no record is pending.
	for {
		// A canceled intake takes no more frames: what is queued stays for
		// the intake that adopts the subscription.
		select {
		case <-r.ctx.Canceled:
			return nil
		default:
		}
		f, ok := sub.Next(r.ctx.Canceled)
		if !ok {
			return nil
		}
		out := f
		switch {
		case len(f.IDs) > 0:
			// A replay: frames in joints carry no ids.
			conn.Metrics.Replayed.Add(int64(f.Len()))
		case conn.tracker != nil:
			// A new header over the subscription's record slice: f may be
			// shared with other subscribers, the ids are this connection's
			// alone.
			out = &hyracks.Frame{Records: f.Records, IDs: conn.tracker.track(r.ctx.Partition, f.Records)}
			conn.Metrics.Collected.Add(int64(f.Len()))
		}
		if err := r.out.NextFrame(out); err != nil {
			// The job is ending. A tracked frame is left to its replay; an
			// untracked one has none, so it goes back to the subscription
			// the next intake adopts, which counts it.
			if len(out.IDs) == 0 {
				sub.requeue(f)
			}
			return nil
		}
		if len(out.IDs) == 0 {
			// An untracked frame counts once it has left: a refused one
			// was requeued above and is counted by the intake that takes it.
			conn.Metrics.Collected.Add(int64(f.Len()))
		}
	}
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
	apply := func(dst, rec []byte) ([]byte, error) { return appendDecoded(dst, o.fn, rec) }
	if enc, ok := o.fn.(EncodedRecordFunction); ok {
		apply = enc.AppendEncoded
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
	// apply appends the UDF's output for one encoded record to dst:
	// AppendEncoded when the function has it, decode → Apply → AppendValue
	// otherwise.
	apply func(dst, rec []byte) ([]byte, error)
	// buf stages the output frame's records; it is reused across frames.
	buf hyracks.FrameAppender
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
	tracked := len(f.IDs) > 0
	var ids, terminated []uint64 // ids of the records passed on / ended here
	if tracked {
		ids = make([]uint64, 0, f.Len())
	}
	for i, rec := range f.Records {
		at := len(r.buf.Buf)
		skipped, fatal := r.mf.guard(rec, func() (err error) {
			r.buf.Buf, err = r.apply(r.buf.Buf, rec)
			return err
		})
		if fatal != nil {
			r.buf.Reset()
			return fatal
		}
		if skipped {
			r.op.conn.Metrics.SoftFailures.Add(1)
		}
		if skipped || len(r.buf.Buf) == at {
			// Soft-failed, or filtered out by the UDF: the record never
			// reaches the store, so its ack comes from here — at-least-once
			// covers loss, not unprocessable input.
			r.buf.Buf = r.buf.Buf[:at]
			if tracked {
				terminated = append(terminated, f.IDs[i])
			}
			continue
		}
		r.buf.End()
		if tracked {
			ids = append(ids, f.IDs[i])
		}
	}
	if len(terminated) > 0 {
		r.op.conn.tracker.ack(terminated)
	}
	if r.buf.Len() == 0 {
		return nil
	}
	out := r.buf.Take()
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
	target, err := OpenStoreTarget(ctx, o.cluster, o.ds)
	if err != nil {
		return nil, err
	}
	mf := newMetaFeed("store:"+o.ds.QualifiedName(), ctx.NodeID, o.conn.pol, o.conn.Log)
	return &storeRuntime{StoreTarget: target, op: o, ctx: ctx, out: out, mf: mf}, nil
}

// StoreTarget is where a task writing a dataset puts its frames: partition
// ctx.Partition on the task's node and, under synchronous replication, its
// replica on the next nodegroup member. Feed and statement writers share it.
type StoreTarget struct {
	part, replica *storage.Partition
	replicaNode   *hyracks.NodeController
}

// OpenStoreTarget opens the target of ctx, a task location-constrained to
// ds's nodegroup in order, so that its index is its partition's even on a
// node holding two. A dead replica node degrades to unreplicated writes.
func OpenStoreTarget(ctx *hyracks.TaskContext, cluster *hyracks.Cluster, ds *storage.Dataset) (*StoreTarget, error) {
	sm, _ := ctx.Service(storage.ServiceName).(*storage.Manager)
	if sm == nil {
		return nil, fmt.Errorf("core: node %s has no storage manager", ctx.NodeID)
	}
	part, err := sm.OpenPartitionIdx(ds, ctx.Partition, false)
	if err != nil {
		return nil, err
	}
	t := &StoreTarget{part: part}
	if n := cluster.Node(ds.ReplicaOf(ctx.Partition)); n != nil && n.ID() != ctx.NodeID && n.Alive() {
		if rsm, _ := n.Service(storage.ServiceName).(*storage.Manager); rsm != nil {
			if t.replica, err = rsm.OpenPartitionIdx(ds, ctx.Partition, true); err == nil {
				t.replicaNode = n
			}
		}
	}
	return t, nil
}

// InsertFrame writes recs as one frame (one batch, WAL record and fsync per
// tree) to the partition, then, while its node lives, to the replica: the
// in-process stand-in for a replication RPC.
func (t *StoreTarget) InsertFrame(recs [][]byte) error {
	if err := t.part.InsertFrame(recs); err != nil || t.replicaNode == nil || !t.replicaNode.Alive() {
		return err
	}
	return t.replica.InsertFrame(recs)
}

type storeRuntime struct {
	*StoreTarget
	op  *storeOp
	ctx *hyracks.TaskContext
	out hyracks.Writer
	mf  *metaFeed
}

func (r *storeRuntime) Open() error { return r.out.Open() }

// deliverAcks sends one grouped ack message for this frame (§5.6's windowed
// encoding). An injected "ack:<node>" fault models the ack message being
// lost in transit: the records are stored but stay tracked, so the sweeper
// replays them and the idempotent upsert absorbs the duplicates — the
// at-least-once guarantee must hold regardless.
func (r *storeRuntime) deliverAcks(acks []uint64) {
	if len(acks) == 0 {
		return
	}
	if r.op.fault != nil {
		if err := r.op.fault("ack:" + r.ctx.NodeID); err != nil {
			return // ack message dropped
		}
	}
	r.op.conn.tracker.ack(acks)
}

// NextFrame stores the frame in one call. When the partition refuses
// records (leaving itself untouched), softFail slices the frame past them,
// §5.3.1's MetaFeed, and the survivors go in one more call. An environmental
// error (WAL write, fsync, replica IO) retries them once; the blind write
// converges. Records that still fail are not their own fault: they stay
// un-acked, for the at-least-once sweeper to replay. A record is acked only
// after the call that stored it returns, when its WAL record is in the
// segment file (and fsynced, at lsm.Options.SyncWAL > 0): the ack survives a
// crash of this process, and at SyncWAL > 0 of its host too. A persist
// observer, when installed, then sees each stored record decoded.
func (r *storeRuntime) NextFrame(f *hyracks.Frame) error {
	conn := r.op.conn
	if !conn.storeEnabled.Load() {
		// Disconnected-but-kept-alive: records flow for child feeds but are
		// not persisted here. Ack so intake memory frees.
		r.deliverAcks(f.IDs)
		return r.out.NextFrame(f)
	}
	recs, acks := f.Records, f.IDs
	keep := 0 // acks[:keep] are the refused records': acked whatever the rest meet
	err := r.InsertFrame(recs)
	if refused, ok := err.(*storage.DataError); ok {
		if recs, acks, keep, err = r.softFail(f, refused.Refused); err != nil {
			return err
		}
		err = r.InsertFrame(recs)
	}
	if err != nil {
		err = r.InsertFrame(recs)
	}
	if err != nil {
		conn.Metrics.StoreErrors.Add(int64(len(recs)))
		acks = acks[:keep]
	} else {
		conn.Metrics.Persisted.Add(int64(len(recs)))
		if obs := conn.onPersist; obs != nil {
			for _, rec := range recs {
				// InsertFrame validated rec as a record of the dataset's type.
				v, _ := adm.DecodeOne(rec)
				if stored, ok := v.(*adm.Record); ok {
					obs(stored)
				}
			}
		}
	}
	r.deliverAcks(acks)
	return r.out.NextFrame(f)
}

// softFail puts each record of f through the MetaFeed guard in frame order:
// a refused one fails with its cause, any other succeeds (resetting the
// consecutive count). It returns the others, and the ids to ack: first the
// keep ids of the refused (at-least-once covers loss, not unprocessable
// input), then the others'.
func (r *storeRuntime) softFail(f *hyracks.Frame, refused []storage.Refusal) (recs [][]byte, acks []uint64, keep int, fatal error) {
	var ids []uint64
	for i, rec := range f.Records {
		var cause error
		if len(refused) > 0 && refused[0].Pos == i {
			cause, refused = refused[0].Err, refused[1:]
		}
		if _, fatal := r.mf.guard(rec, func() error { return cause }); fatal != nil {
			return nil, nil, 0, fatal
		}
		if cause == nil {
			recs = append(recs, rec)
		} else {
			r.op.conn.Metrics.SoftFailures.Add(1)
		}
		switch {
		case f.IDs == nil:
		case cause == nil:
			ids = append(ids, f.IDs[i])
		default:
			acks = append(acks, f.IDs[i])
		}
	}
	return recs, append(acks, ids...), len(acks), nil
}

func (r *storeRuntime) Close() error   { return r.out.Close() }
func (r *storeRuntime) Fail(err error) { r.out.Fail(err) }
