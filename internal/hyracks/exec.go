package hyracks

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Errors reported by job execution.
var (
	// ErrJobCanceled is returned by Wait when the job was canceled.
	ErrJobCanceled = errors.New("hyracks: job canceled")
	// ErrNodeFailure is wrapped into task errors when a hosting node dies
	// mid-job. Plain Hyracks jobs carry non-resumable semantics (§6.2);
	// resilience is layered on top by the feed runtime.
	ErrNodeFailure = errors.New("hyracks: node failure")
)

// TaskPlacement records where one operator's tasks were scheduled.
type TaskPlacement struct {
	Op        OperatorID
	Name      string
	Locations []string // node per partition
}

// JobHandle tracks one running job.
type JobHandle struct {
	id      JobID
	name    string
	cluster *Cluster

	canceled  chan struct{}
	cancelOne sync.Once

	doneWG sync.WaitGroup
	done   chan struct{}

	mu        sync.Mutex
	status    JobStatus
	err       error
	placement []TaskPlacement
}

// ID returns the job's id.
func (j *JobHandle) ID() JobID { return j.id }

// Name returns the job's label.
func (j *JobHandle) Name() string { return j.name }

// Status reports the job's current lifecycle state.
func (j *JobHandle) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Placement reports where each operator's tasks were scheduled.
func (j *JobHandle) Placement() []TaskPlacement {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]TaskPlacement(nil), j.placement...)
}

// Cancel requests termination of the job's tasks. Safe to call repeatedly.
func (j *JobHandle) Cancel() {
	j.cancelOne.Do(func() { close(j.canceled) })
}

// Canceled returns a channel closed once the job has been canceled.
func (j *JobHandle) Canceled() <-chan struct{} { return j.canceled }

// Done returns a channel closed when all tasks have terminated.
func (j *JobHandle) Done() <-chan struct{} { return j.done }

// Wait blocks until the job terminates and returns nil for graceful
// completion, ErrJobCanceled for cancellation, or the first task error.
func (j *JobHandle) Wait() error {
	<-j.done
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

func (j *JobHandle) fail(err error) {
	j.mu.Lock()
	if j.err == nil && err != nil {
		j.err = err
	}
	j.mu.Unlock()
	j.Cancel()
}

// inQueue is a consumer task's input: a bounded frame channel closed when
// every producer feeding it has released it.
type inQueue struct {
	ch        chan *Frame
	node      *NodeController
	producers int
	mu        sync.Mutex
	closed    bool
}

func (q *inQueue) release() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.producers--
	if q.producers <= 0 {
		q.closed = true
		close(q.ch)
	}
}

// send delivers a frame, blocking for back-pressure. Frames destined to a
// dead node are dropped; a canceled job aborts the send with an error.
// Enqueued frame bytes are charged to the receiving node's in-flight
// account (credited back at dequeue, or when the job's queues are drained
// at completion); dropped and aborted frames are never charged.
func (q *inQueue) send(f *Frame, canceled <-chan struct{}) error {
	select {
	case q.ch <- f:
		q.node.addInFlight(int64(f.Bytes()))
		return nil
	case <-q.node.dead:
		return nil // drop: receiver is gone
	case <-canceled:
		return ErrJobCanceled
	}
}

// router implements Writer for a producer partition, routing frames to
// consumer queues per the connector strategy.
type router struct {
	strategy ConnectorStrategy
	keyHash  func([]byte) uint64
	queues   []*inQueue
	self     int // producer partition, used by OneToOne
	rr       int // round-robin cursor
	canceled <-chan struct{}
	once     sync.Once
}

// Open implements Writer.
func (r *router) Open() error { return nil }

// NextFrame implements Writer. It is the one place the Frame.IDs invariant
// is checked: every frame crossing a connector is either untracked or has
// exactly one id per record.
func (r *router) NextFrame(f *Frame) error {
	if len(f.IDs) != 0 && len(f.IDs) != len(f.Records) {
		return fmt.Errorf("hyracks: frame has %d tracking ids for %d records", len(f.IDs), len(f.Records))
	}
	switch r.strategy {
	case OneToOne:
		return r.queues[r.self].send(f, r.canceled)
	case MToNRandomPartition:
		q := r.queues[r.rr%len(r.queues)]
		r.rr++
		return q.send(f, r.canceled)
	case MToNHashPartition:
		n := len(r.queues)
		if n == 1 {
			return r.queues[0].send(f, r.canceled)
		}
		return r.hashSplit(f)
	}
	return fmt.Errorf("hyracks: unknown connector strategy %d", r.strategy)
}

// hashSplit sends each consumer the records of f whose key hashes to it, in
// frame order, each with its id. It counts every consumer's records first,
// then cuts all buckets out of one Records array and one IDs array, so a
// frame costs three allocations whether it holds one record or 128. The
// per-record destinations and the counts live on the stack for frames and
// fan-outs up to the arrays' sizes.
func (r *router) hashSplit(f *Frame) error {
	n := len(r.queues)
	var destBuf [256]int32
	var countBuf [64]int
	dest, count := destBuf[:0], countBuf[:0]
	if len(f.Records) > len(destBuf) {
		dest = make([]int32, 0, len(f.Records))
	}
	if n > len(countBuf) {
		count = make([]int, 0, n)
	}
	count = count[:n]
	for _, rec := range f.Records {
		d := int32(r.keyHash(rec) % uint64(n))
		dest = append(dest, d)
		count[d]++
	}
	// count[i] becomes bucket i's first slot; filling the buckets advances
	// it to one past the bucket's last.
	buckets := make([]Frame, n)
	recs := make([][]byte, len(f.Records))
	var ids []uint64
	if len(f.IDs) > 0 {
		ids = make([]uint64, len(f.IDs))
	}
	end := 0
	for i, c := range count {
		end += c
		count[i] = end - c
	}
	for k, d := range dest {
		pos := count[d]
		recs[pos] = f.Records[k]
		if ids != nil {
			ids[pos] = f.IDs[k]
		}
		count[d]++
	}
	lo := 0
	for i, hi := range count {
		if hi == lo {
			continue
		}
		// Full slice expressions: a consumer appending to its bucket
		// must not write into the next one.
		b := &buckets[i]
		b.Records = recs[lo:hi:hi]
		if ids != nil {
			b.IDs = ids[lo:hi:hi]
		}
		lo = hi
		if err := r.queues[i].send(b, r.canceled); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Writer: releases every consumer queue exactly once.
func (r *router) Close() error {
	r.once.Do(func() {
		for _, q := range r.queues {
			q.release()
		}
	})
	return nil
}

// Fail implements Writer. Queue closure still happens via Close, which the
// framework invokes when the task unwinds.
func (r *router) Fail(error) { _ = r.Close() }

// StartJob validates, schedules, and launches a job's tasks, returning a
// handle immediately. Task errors fail the job and cancel its other tasks.
func (c *Cluster) StartJob(spec *JobSpec) (*JobHandle, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("hyracks: cluster closed")
	}
	c.mu.Unlock()

	// Simulated job planning/dispatch latency (see Config.ScheduleDelay).
	if c.cfg.ScheduleDelay > 0 {
		time.Sleep(c.cfg.ScheduleDelay)
	}

	j := &JobHandle{
		id:       nextJobID(),
		name:     spec.Name,
		cluster:  c,
		canceled: make(chan struct{}),
		done:     make(chan struct{}),
		status:   JobPending,
	}

	// Resolve per-operator placement.
	alive := c.AliveNodes()
	if len(alive) == 0 {
		return nil, fmt.Errorf("hyracks: no live nodes")
	}
	locations := make([][]string, len(spec.ops))
	for i, op := range spec.ops {
		pc := op.constraint
		switch {
		case len(pc.Locations) > 0:
			for _, loc := range pc.Locations {
				n := c.Node(loc)
				if n == nil || !n.Alive() {
					return nil, fmt.Errorf("hyracks: job %q: operator %s pinned to unavailable node %q",
						spec.Name, op.desc.Name(), loc)
				}
			}
			locations[i] = append([]string(nil), pc.Locations...)
		case pc.Count > 0:
			locs := make([]string, pc.Count)
			for p := 0; p < pc.Count; p++ {
				locs[p] = alive[p%len(alive)]
			}
			locations[i] = locs
		default:
			locations[i] = append([]string(nil), alive...)
		}
		j.placement = append(j.placement, TaskPlacement{
			Op: OperatorID(i), Name: op.desc.Name(), Locations: locations[i],
		})
	}

	// Build consumer input queues: one per partition of each operator
	// with an inbound connector.
	inQueues := make(map[OperatorID][]*inQueue)
	producersOf := make(map[OperatorID]int)
	for _, conn := range spec.conn {
		producersOf[conn.To.Op] += len(locations[conn.From.Op])
	}
	for opID, nProd := range producersOf {
		locs := locations[opID]
		qs := make([]*inQueue, len(locs))
		for p, loc := range locs {
			qs[p] = &inQueue{
				ch:        make(chan *Frame, c.cfg.QueueDepth),
				node:      c.Node(loc),
				producers: nProd,
			}
		}
		inQueues[opID] = qs
	}

	// Build per-task output writers: a router over the operator's outbound
	// connector (Validate allows at most one), else a NopWriter.
	outbound := make(map[OperatorID]Connector)
	for _, conn := range spec.conn {
		outbound[conn.From.Op] = conn
	}

	type task struct {
		opID   OperatorID
		part   int
		node   *NodeController
		out    Writer
		router *router // out when the operator has an outbound connector
		in     *inQueue
	}
	// release frees the consumer queues a task's router feeds.
	release := func(tk *task) {
		if tk.router != nil {
			_ = tk.router.Close()
		}
	}
	var tasks []*task
	for opID := range spec.ops {
		id := OperatorID(opID)
		for p, loc := range locations[opID] {
			tk := &task{opID: id, part: p, node: c.Node(loc), out: NopWriter{}}
			if conn, ok := outbound[id]; ok {
				rt := &router{
					strategy: conn.Strategy,
					keyHash:  conn.KeyHash,
					queues:   inQueues[conn.To.Op],
					self:     p,
					canceled: j.canceled,
				}
				if conn.Strategy == OneToOne && len(rt.queues) != len(locations[opID]) {
					return nil, fmt.Errorf("hyracks: job %q: OneToOne connector between operators of unequal parallelism", spec.Name)
				}
				tk.out, tk.router = rt, rt
			}
			if qs, ok := inQueues[id]; ok {
				tk.in = qs[p]
			}
			tasks = append(tasks, tk)
		}
	}

	// Instantiate runtimes.
	type runnable struct {
		*task
		rt         OperatorRuntime
		cancel     chan struct{}
		cancelOnce sync.Once
	}
	closeCancel := func(r *runnable) {
		r.cancelOnce.Do(func() { close(r.cancel) })
	}
	var runnables []*runnable
	for _, tk := range tasks {
		taskCancel := make(chan struct{})
		ctx := &TaskContext{
			JobID:         j.id,
			NodeID:        tk.node.ID(),
			Partition:     tk.part,
			NumPartitions: len(locations[tk.opID]),
			Node:          tk.node,
			Canceled:      taskCancel,
		}
		rt, err := spec.ops[tk.opID].desc.CreateRuntime(ctx, tk.out)
		if err != nil {
			j.fail(err)
			// Release all queues the already-built routers feed so that
			// nothing deadlocks, then report.
			for _, r := range runnables {
				release(r.task)
				closeCancel(r)
			}
			release(tk)
			return nil, fmt.Errorf("hyracks: job %q: creating %s[%d]: %w",
				spec.Name, spec.ops[tk.opID].desc.Name(), tk.part, err)
		}
		runnables = append(runnables, &runnable{task: tk, rt: rt, cancel: taskCancel})
	}

	c.mu.Lock()
	c.jobs[j.id] = j
	c.mu.Unlock()

	j.mu.Lock()
	j.status = JobRunning
	j.mu.Unlock()
	c.emitJobEvent(JobEvent{Kind: EventJobStarted, JobID: j.id, Name: j.name})

	for _, r := range runnables {
		r := r
		j.doneWG.Add(1)
		// Per-task cancellation: fires on job cancel or node death.
		go func() {
			select {
			case <-j.canceled:
			case <-r.node.dead:
			case <-r.cancel:
				return
			}
			closeCancel(r)
		}()
		go func() {
			defer j.doneWG.Done()
			defer func() {
				release(r.task)
				closeCancel(r)
			}()
			err := c.runTask(j, r.rt, r.in, r.node, r.cancel, spec.ops[r.opID].desc.Name())
			// Node death reaches a task three ways at once — node.dead, its
			// own cancel channel (closed on death too), and its input
			// closing behind an upstream task that saw the cancel — and a
			// select picks any of them. Whichever it was, the node the task
			// ran on is gone: that is a failure, not an end or a cancel.
			if (err == nil || errors.Is(err, ErrJobCanceled)) && isClosed(r.node.dead) {
				err = fmt.Errorf("%w: %s", ErrNodeFailure, r.node.ID())
			}
			if err != nil && !errors.Is(err, ErrJobCanceled) {
				j.fail(fmt.Errorf("%s[%d] on %s: %w",
					spec.ops[r.opID].desc.Name(), r.part, r.node.ID(), err))
			}
		}()
	}

	go func() {
		j.doneWG.Wait()
		// Every producer has released every queue by now (router Close runs
		// in the task defers), so the channels are closed; drain whatever a
		// canceled or failed task left queued and credit the bytes back to
		// the in-flight accounts.
		for _, qs := range inQueues {
			for _, q := range qs {
				for f := range q.ch {
					q.node.addInFlight(-int64(f.Bytes()))
				}
			}
		}
		j.mu.Lock()
		switch {
		case j.err != nil:
			j.status = JobFailed
		case isClosed(j.canceled):
			j.status = JobCanceled
			j.err = ErrJobCanceled
		default:
			j.status = JobFinished
		}
		err := j.err
		st := j.status
		j.mu.Unlock()

		c.mu.Lock()
		delete(c.jobs, j.id)
		c.mu.Unlock()

		close(j.done)
		switch st {
		case JobFinished:
			c.emitJobEvent(JobEvent{Kind: EventJobCompleted, JobID: j.id, Name: j.name})
		default:
			c.emitJobEvent(JobEvent{Kind: EventJobFailed, JobID: j.id, Name: j.name, Err: err})
		}
	}()

	return j, nil
}

func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// runTask drives one operator task to completion.
func (c *Cluster) runTask(j *JobHandle, rt OperatorRuntime, in *inQueue, node *NodeController, cancel chan struct{}, opName string) error {
	if src, ok := rt.(SourceRuntime); ok && in == nil {
		if err := rt.Open(); err != nil {
			return err
		}
		return src.Run()
	}
	if in == nil {
		return fmt.Errorf("hyracks: non-source operator %T has no input", rt)
	}
	if err := rt.Open(); err != nil {
		return err
	}
	for {
		select {
		case f, ok := <-in.ch:
			if !ok {
				return rt.Close()
			}
			node.addInFlight(-int64(f.Bytes()))
			node.Frames.Add(1)
			node.Records.Add(int64(f.Len()))
			if ff := c.cfg.FrameFault; ff != nil {
				ff(node.ID(), opName, f)
				// The hook may have killed this node: recheck liveness so
				// the injected death lands exactly on the frame boundary,
				// before the operator sees the frame.
				if isClosed(node.dead) {
					return fmt.Errorf("%w: %s", ErrNodeFailure, node.ID())
				}
			}
			if err := rt.NextFrame(f); err != nil {
				rt.Fail(err)
				return err
			}
		case <-node.dead:
			return fmt.Errorf("%w: %s", ErrNodeFailure, node.ID())
		case <-cancel:
			return ErrJobCanceled
		}
	}
}
