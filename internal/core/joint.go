package core

import (
	"fmt"
	"log"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"asterixfeeds/internal/governor"
	"asterixfeeds/internal/hyracks"

	"asterixfeeds/internal/metrics"
)

// JointMode describes a feed joint's current mode of operation (§5.4.1).
type JointMode int

// Joint modes.
const (
	// JointInactive: no registered subscribers.
	JointInactive JointMode = iota
	// JointShortCircuited: exactly one subscriber.
	JointShortCircuited
	// JointShared: multiple subscribers; each queues the same frame and
	// consumes it at its own pace.
	JointShared
)

// String implements fmt.Stringer.
func (m JointMode) String() string {
	switch m {
	case JointInactive:
		return "inactive"
	case JointShortCircuited:
		return "short-circuited"
	case JointShared:
		return "shared"
	default:
		return "unknown"
	}
}

// Joint is a feed joint: a network tap at an operator's output that makes
// the flowing data accessible and routable to any number of subscribing
// ingestion pipelines (§5.2, §5.4). Joints are registered with the local
// FeedManager under the stream's signature and outlive the jobs that feed
// and drain them, which is what lets a re-scheduled pipeline adopt the
// state its predecessor left behind.
type Joint struct {
	// signature identifies the records flowing through, e.g.
	// "feeds.TwitterFeed" or "feeds.TwitterFeed:processTweet".
	signature string
	// node is the hosting node; partition the producing task's index.
	node      string
	partition int
	// tracked is the hosting FeedManager's byte counter (a counter of the
	// joint's own when no FeedManager created it), handed on to every
	// subscription.
	tracked *atomic.Int64

	mu sync.Mutex
	// subs is replaced whenever a subscription joins or leaves and never
	// written in place, so Deposit ranges over the slice it read under mu
	// without copying it per frame.
	subs   []*Subscription
	closed bool
	// subscriberArrived signals WaitForSubscriber.
	subscriberArrived chan struct{}
}

// newJoint creates a joint; use FeedManager.CreateJoint in operator code.
func newJoint(signature, node string, partition int) *Joint {
	return &Joint{
		signature:         signature,
		node:              node,
		partition:         partition,
		tracked:           new(atomic.Int64),
		subscriberArrived: make(chan struct{}, 1),
	}
}

// Signature returns the joint's stream signature.
func (j *Joint) Signature() string { return j.signature }

// Node returns the hosting node name.
func (j *Joint) Node() string { return j.node }

// Partition returns the producing task's partition index.
func (j *Joint) Partition() int { return j.partition }

// Mode reports the joint's current mode of operation.
func (j *Joint) Mode() JointMode {
	j.mu.Lock()
	defer j.mu.Unlock()
	active := 0
	for _, s := range j.subs {
		if !s.isDraining() {
			active++
		}
	}
	switch active {
	case 0:
		return JointInactive
	case 1:
		return JointShortCircuited
	default:
		return JointShared
	}
}

// Subscribers returns the ids of registered subscriptions, sorted.
func (j *Joint) Subscribers() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]string, 0, len(j.subs))
	for _, s := range j.subs {
		out = append(out, s.id)
	}
	sort.Strings(out)
	return out
}

// Subscription returns the registered subscription with the given id.
func (j *Joint) Subscription(subID string) (*Subscription, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, s := j.lookupLocked(subID)
	return s, s != nil
}

// lookupLocked returns the registered subscription with the given id and its
// index in subs, or nil.
func (j *Joint) lookupLocked(subID string) (int, *Subscription) {
	for i, s := range j.subs {
		if s.id == subID {
			return i, s
		}
	}
	return -1, nil
}

// HasSubscribers reports whether any subscription is registered.
func (j *Joint) HasSubscribers() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.subs) > 0
}

// WaitForSubscriber blocks until the joint has at least one subscriber or
// cancel fires; it implements the deferred adaptor start of §5.3.1 (a
// collect instance creates its adaptor only once there is a request for its
// output).
func (j *Joint) WaitForSubscriber(cancel <-chan struct{}) bool {
	for {
		j.mu.Lock()
		n := len(j.subs)
		j.mu.Unlock()
		if n > 0 {
			return true
		}
		select {
		case <-j.subscriberArrived:
		case <-cancel:
			return false
		}
	}
}

// Subscribe registers (or re-attaches to) the subscription with the given
// id. Re-attaching to an existing subscription adopts its buffered backlog —
// the zombie-state adoption of the fault-tolerance protocol (§6.2.2).
func (j *Joint) Subscribe(subID string, pol *Policy, spillPath string) (*Subscription, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, fmt.Errorf("core: joint %s is closed", j.signature)
	}
	if _, s := j.lookupLocked(subID); s != nil {
		return s, nil
	}
	s, err := newSubscription(subID, pol, spillPath, j.tracked)
	if err != nil {
		return nil, err
	}
	j.subs = append(j.subs[:len(j.subs):len(j.subs)], s) // a new array: see subs
	select {
	case j.subscriberArrived <- struct{}{}:
	default:
	}
	return s, nil
}

// DropSubscription removes a subscription discarding its backlog; used when
// a connection terminates abnormally.
func (j *Joint) DropSubscription(subID string) {
	if s := j.remove(subID); s != nil {
		s.discardAndClose()
	}
}

// remove unregisters and returns the subscription with the given id, or nil.
func (j *Joint) remove(subID string) *Subscription {
	j.mu.Lock()
	defer j.mu.Unlock()
	i, s := j.lookupLocked(subID)
	if s != nil {
		j.subs = slices.Delete(slices.Clone(j.subs), i, i+1) // a new array: see subs
	}
	return s
}

// Deposit routes one frame to every live subscription; each queues it and
// consumes at its own pace (guaranteed delivery + congestion isolation,
// §5.4.1). Frames are immutable and garbage-collected, so sharing one among
// several subscribers needs no bookkeeping.
func (j *Joint) Deposit(f *hyracks.Frame) {
	j.mu.Lock()
	subs := j.subs
	j.mu.Unlock()

	for _, s := range subs {
		s.offer(f)
	}
}

// headClass reports the priority class the joint's producing head should be
// gated at: the maximum class over non-lossy subscribers (their intake can
// only be slowed, not shed). ok is false when every subscriber is lossy —
// then the head must not block, because the subscriptions shed refused
// frames themselves. A draining subscriber takes no new frames, so it does
// not count.
func (j *Joint) headClass() (cls governor.Class, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, s := range j.subs {
		if s.pol.Discard || s.pol.Throttle || s.isDraining() {
			continue
		}
		if !ok || s.pol.Priority > cls {
			cls, ok = s.pol.Priority, true
		}
	}
	return cls, ok
}

// close marks the joint closed and closes all subscriptions.
func (j *Joint) close() {
	j.mu.Lock()
	j.closed = true
	subs := j.subs
	j.subs = nil
	j.mu.Unlock()
	for _, s := range subs {
		s.discardAndClose()
	}
}

// SubscriptionStats reports one subscription's congestion counters; the
// feed management console (§7.2) surfaces these. The counters satisfy the
// accounting invariant
//
//	Received == delivered + Discarded + ThrottledOut + GovernorShed
//
// once the subscription has drained (delivered being the records handed out
// by Next): every record offered to a live subscription is eventually
// delivered, discarded, throttled away, or shed by the node governor.
type SubscriptionStats struct {
	// Backlog is the current in-memory backlog in records.
	Backlog int `json:"backlog"`
	// SpilledFrames is the number of frames currently parked on disk.
	SpilledFrames int `json:"spilledFrames"`
	// SpilledBytes is the number of bytes currently parked on disk.
	SpilledBytes int64 `json:"spilledBytes"`
	// Received counts records offered to the live subscription, before any
	// policy action.
	Received int64 `json:"received"`
	// Discarded counts records dropped by the Discard policy.
	Discarded int64 `json:"discarded"`
	// ThrottledOut counts records sampled away by the Throttle policy.
	ThrottledOut int64 `json:"throttledOut"`
	// SpilledTotal counts records that went through the spill file.
	SpilledTotal int64 `json:"spilledTotal"`
	// SpillErrors counts spill-file write failures. The affected frames
	// fall back to in-memory buffering (no records are lost), but a
	// non-zero value means the disk overflow area is not doing its job.
	SpillErrors int64 `json:"spillErrors"`
	// GovernorShed counts records dropped because the node governor
	// refused admission while the node was over its memory budget. Only
	// lossy policies (Discard, Throttle) shed this way; non-lossy
	// policies divert refused frames to spill or keep buffering instead.
	GovernorShed int64 `json:"governorShed"`
}

// add sums o into s, counter by counter.
func (s *SubscriptionStats) add(o SubscriptionStats) {
	s.Backlog += o.Backlog
	s.SpilledFrames += o.SpilledFrames
	s.SpilledBytes += o.SpilledBytes
	s.Received += o.Received
	s.Discarded += o.Discarded
	s.ThrottledOut += o.ThrottledOut
	s.SpilledTotal += o.SpilledTotal
	s.SpillErrors += o.SpillErrors
	s.GovernorShed += o.GovernorShed
}

// Subscription is one consumer's registration with a feed joint: an
// unbounded in-memory frame queue guarded by the connection's ingestion
// policy, with optional disk spillage. It survives the death of its
// consuming task, acting as the parked "zombie" state a revived pipeline
// adopts.
type Subscription struct {
	id  string
	pol *Policy

	mu      sync.Mutex
	queue   frameQueue
	backlog int // records currently queued in memory
	// backlogBytes is the in-memory backlog in bytes; with the spill
	// file's on-disk footprint it is the subscription's contribution to
	// the node governor's tracked total: tracked is the FeedManager's
	// counter, published what this subscription last added to it.
	backlogBytes int64
	tracked      *atomic.Int64
	published    int64
	spill        *spillFile
	draining     bool
	closed       bool
	notify       chan struct{}
	rnd          *rand.Rand
	stats        SubscriptionStats
	// latency, when set, samples each dequeued frame's queueing delay —
	// the intake-side component of ingestion latency (Table 7.1).
	latency *metrics.LatencyRecorder
	// spillFault, when set, is consulted (point "spill:push") before each
	// spill-file write; fault-injection harnesses use it to exercise the
	// spill error path.
	spillFault func(point string) error
	// spillLogOnce limits spill-error logging to once per subscription.
	spillLogOnce sync.Once
	// adm, when set, is the node governor's admission handle for this
	// subscription's connection.
	adm *governor.Admission
	// replays wait beside the queue, and leave Next before it: frames the
	// tracker replays (ackTracker.sweep), outside the ledger, the backlog
	// and the governor's bytes, which counted their records on arrival.
	replays frameQueue
	// tracker, set by ackTracker.attach, keeps a drained subscription open
	// while it holds pending records, so their replays have a way in.
	tracker *ackTracker
}

// maxReplayFrames bounds the replays waiting on a stalled or dead intake;
// the records of a refused one stay pending and are swept again.
const maxReplayFrames = 16

// queuedFrame is one entry of a subscription's in-memory queue.
type queuedFrame struct {
	frame     *hyracks.Frame
	arrivedAt time.Time
}

// frameQueue is a subscription's in-memory queue: a ring of frames. A pop
// advances head, so the array is reused instead of slid off and regrown,
// and pushFront puts a frame back in the slot the last pop freed.
type frameQueue struct {
	buf  []queuedFrame // len(buf) is 0 or a power of two
	head int
	n    int
}

func (q *frameQueue) push(e queuedFrame) {
	q.grow()
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = e
	q.n++
}

func (q *frameQueue) pushFront(e queuedFrame) {
	q.grow()
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = e
	q.n++
}

// pop removes the oldest entry; the queue must not be empty.
func (q *frameQueue) pop() queuedFrame {
	e := q.buf[q.head]
	q.buf[q.head] = queuedFrame{} // the ring must not keep the frame alive
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return e
}

// grow doubles a full ring, unwrapping it into the new array.
func (q *frameQueue) grow() {
	if q.n < len(q.buf) {
		return
	}
	buf := make([]queuedFrame, max(8, 2*len(q.buf)))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

func newSubscription(id string, pol *Policy, spillPath string, tracked *atomic.Int64) (*Subscription, error) {
	s := &Subscription{
		id:      id,
		pol:     pol,
		tracked: tracked,
		notify:  make(chan struct{}, 1),
		rnd:     rand.New(rand.NewSource(int64(len(id)) + 42)),
	}
	if pol.Spill {
		sf, err := newSpillFile(spillPath, pol.MaxSpillBytes)
		if err != nil {
			return nil, err
		}
		s.spill = sf
	}
	return s, nil
}

// ID returns the subscription id.
func (s *Subscription) ID() string { return s.id }

// SetLatencyRecorder installs a recorder sampling each dequeued frame's
// queueing delay.
func (s *Subscription) SetLatencyRecorder(r *metrics.LatencyRecorder) {
	s.mu.Lock()
	s.latency = r
	s.mu.Unlock()
}

// SetSpillFault installs a fault hook consulted before each spill-file
// write. Only fault-injection harnesses set this.
func (s *Subscription) SetSpillFault(fn func(point string) error) {
	s.mu.Lock()
	s.spillFault = fn
	s.mu.Unlock()
}

// SetAdmission installs the node governor's admission handle; every
// subsequently offered frame is submitted to it for admission before any
// per-subscription policy runs.
func (s *Subscription) SetAdmission(adm *governor.Admission) {
	s.mu.Lock()
	s.adm = adm
	s.mu.Unlock()
}

// publishLocked adds to the FeedManager's counter the difference between
// the bytes the subscription holds now — queued in memory and parked in its
// spill file — and what it last published, so the counter cannot drift from
// the fields it is derived from. Every critical section that queues,
// dequeues, spills or drops calls it before releasing s.mu.
func (s *Subscription) publishLocked() {
	n := s.backlogBytes
	if s.spill != nil {
		n += s.spill.bytes
	}
	s.tracked.Add(n - s.published)
	s.published = n
}

// Stats returns a snapshot of the subscription's counters.
func (s *Subscription) Stats() SubscriptionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Backlog = s.backlog
	if s.spill != nil {
		st.SpilledFrames = s.spill.pending()
		st.SpilledBytes = s.spill.bytes
	}
	return st
}

func (s *Subscription) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining || s.closed
}

// offer is the enqueue path called by Joint.Deposit; it applies the node
// governor's admission decision and then the ingestion policy's
// excess-record handling (Table 4.2).
func (s *Subscription) offer(f *hyracks.Frame) {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return
	}
	s.stats.Received += int64(f.Len())
	shed := s.adm != nil && s.adm.Admit(int64(f.Bytes()), int64(f.Len())) == governor.Shed
	if shed && (s.pol.Discard || s.pol.Throttle) {
		// The governor refused admission and the policy permits loss:
		// shed the whole frame. Non-lossy policies instead fall through
		// with excess forced, diverting the frame to spill (or, for
		// Basic, buffering — the blocking head gate is what slows a
		// non-lossy feed down).
		s.stats.GovernorShed += int64(f.Len())
		s.adm.CountShed(int64(f.Len()))
		s.mu.Unlock()
		return
	}
	excess := s.backlog >= s.pol.MemoryBudgetRecords || shed
	switch {
	case !excess:
		s.enqueueLocked(f)
	case s.pol.Discard:
		// Drop the whole frame until the backlog clears (§7.3.3):
		// contiguous runs of records go missing.
		s.stats.Discarded += int64(f.Len())
	case s.pol.Spill && s.spill != nil:
		// Park the frame on disk for deferred processing (§7.3.2).
		ok, err := s.pushSpillLocked(f)
		if err != nil {
			// A failing spill write is not the same as a full budget: the
			// overflow area is broken, not exhausted. Count it (the
			// console surfaces SpillErrors) and say so once; the frame
			// still falls back below, so no records are lost.
			s.spillErrorLocked(err)
		}
		switch {
		case err == nil && ok:
			s.stats.SpilledTotal += int64(f.Len())
		case s.pol.Throttle:
			// Spillage budget exhausted: custom policies such as
			// Spill_then_Throttle (Listing 4.6) regulate the inflow
			// from here on.
			s.throttleLocked(f)
		default:
			// Spill budget exhausted or spill write failed: fall back
			// to buffering in memory, as the Basic policy would.
			s.enqueueLocked(f)
		}
	case s.pol.Throttle:
		s.throttleLocked(f)
	default:
		// Basic policy: keep buffering in memory (§7.3.1). Memory
		// growth is the caller's risk, exactly as in the paper.
		s.enqueueLocked(f)
	}
	s.publishLocked()
	s.mu.Unlock()
}

// pushSpillLocked appends f to the spill file, first consulting the
// injected fault hook if any.
func (s *Subscription) pushSpillLocked(f *hyracks.Frame) (bool, error) {
	if s.spillFault != nil {
		if err := s.spillFault("spill:push"); err != nil {
			return false, err
		}
	}
	return s.spill.push(f)
}

// spillErrorLocked counts a spill-file I/O failure and reports the first of
// this subscription's lifetime; later ones only count.
func (s *Subscription) spillErrorLocked(err error) {
	s.stats.SpillErrors++
	s.spillLogOnce.Do(func() {
		log.Printf("core: subscription %s: %v (no frame is lost; later spill failures are only counted)", s.id, err)
	})
}

// throttleLocked randomly samples a frame's records to reduce the effective
// arrival rate (§7.3.4): losses spread uniformly over the stream.
func (s *Subscription) throttleLocked(f *hyracks.Frame) {
	keepP := float64(s.pol.MemoryBudgetRecords) / float64(2*(s.backlog+1))
	if keepP < s.pol.ThrottleMinRatio {
		keepP = s.pol.ThrottleMinRatio
	}
	kept := hyracks.NewFrame(f.Len())
	for _, rec := range f.Records {
		if s.rnd.Float64() < keepP {
			kept.Append(rec)
		} else {
			s.stats.ThrottledOut++
		}
	}
	if kept.Len() > 0 {
		s.enqueueLocked(kept)
	}
}

func (s *Subscription) enqueueLocked(f *hyracks.Frame) {
	s.queue.push(queuedFrame{f, nowFunc()})
	s.backlog += f.Len()
	s.backlogBytes += int64(f.Bytes())
	s.wake()
}

// spillRetryDelay spaces Next's attempts to read back a spill file whose
// last read failed.
const spillRetryDelay = 10 * time.Millisecond

// Next dequeues the next frame, blocking until one is available, the
// subscription is drained-and-closed (ok=false), or cancel fires (ok=false
// with canceled=true). Replay frames, which carry their tracking ids, come
// before queued frames, which carry none. A subscription is not drained
// while its spill file holds frames: one that cannot be read back is
// retried, not skipped. Nor is it drained while its connection's tracker
// holds pending records; the ack that empties the tracker wakes Next.
func (s *Subscription) Next(cancel <-chan struct{}) (f *hyracks.Frame, ok bool) {
	for {
		s.mu.Lock()
		if s.replays.n > 0 {
			f = s.replays.pop().frame
			s.mu.Unlock()
			return f, true
		}
		if s.queue.n > 0 {
			q := s.queue.pop()
			f = q.frame
			s.backlog -= f.Len()
			s.backlogBytes -= int64(f.Bytes())
			if s.latency != nil {
				s.latency.Record(sinceFunc(q.arrivedAt))
			}
			// Replenish from spill once memory has room (deferred
			// processing resumes "as soon as resources are available",
			// §4.5).
			for s.backlog < s.pol.MemoryBudgetRecords/2 {
				sf := s.popSpillLocked()
				if sf == nil {
					break
				}
				s.enqueueLocked(sf)
			}
			s.publishLocked()
			s.mu.Unlock()
			return f, true
		}
		// Memory queue empty: pull directly from spill if present.
		if sf := s.popSpillLocked(); sf != nil {
			s.publishLocked()
			s.mu.Unlock()
			return sf, true
		}
		var retry <-chan time.Time
		var held *ackTracker // drained, but for the tracker's pending records
		switch {
		case s.spill != nil && s.spill.pending() > 0:
			retry = time.After(spillRetryDelay)
		case s.closed || s.draining && s.tracker == nil:
			s.closed = true
			s.mu.Unlock()
			return nil, false
		case s.draining:
			held = s.tracker
		}
		s.mu.Unlock()
		// The tracker is read without s.mu: its lock comes before ours.
		if held != nil && held.pendingCount() == 0 {
			s.mu.Lock()
			s.closed = true
			s.mu.Unlock()
			return nil, false
		}
		select {
		case <-s.notify:
		case <-retry:
		case <-cancel:
			return nil, false
		}
	}
}

// popSpillLocked reads the oldest spilled frame, or returns nil when there
// is none or the read failed; a failure is counted and the frame stays where
// it was for the next attempt.
func (s *Subscription) popSpillLocked() *hyracks.Frame {
	if s.spill == nil {
		return nil
	}
	f, err := s.spill.pop()
	if err != nil {
		s.spillErrorLocked(err)
	}
	return f
}

// requeue returns a dequeued frame to the head of the queue. An intake that
// is canceled between dequeuing a frame and handing it downstream calls this
// so the frame stays in the parked subscription state a re-attached intake
// adopts (the "zombie" adoption of §6.2.2) — records that were never tracked
// have no replay covering them, so dropping the frame here would lose them.
// A closed subscription has dropped everything it held and keeps nothing.
func (s *Subscription) requeue(f *hyracks.Frame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.queue.pushFront(queuedFrame{f, nowFunc()})
	s.backlog += f.Len()
	s.backlogBytes += int64(f.Bytes())
	s.publishLocked()
}

// replay puts a replay frame beside the queue, unless the subscription is
// closed or already holds maxReplayFrames.
func (s *Subscription) replay(f *hyracks.Frame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.replays.n >= maxReplayFrames {
		return
	}
	s.replays.push(queuedFrame{frame: f})
	s.wake()
}

// wake makes a blocked Next look again; one signal waiting is enough.
func (s *Subscription) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Backlog reports the in-memory backlog in records.
func (s *Subscription) Backlog() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.backlog
}

// drainAndClose stops accepting new frames; buffered frames remain
// consumable, after which Next reports closed.
func (s *Subscription) drainAndClose() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.wake()
}

// discardAndClose closes immediately, dropping buffered frames, waiting
// replays and any spill file. The replays' records stay pending in the
// tracker.
func (s *Subscription) discardAndClose() {
	s.mu.Lock()
	s.closed = true
	s.draining = true
	s.queue = frameQueue{}
	s.replays = frameQueue{}
	s.backlog = 0
	s.backlogBytes = 0
	sp := s.spill
	s.spill = nil
	s.publishLocked()
	s.mu.Unlock()
	if sp != nil {
		sp.close()
	}
	s.wake()
}
