package core

import (
	"sync"
	"time"

	"asterixfeeds/internal/hyracks"
	"asterixfeeds/internal/metrics"
)

// ackTracker implements the at-least-once machinery of §5.6 for one feed
// connection. Records are assigned tracking ids at the intake stage and
// retained in memory at their intake partition; store instances acknowledge
// persisted ids in grouped batches; unacknowledged records are replayed
// after a timeout.
type ackTracker struct {
	timeout time.Duration

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]pendingRecord
	// subs holds each intake partition's subscription: sweep hands it the
	// partition's replays, and the ack that empties pending wakes it.
	subs map[int]*Subscription

	acked    int64
	replayed int64
}

// pendingRecord is held in the map by value: one tracked record costs no
// allocation of its own.
type pendingRecord struct {
	payload   []byte
	partition int
	sentAt    time.Time
	replays   int
}

// maxReplays bounds replay attempts per record so a permanently failing
// record cannot loop forever.
const maxReplays = 10

func newAckTracker(timeout time.Duration) *ackTracker {
	if timeout <= 0 {
		timeout = time.Second
	}
	return &ackTracker{
		timeout: timeout,
		pending: make(map[uint64]pendingRecord),
		subs:    make(map[int]*Subscription),
	}
}

// attach makes sub the way in for an intake partition's replays, and keeps
// sub open once drained while records are pending. An intake attaches the
// subscription it subscribed or re-attached to.
func (t *ackTracker) attach(partition int, sub *Subscription) {
	t.mu.Lock()
	t.subs[partition] = sub
	t.mu.Unlock()
	sub.mu.Lock()
	sub.tracker = t
	sub.mu.Unlock()
}

// track retains a frame's records at an intake partition and returns their
// tracking ids, one per record (consecutive: the whole frame is tracked
// under one lock hold). The record bytes are retained, not copied: records
// are immutable once in a frame and outlive it.
func (t *ackTracker) track(partition int, recs [][]byte) []uint64 {
	ids := make([]uint64, len(recs))
	t.mu.Lock()
	defer t.mu.Unlock()
	now := nowFunc()
	for i, rec := range recs {
		t.nextID++
		ids[i] = t.nextID
		t.pending[t.nextID] = pendingRecord{payload: rec, partition: partition, sentAt: now}
	}
	return ids
}

// ack drops the given ids from the pending set, reclaiming their memory.
// Store instances group ids per output batch before calling, reducing
// message traffic as the paper's windowed ack encoding does.
func (t *ackTracker) ack(ids []uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.pending)
	for _, id := range ids {
		if _, ok := t.pending[id]; ok {
			delete(t.pending, id)
			t.acked++
		}
	}
	if n > 0 && len(t.pending) == 0 {
		t.wakeDrainedLocked()
	}
}

// wakeDrainedLocked wakes the drained subscriptions, whose Next waits for
// the last pending record to go.
func (t *ackTracker) wakeDrainedLocked() {
	for _, s := range t.subs {
		if s.isDraining() {
			s.wake()
		}
	}
}

// pendingCount reports records awaiting acknowledgment.
func (t *ackTracker) pendingCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pending)
}

// stats reports lifetime ack/replay counters.
func (t *ackTracker) stats() (acked, replayed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.acked, t.replayed
}

// sweep finds overdue records, re-stamps them, and hands replay frames to
// their intake partitions' subscriptions. Records exceeding maxReplays are
// dropped (and counted by the caller via the returned count).
func (t *ackTracker) sweep(now time.Time) (replayedNow int, dropped int) {
	t.mu.Lock()
	frames := make(map[int]*hyracks.Frame)
	for id, pr := range t.pending {
		if now.Sub(pr.sentAt) < t.timeout {
			continue
		}
		if pr.replays >= maxReplays {
			delete(t.pending, id)
			dropped++
			continue
		}
		pr.replays++
		pr.sentAt = now
		t.pending[id] = pr
		f := frames[pr.partition]
		if f == nil {
			f = hyracks.NewFrame(8)
			frames[pr.partition] = f
		}
		f.Append(pr.payload)
		f.IDs = append(f.IDs, id)
		replayedNow++
	}
	t.replayed += int64(replayedNow)
	if dropped > 0 && len(t.pending) == 0 {
		t.wakeDrainedLocked()
	}
	subs := make(map[int]*Subscription, len(frames))
	for p := range frames {
		subs[p] = t.subs[p]
	}
	t.mu.Unlock()

	// A partition with no subscription yet, or one that refuses the frame,
	// leaves the records pending; they are swept again.
	for p, f := range frames {
		if s := subs[p]; s != nil {
			s.replay(f)
		}
	}
	return replayedNow, dropped
}

// runSweeper periodically sweeps until stop closes, counting the records it
// gives up on in dropped.
func (t *ackTracker) runSweeper(stop <-chan struct{}, dropped *metrics.Counter) {
	tick := time.NewTicker(t.timeout / 2)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if _, n := t.sweep(nowFunc()); n > 0 {
				dropped.Add(int64(n))
			}
		case <-stop:
			return
		}
	}
}
