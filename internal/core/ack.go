package core

import (
	"sync"
	"time"

	"asterixfeeds/internal/hyracks"
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
	pending map[uint64]*pendingRecord
	// replay channels, one per intake partition, drained by the intake
	// runtime's main loop.
	replayCh map[int]chan *hyracks.Frame

	acked    int64
	replayed int64
}

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
		timeout:  timeout,
		pending:  make(map[uint64]*pendingRecord),
		replayCh: make(map[int]chan *hyracks.Frame),
	}
}

// register creates (or returns) the replay channel for an intake partition.
func (t *ackTracker) register(partition int) chan *hyracks.Frame {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ch, ok := t.replayCh[partition]; ok {
		return ch
	}
	ch := make(chan *hyracks.Frame, 16)
	t.replayCh[partition] = ch
	return ch
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
		t.pending[t.nextID] = &pendingRecord{payload: rec, partition: partition, sentAt: now}
	}
	return ids
}

// ack drops the given ids from the pending set, reclaiming their memory.
// Store instances group ids per output batch before calling, reducing
// message traffic as the paper's windowed ack encoding does.
func (t *ackTracker) ack(ids []uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range ids {
		if _, ok := t.pending[id]; ok {
			delete(t.pending, id)
			t.acked++
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

// sweep finds overdue records, re-stamps them, and enqueues replay frames to
// their intake partitions. Records exceeding maxReplays are dropped (and
// counted by the caller via the returned count).
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
	chans := make(map[int]chan *hyracks.Frame, len(frames))
	for p := range frames {
		chans[p] = t.replayCh[p]
	}
	t.mu.Unlock()

	for p, f := range frames {
		ch := chans[p]
		if ch == nil {
			continue
		}
		select {
		case ch <- f:
		default:
			// Intake busy or gone; the records stay pending and will be
			// swept again.
		}
	}
	return replayedNow, dropped
}

// runSweeper periodically sweeps until stop closes.
func (t *ackTracker) runSweeper(stop <-chan struct{}) {
	tick := time.NewTicker(t.timeout / 2)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			t.sweep(nowFunc())
		case <-stop:
			return
		}
	}
}
