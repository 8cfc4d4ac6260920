package stormmongo

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"asterixfeeds/internal/adm"
)

// Tuple is one unit of data flowing through a topology, carrying the
// spout-assigned id its ack tree is anchored on.
type Tuple struct {
	ID  uint64
	Rec *adm.Record
}

// Spout produces tuples (Storm's source abstraction). NextTuple returns
// ok=false when the source is (momentarily or permanently) dry.
type Spout interface {
	// NextTuple produces the next tuple, or ok=false when none is ready.
	NextTuple() (t *Tuple, ok bool)
	// Ack reports a fully processed tuple.
	Ack(id uint64)
	// Fail reports a timed-out tuple for replay.
	Fail(id uint64)
	// Exhausted reports that the spout will never produce again.
	Exhausted() bool
}

// Bolt processes tuples (Storm's operator abstraction). Returning an error
// fails the tuple's tree.
type Bolt interface {
	Execute(t *Tuple, emit func(*Tuple)) error
}

// BoltFunc adapts a function to Bolt.
type BoltFunc func(t *Tuple, emit func(*Tuple)) error

// Execute implements Bolt.
func (f BoltFunc) Execute(t *Tuple, emit func(*Tuple)) error { return f(t, emit) }

// TopologyConfig tunes a linear topology.
type TopologyConfig struct {
	// WorkersPerBolt is each bolt's executor parallelism (default 1).
	WorkersPerBolt int
	// QueueDepth bounds inter-stage queues (default 64).
	QueueDepth int
	// AckTimeout replays tuples unacked for this long; 0 disables acking
	// (at-most-once), mirroring Storm's optional reliability.
	AckTimeout time.Duration
}

func (c TopologyConfig) withDefaults() TopologyConfig {
	if c.WorkersPerBolt <= 0 {
		c.WorkersPerBolt = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// Topology is a linear Storm-like topology: spout -> bolt1 -> ... -> boltN.
type Topology struct {
	cfg   TopologyConfig
	spout Spout
	bolts []Bolt

	queues  []chan *Tuple
	stop    chan struct{}
	stopped sync.Once
	workWG  sync.WaitGroup // spout + bolt executors
	auxWG   sync.WaitGroup // ack sweeper

	pendingMu sync.Mutex
	pending   map[uint64]time.Time

	emitted atomic.Int64
	acked   atomic.Int64
	failed  atomic.Int64
	done    chan struct{}
}

// NewTopology assembles (but does not start) a linear topology.
func NewTopology(cfg TopologyConfig, spout Spout, bolts ...Bolt) *Topology {
	cfg = cfg.withDefaults()
	t := &Topology{
		cfg:     cfg,
		spout:   spout,
		bolts:   bolts,
		stop:    make(chan struct{}),
		pending: make(map[uint64]time.Time),
		done:    make(chan struct{}),
	}
	t.queues = make([]chan *Tuple, len(bolts))
	for i := range t.queues {
		t.queues[i] = make(chan *Tuple, cfg.QueueDepth)
	}
	return t
}

// Start launches the spout and bolt executors.
func (t *Topology) Start() {
	// Spout loop.
	t.workWG.Add(1)
	go func() {
		defer t.workWG.Done()
		defer func() {
			if len(t.queues) > 0 {
				close(t.queues[0])
			}
		}()
		for {
			select {
			case <-t.stop:
				return
			default:
			}
			tp, ok := t.spout.NextTuple()
			if !ok {
				if t.spout.Exhausted() {
					// With acking on, linger until every in-flight
					// tuple is acked or queued for replay.
					if t.cfg.AckTimeout > 0 {
						t.pendingMu.Lock()
						n := len(t.pending)
						t.pendingMu.Unlock()
						if n > 0 {
							time.Sleep(500 * time.Microsecond)
							continue
						}
					}
					return
				}
				time.Sleep(200 * time.Microsecond)
				continue
			}
			t.emitted.Add(1)
			if t.cfg.AckTimeout > 0 {
				t.pendingMu.Lock()
				t.pending[tp.ID] = time.Now()
				t.pendingMu.Unlock()
			}
			select {
			case t.queues[0] <- tp:
			case <-t.stop:
				return
			}
		}
	}()

	// Bolt executors.
	for i, b := range t.bolts {
		i, b := i, b
		var stageWG sync.WaitGroup
		for w := 0; w < t.cfg.WorkersPerBolt; w++ {
			t.workWG.Add(1)
			stageWG.Add(1)
			go func() {
				defer t.workWG.Done()
				defer stageWG.Done()
				for tp := range t.queues[i] {
					emit := func(out *Tuple) {
						if i+1 < len(t.queues) {
							select {
							case t.queues[i+1] <- out:
							case <-t.stop:
							}
						}
					}
					if err := b.Execute(tp, emit); err != nil {
						t.failTuple(tp.ID)
						continue
					}
					if i == len(t.bolts)-1 {
						t.ackTuple(tp.ID)
					}
				}
			}()
		}
		// Close the next stage when all workers of this stage finish.
		if i+1 < len(t.queues) {
			next := t.queues[i+1]
			go func() {
				stageWG.Wait()
				close(next)
			}()
		}
	}

	// Ack-timeout sweeper.
	if t.cfg.AckTimeout > 0 {
		t.auxWG.Add(1)
		go func() {
			defer t.auxWG.Done()
			tick := time.NewTicker(t.cfg.AckTimeout / 2)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					now := time.Now()
					var overdue []uint64
					t.pendingMu.Lock()
					for id, at := range t.pending {
						if now.Sub(at) > t.cfg.AckTimeout {
							overdue = append(overdue, id)
							delete(t.pending, id)
						}
					}
					t.pendingMu.Unlock()
					for _, id := range overdue {
						t.failed.Add(1)
						t.spout.Fail(id)
					}
				case <-t.stop:
					return
				}
			}
		}()
	}

	go func() {
		t.workWG.Wait()
		t.stopped.Do(func() { close(t.stop) })
		t.auxWG.Wait()
		close(t.done)
	}()
}

func (t *Topology) ackTuple(id uint64) {
	if t.cfg.AckTimeout > 0 {
		t.pendingMu.Lock()
		delete(t.pending, id)
		t.pendingMu.Unlock()
		t.spout.Ack(id)
	}
	t.acked.Add(1)
}

func (t *Topology) failTuple(id uint64) {
	t.failed.Add(1)
	if t.cfg.AckTimeout > 0 {
		t.pendingMu.Lock()
		delete(t.pending, id)
		t.pendingMu.Unlock()
		t.spout.Fail(id)
	}
}

// Stats reports lifetime counters: spout emissions, completed tuples, and
// failures/replays.
func (t *Topology) Stats() (emitted, acked, failed int64) {
	return t.emitted.Load(), t.acked.Load(), t.failed.Load()
}

// Wait blocks until the topology drains or the timeout passes.
func (t *Topology) Wait(timeout time.Duration) error {
	select {
	case <-t.done:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("stormmongo: topology did not drain in %v", timeout)
	}
}

// Stop halts the topology.
func (t *Topology) Stop() {
	t.stopped.Do(func() { close(t.stop) })
	<-t.done
}

// ---------------------------------------------------------------------------
// A replayable tweet spout backed by a generator function.

// GeneratorSpout adapts a pull-based record generator into a reliable spout
// with replay-on-fail.
type GeneratorSpout struct {
	next func() (*adm.Record, bool)

	mu        sync.Mutex
	seq       uint64
	inflight  map[uint64]*adm.Record
	replay    []*Tuple
	exhausted bool
}

// NewGeneratorSpout wraps next, which returns ok=false when the source is
// permanently exhausted.
func NewGeneratorSpout(next func() (*adm.Record, bool)) *GeneratorSpout {
	return &GeneratorSpout{next: next, inflight: make(map[uint64]*adm.Record)}
}

// NextTuple implements Spout.
func (s *GeneratorSpout) NextTuple() (*Tuple, bool) {
	s.mu.Lock()
	if n := len(s.replay); n > 0 {
		tp := s.replay[n-1]
		s.replay = s.replay[:n-1]
		s.mu.Unlock()
		return tp, true
	}
	s.mu.Unlock()
	rec, ok := s.next()
	if !ok {
		s.mu.Lock()
		s.exhausted = true
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Lock()
	s.seq++
	id := s.seq
	s.inflight[id] = rec
	s.mu.Unlock()
	return &Tuple{ID: id, Rec: rec}, true
}

// Ack implements Spout.
func (s *GeneratorSpout) Ack(id uint64) {
	s.mu.Lock()
	delete(s.inflight, id)
	s.mu.Unlock()
}

// Fail implements Spout: the tuple is queued for replay.
func (s *GeneratorSpout) Fail(id uint64) {
	s.mu.Lock()
	if rec, ok := s.inflight[id]; ok {
		s.replay = append(s.replay, &Tuple{ID: id, Rec: rec})
	}
	s.mu.Unlock()
}

// Exhausted implements Spout.
func (s *GeneratorSpout) Exhausted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exhausted && len(s.replay) == 0
}
