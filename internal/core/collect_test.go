package core

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"asterixfeeds/internal/hyracks"
)

// scriptedReader answers each Read with the next step of its script: n
// bytes (n == len(p) for a full read) or err. It records, per read, how many
// flushes had happened when the read began.
type scriptedReader struct {
	steps   []scriptStep
	flushes *int
	seen    []int
}

type scriptStep struct {
	full bool
	err  error
}

func (r *scriptedReader) Read(p []byte) (int, error) {
	r.seen = append(r.seen, *r.flushes)
	st := r.steps[0]
	r.steps = r.steps[1:]
	switch {
	case st.err != nil:
		return 0, st.err
	case st.full:
		return len(p), nil
	default:
		return len(p) / 2, nil
	}
}

func TestPauseReaderFlushesBeforeReadAfterShortRead(t *testing.T) {
	boom := errors.New("boom")
	full, short, fail := scriptStep{full: true}, scriptStep{}, scriptStep{err: boom}
	steps := []scriptStep{full, full, short, full, short, short, fail, full, short, full}
	// Flushes counted before each read: one more after every short read,
	// none after a full read or an error.
	want := []int{0, 0, 0, 1, 1, 2, 3, 3, 3, 4}

	flushes := 0
	src := &scriptedReader{steps: steps, flushes: &flushes}
	pr := &pauseReader{r: src, flush: func() { flushes++ }}
	buf := make([]byte, 64)
	for range want {
		pr.Read(buf)
	}
	for i := range want {
		if src.seen[i] != want[i] {
			t.Fatalf("flushes before read %d = %v, want %v", i, src.seen, want)
		}
	}
	if flushes != want[len(want)-1] {
		t.Fatalf("flushes = %d after the script, want %d", flushes, want[len(want)-1])
	}
}

// TestSocketAdaptorFlushesOnPause: a source sends a burst and falls silent.
// The sink's flush tick is an hour away, so every record must leave because
// the adaptor saw the pause.
func TestSocketAdaptorFlushesOnPause(t *testing.T) {
	const n = 20
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stop := make(chan struct{})
	srvDone := make(chan struct{})
	go func() {
		defer close(srvDone)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, err := bufio.NewReader(c).ReadString('\n'); err != nil {
			return
		}
		w := bufio.NewWriter(c)
		for i := 0; i < n; i++ {
			fmt.Fprintf(w, "{\"id\": %d, \"text\": \"burst\"}\n", i)
		}
		w.Flush()
		<-stop // silence until the test is done
	}()

	j := newJoint("feeds.F", "A", 0)
	sub, err := j.Subscribe("c1", &Policy{MemoryBudgetRecords: 1000}, "")
	if err != nil {
		t.Fatal(err)
	}
	sink := newBatchingSink(j, 128, time.Hour, stop)
	adaptorDone := make(chan error, 1)
	go func() { adaptorDone <- (&socketAdaptor{addr: ln.Addr().String()}).Start(sink, stop) }()

	cancel := make(chan struct{})
	timer := time.AfterFunc(10*time.Second, func() { close(cancel) })
	for got := 0; got < n; {
		f, ok := sub.Next(cancel)
		if !ok {
			t.Fatalf("%d of %d records deposited before the deadline, with no tick", got, n)
		}
		got += f.Len()
	}
	timer.Stop()

	close(stop)
	if err := <-adaptorDone; err != nil {
		t.Fatal(err)
	}
	sink.stop()
	<-srvDone
}

// TestBatchingSinkSizesFrameFromLast: the frame after a flushed one has room
// for twice its records, capped at the sink's frame capacity.
func TestBatchingSinkSizesFrameFromLast(t *testing.T) {
	j := newJoint("feeds.F", "A", 0)
	sink := newBatchingSink(j, 16, time.Hour, nil)
	defer sink.stop()
	for _, c := range []struct{ emit, wantCap int }{{3, 6}, {1, 2}, {9, 16}, {16, 16}} {
		for i := 0; i < c.emit; i++ {
			sink.EmitEncoded([]byte{byte(i)})
		}
		sink.Flush()
		if got := cap(sink.buf.Records); got != c.wantCap {
			t.Fatalf("after a %d-record frame the next has %d slots, want %d", c.emit, got, c.wantCap)
		}
	}
}

// TestDepositAndNextAllocateNothing: once a subscription's queue has its
// ring, passing a frame through the joint allocates nothing per frame.
func TestDepositAndNextAllocateNothing(t *testing.T) {
	j := newJoint("feeds.F", "A", 0)
	pol := &Policy{MemoryBudgetRecords: 1000}
	subs := make([]*Subscription, 2)
	for i := range subs {
		s, err := j.Subscribe(fmt.Sprintf("c%d", i), pol, "")
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
	}
	f := hyracks.NewFrame(2)
	f.Append([]byte("r1"))
	f.Append([]byte("r2"))
	pass := func() {
		j.Deposit(f)
		for _, s := range subs {
			if g, ok := s.Next(nil); !ok || g != f {
				t.Fatal("subscription lost the frame")
			}
		}
	}
	pass() // the rings are allocated on first use
	if n := testing.AllocsPerRun(200, pass); n != 0 {
		t.Fatalf("Deposit + Next allocate %.1f times per frame, want 0", n)
	}
}

// TestRequeueReusesFreedSlot: a frame put back after Next goes into the slot
// Next freed, at the head, so the queue keeps its order and allocates
// nothing.
func TestRequeueReusesFreedSlot(t *testing.T) {
	j := newJoint("feeds.F", "A", 0)
	s, err := j.Subscribe("c1", &Policy{MemoryBudgetRecords: 1000}, "")
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]*hyracks.Frame, 3)
	for i := range frames {
		frames[i] = hyracks.NewFrame(1)
		frames[i].Append([]byte{byte(i)})
		j.Deposit(frames[i])
	}
	if n := testing.AllocsPerRun(200, func() {
		f, ok := s.Next(nil)
		if !ok || f != frames[0] {
			t.Fatal("Next did not return the head frame")
		}
		s.requeue(f)
	}); n != 0 {
		t.Fatalf("Next + requeue allocate %.1f times, want 0", n)
	}
	for i, want := range frames {
		if f, ok := s.Next(nil); !ok || f != want {
			t.Fatalf("frame %d out of order after requeues", i)
		}
	}
	if s.Backlog() != 0 {
		t.Fatalf("backlog = %d after draining, want 0", s.Backlog())
	}
}

// TestFrameQueueWrapsAndGrows drives the ring across its wrap point and
// through growth with pushes at both ends, against a slice model.
func TestFrameQueueWrapsAndGrows(t *testing.T) {
	var q frameQueue
	var model []*hyracks.Frame
	rnd := rand.New(rand.NewSource(1))
	for step := 0; step < 2000; step++ {
		f := hyracks.NewFrame(0)
		// Pushes outnumber pops, so the ring wraps at every size it grows to.
		switch p := rnd.Intn(20); {
		case p < 3:
			q.pushFront(queuedFrame{frame: f})
			model = append([]*hyracks.Frame{f}, model...)
		case p < 11 || len(model) == 0:
			q.push(queuedFrame{frame: f})
			model = append(model, f)
		default:
			if got := q.pop().frame; got != model[0] {
				t.Fatalf("step %d: popped the wrong frame", step)
			}
			model = model[1:]
		}
		if q.n != len(model) {
			t.Fatalf("step %d: queue holds %d, model %d", step, q.n, len(model))
		}
	}
	for len(model) > 0 {
		if q.pop().frame != model[0] {
			t.Fatal("drain popped the wrong frame")
		}
		model = model[1:]
	}
}
