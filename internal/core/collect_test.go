package core

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"
	"unsafe"

	"asterixfeeds/internal/adm"
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

	j := newJoint("feeds.F", 0)
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

// TestBatchingSinkCutsExactFrames: each frame that leaves holds exactly its
// records, back to back in one buffer of exactly their bytes, whatever the
// frame before it held.
func TestBatchingSinkCutsExactFrames(t *testing.T) {
	j := newJoint("feeds.F", 0)
	sub, err := j.Subscribe("c1", &Policy{MemoryBudgetRecords: 1000}, "")
	if err != nil {
		t.Fatal(err)
	}
	sink := newBatchingSink(j, 16, time.Hour, nil)
	defer sink.stop()
	for _, emit := range []int{3, 1, 9, 16} {
		for i := 0; i < emit; i++ {
			sink.EmitEncoded(bytes.Repeat([]byte{byte(emit)}, 1+i%3))
		}
		sink.Flush() // a 16-record frame has already left full
		f, ok := sub.Next(nil)
		if !ok || f.Len() != emit || cap(f.Records) != emit {
			t.Fatalf("a %d-record frame left as %d records in %d slots", emit, f.Len(), cap(f.Records))
		}
		for i, rec := range f.Records {
			if !bytes.Equal(rec, bytes.Repeat([]byte{byte(emit)}, 1+i%3)) || cap(rec) != len(rec) {
				t.Fatalf("record %d of a %d-record frame is %x (cap %d)", i, emit, rec, cap(rec))
			}
			if i == 0 {
				continue
			}
			prev := f.Records[i-1]
			if unsafe.Pointer(unsafe.SliceData(rec)) != unsafe.Add(unsafe.Pointer(unsafe.SliceData(prev)), len(prev)) {
				t.Fatalf("record %d of a %d-record frame does not follow record %d in its buffer", i, emit, i-1)
			}
		}
	}
}

// TestEmitEncodedCopiesTheCallersBytes: the sink copies, so an adaptor that
// overwrites its buffer right after EmitEncoded leaves the frame unchanged.
func TestEmitEncodedCopiesTheCallersBytes(t *testing.T) {
	j := newJoint("feeds.F", 0)
	sub, err := j.Subscribe("c1", &Policy{MemoryBudgetRecords: 1000}, "")
	if err != nil {
		t.Fatal(err)
	}
	sink := newBatchingSink(j, 4, time.Hour, nil)
	defer sink.stop()
	scratch := make([]byte, 3)
	for i := 0; i < 4; i++ {
		copy(scratch, []byte{byte(i), byte(i), byte(i)})
		sink.EmitEncoded(scratch)
		copy(scratch, "!!!")
	}
	f, ok := sub.Next(nil)
	if !ok || f.Len() != 4 {
		t.Fatal("the full frame did not leave")
	}
	for i, rec := range f.Records {
		if !bytes.Equal(rec, []byte{byte(i), byte(i), byte(i)}) {
			t.Fatalf("record %d reads %q after the caller reused its buffer", i, rec)
		}
	}
}

// TestBatchingSinkFrameAllocs: a full 128-record frame through the sink —
// as encoded bytes or as values encoded in place — and out of a subscription
// costs three allocations whatever its records: the frame, its record slice
// and its bytes.
func TestBatchingSinkFrameAllocs(t *testing.T) {
	const perFrame = 128
	j := newJoint("feeds.F", 0)
	sub, err := j.Subscribe("c1", &Policy{MemoryBudgetRecords: 1000}, "")
	if err != nil {
		t.Fatal(err)
	}
	sink := newBatchingSink(j, perFrame, time.Hour, nil)
	defer sink.stop()
	recs := make([]*adm.Record, perFrame)
	encs := make([][]byte, perFrame)
	for i := range recs {
		recs[i] = tweet(i, 0, "hello #world from #go")
		encs[i] = adm.Encode(recs[i])
	}
	for name, emit := range map[string]func(i int){
		"EmitEncoded": func(i int) { sink.EmitEncoded(encs[i]) },
		"Emit":        func(i int) { sink.Emit(recs[i]) },
	} {
		frame := func() {
			for i := range recs {
				emit(i)
			}
			if f, ok := sub.Next(nil); !ok || f.Len() != perFrame {
				t.Fatal("the full frame did not leave")
			}
		}
		frame() // warm: the scratch grows to a frame's bytes
		if n := testing.AllocsPerRun(20, frame); n != 3 {
			t.Errorf("%s: a %d-record frame allocates %.1f times, want 3", name, perFrame, n)
		}
	}
}

// TestDepositAndNextAllocateNothing: once a subscription's queue has its
// ring, passing a frame through the joint allocates nothing per frame.
func TestDepositAndNextAllocateNothing(t *testing.T) {
	j := newJoint("feeds.F", 0)
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
	j := newJoint("feeds.F", 0)
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
