package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"asterixfeeds/internal/governor"
	"asterixfeeds/internal/hyracks"
)

// heldBytes is the walk the pushed counter replaced: what the subscription
// holds, read under its lock.
func (s *Subscription) heldBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.backlogBytes
	if s.spill != nil {
		n += s.spill.bytes
	}
	return n
}

// flakyStore is a spill file's store whose calls fail when bad says so; bad
// is told the operation and how many calls of it came before. A failing
// write lands half its bytes first, a failing read fills half its buffer:
// the failures an offset-per-call file must shrug off.
type flakyStore struct {
	*os.File
	bad   func(op string, n int) bool
	calls map[string]int
	fails int
}

var errFlaky = errors.New("flaky store")

func (f *flakyStore) fail(op string) bool {
	n := f.calls[op]
	f.calls[op]++
	if f.bad(op, n) {
		f.fails++
		return true
	}
	return false
}

func (f *flakyStore) WriteAt(p []byte, off int64) (int, error) {
	if f.fail("write") {
		n, _ := f.File.WriteAt(p[:len(p)/2], off)
		return n, errFlaky
	}
	return f.File.WriteAt(p, off)
}

// ReadAt fails only reads of a frame's body, never of its 4-byte length:
// the error arrives with the frame half read.
func (f *flakyStore) ReadAt(p []byte, off int64) (int, error) {
	if len(p) > 4 && f.fail("read") {
		n, _ := f.File.ReadAt(p[:len(p)/2], off)
		return n, errFlaky
	}
	return f.File.ReadAt(p, off)
}

func (f *flakyStore) Truncate(size int64) error {
	if f.fail("truncate") {
		return errFlaky
	}
	return f.File.Truncate(size)
}

func makeFlaky(sf *spillFile, bad func(op string, n int) bool) *flakyStore {
	fs := &flakyStore{File: sf.f.(*os.File), bad: bad, calls: map[string]int{}}
	sf.f = fs
	return fs
}

// everyFew fails every fifth write, every fourth body read and the first two
// truncates.
func everyFew(op string, n int) bool {
	switch op {
	case "write":
		return n%5 == 3
	case "read":
		return n%4 == 1
	default:
		return n < 2
	}
}

func numberedFrame(i int) *hyracks.Frame {
	f := hyracks.NewFrame(2)
	f.Append([]byte(fmt.Sprintf("%06d", i)))
	f.Append(make([]byte, i%37))
	return f
}

// TestSpillFileSurvivesIOErrors: through short writes, reads that fail with
// the frame half read and failed truncates, every frame whose push reported
// success pops exactly once, in push order, and a failed call moves nothing.
func TestSpillFileSurvivesIOErrors(t *testing.T) {
	sf, err := newSpillFile(filepath.Join(t.TempDir(), "s.spill"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.close()
	store := makeFlaky(sf, everyFew)

	var pushed, popped []string
	pop := func() {
		before := *sf
		f, err := sf.pop()
		if f != nil {
			popped = append(popped, string(f.Records[0]))
			var i int
			fmt.Sscanf(popped[len(popped)-1], "%d", &i)
			if len(f.Records) != 2 || len(f.Records[1]) != i%37 {
				t.Fatalf("frame %s came back as %d records, the second of %d bytes", f.Records[0], len(f.Records), len(f.Records[len(f.Records)-1]))
			}
		} else if err != nil && (sf.readOff != before.readOff || sf.frames != before.frames || sf.bytes != before.bytes) {
			t.Fatalf("a failed read moved the file: %+v -> %+v", before, *sf)
		}
	}
	for i := 0; i < 200; i++ {
		before := *sf
		ok, err := sf.push(numberedFrame(i))
		switch {
		case err == nil && ok:
			pushed = append(pushed, fmt.Sprintf("%06d", i))
		case sf.writeOff != before.writeOff || sf.frames != before.frames || sf.bytes != before.bytes:
			t.Fatalf("a failed write moved the file: %+v -> %+v", before, *sf)
		}
		if i%3 == 0 {
			pop()
		}
		if i%50 == 20 { // drain: run into the truncate
			for sf.pending() > 0 {
				pop()
			}
		}
	}
	for tries := 0; sf.pending() > 0 && tries < 1000; tries++ {
		pop()
	}
	if fmt.Sprint(popped) != fmt.Sprint(pushed) {
		t.Fatalf("popped %d frames %v\nof %d pushed %v", len(popped), popped, len(pushed), pushed)
	}
	if store.fails < 50 || store.calls["truncate"] < 3 {
		t.Fatalf("the schedule injected %d failures over %v calls; the test must meet all three kinds", store.fails, store.calls)
	}
	if sf.bytes != 0 || sf.readOff != 0 || sf.writeOff != 0 {
		t.Fatalf("drained and truncated, the file still counts %d bytes (offsets %d, %d)", sf.bytes, sf.readOff, sf.writeOff)
	}
}

// TestSubscriptionSpillIOErrorsLoseNothing drives a Spill subscription whose
// spill file fails writes, reads and truncates: every record is delivered
// exactly once, the ledger balances, each failure is counted, the drain does
// not report closed over frames still on disk, and the bytes published to
// the FeedManager equal the bytes held after every call.
func TestSubscriptionSpillIOErrorsLoseNothing(t *testing.T) {
	fm := NewFeedManager("A")
	j := fm.CreateJoint("feeds.F", 0)
	s, err := j.Subscribe("c", &Policy{MemoryBudgetRecords: 4, Spill: true}, filepath.Join(t.TempDir(), "sub.spill"))
	if err != nil {
		t.Fatal(err)
	}
	store := makeFlaky(s.spill, everyFew)
	seen := map[string]int{}
	take := func(f *hyracks.Frame) { seen[string(f.Records[0])]++ }
	exact := func(step string) {
		t.Helper()
		if got, want := fm.TrackedBytes(), s.heldBytes(); got != want || got < 0 {
			t.Fatalf("%s: published %d bytes, the subscription holds %d", step, got, want)
		}
	}

	const offered = 300
	stop := make(chan struct{})
	for i := 0; i < offered; i++ {
		j.Deposit(numberedFrame(i))
		exact(fmt.Sprintf("deposit %d", i))
		if i%3 == 0 {
			f, ok := s.Next(stop)
			exact(fmt.Sprintf("next after deposit %d", i))
			if ok && i%2 == 0 {
				s.requeue(f)
				exact(fmt.Sprintf("requeue after deposit %d", i))
			} else if ok {
				take(f)
			}
		}
		if i%100 == 50 { // empty the spill file: run into the truncate
			for st := s.Stats(); st.Backlog > 0 || st.SpilledFrames > 0; st = s.Stats() {
				f, _ := s.Next(stop)
				take(f)
				exact(fmt.Sprintf("emptying after deposit %d", i))
			}
		}
	}
	if st := s.Stats(); st.SpilledTotal == 0 || st.SpilledFrames == 0 {
		t.Fatalf("nothing spilled: %+v", st)
	}
	s.drainAndClose()
	for {
		f, ok := s.Next(stop)
		if !ok {
			break
		}
		take(f)
		exact("drain")
	}
	st := s.Stats()
	if st.SpilledFrames != 0 {
		t.Fatalf("Next reported closed with %d frames still in the spill file", st.SpilledFrames)
	}
	for i := 0; i < offered; i++ {
		if n := seen[fmt.Sprintf("%06d", i)]; n != 1 {
			t.Fatalf("record %06d delivered %d times", i, n)
		}
	}
	if st.Received != 2*offered || st.Discarded+st.ThrottledOut+st.GovernorShed != 0 {
		t.Fatalf("ledger: %+v, want %d received and all of them delivered", st, 2*offered)
	}
	if st.SpillErrors != int64(store.fails) || store.calls["read"] == 0 || store.calls["truncate"] < 3 {
		t.Fatalf("SpillErrors = %d, the store failed %d of %v calls", st.SpillErrors, store.fails, store.calls)
	}
	if got := fm.TrackedBytes(); got != 0 {
		t.Fatalf("drained, the FeedManager still counts %d bytes", got)
	}
}

// TestTrackedBytesHammer runs, under each lossy and non-lossy policy and a
// governor small enough to refuse most of the traffic, every call that moves
// a subscription's bytes at once: deposits, dequeues, requeues, spill
// push/pop/replenish, new subscriptions, a drain in place and
// DropSubscription. The FeedManager's counter is never negative, equals the
// walk over the subscriptions whenever the workers pause, and is zero when
// everything is dropped.
func TestTrackedBytesHammer(t *testing.T) {
	policies := map[string]*Policy{
		"Spill":    {MemoryBudgetRecords: 6, Spill: true, MaxSpillBytes: 4 << 10},
		"Discard":  {MemoryBudgetRecords: 40, Discard: true},
		"Throttle": {MemoryBudgetRecords: 40, Throttle: true, ThrottleMinRatio: 0.1},
	}
	for name, pol := range policies {
		t.Run(name, func(t *testing.T) {
			fm := NewFeedManager("A")
			g := governor.New("A", governor.Config{BudgetBytes: 8 << 10})
			g.RegisterSource("feeds", fm.TrackedBytes)
			j := fm.CreateJoint("feeds.F", 0)
			dir := t.TempDir()
			var all []*Subscription // every subscription ever made, dropped ones included
			subscribe := func(id string) *Subscription {
				s, err := j.Subscribe(id, pol, filepath.Join(dir, id+".spill"))
				if err != nil {
					t.Error(err)
					return nil
				}
				s.SetAdmission(g.Admission("feed:"+id, governor.ClassLow))
				return s
			}
			for i := 0; i < 2; i++ {
				all = append(all, subscribe(fmt.Sprintf("steady%d", i)))
			}
			steady := all

			var negative atomic.Bool
			for round := 0; round < 6; round++ {
				var producers, rest sync.WaitGroup
				stop := make(chan struct{})
				for p := 0; p < 2; p++ {
					producers.Add(1)
					go func(seed int64) {
						defer producers.Done()
						rng := rand.New(rand.NewSource(seed))
						for i := 0; i < 300; i++ {
							f := hyracks.NewFrame(4)
							for r := 1 + rng.Intn(4); r > 0; r-- {
								f.Append(make([]byte, 1+rng.Intn(200)))
							}
							j.Deposit(f)
						}
					}(int64(round*2 + p))
				}
				for _, s := range steady {
					rest.Add(1)
					go func(s *Subscription) {
						defer rest.Done()
						for n := 0; ; n++ {
							f, ok := s.Next(stop)
							if !ok {
								return
							}
							if n%5 == 0 {
								s.requeue(f)
							}
						}
					}(s)
				}
				var churned []*Subscription
				rest.Add(1)
				go func() {
					defer rest.Done()
					for k := 0; k < 8; k++ {
						id := fmt.Sprintf("r%dk%d", round, k)
						s := subscribe(id)
						if s == nil {
							return
						}
						churned = append(churned, s)
						for n := 0; n < 5; n++ {
							s.Next(stop)
						}
						if k%2 == 0 {
							j.DropSubscription(id)
							continue
						}
						s.drainAndClose()
						for {
							if _, ok := s.Next(nil); !ok {
								break
							}
						}
					}
				}()
				rest.Add(1)
				go func() {
					defer rest.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if fm.TrackedBytes() < 0 {
							negative.Store(true)
						}
						runtime.Gosched()
					}
				}()
				producers.Wait()
				close(stop)
				rest.Wait()
				all = append(all, churned...)

				var walked int64
				for _, s := range all {
					walked += s.heldBytes()
				}
				if got := fm.TrackedBytes(); got != walked {
					t.Fatalf("round %d: the counter reads %d, the subscriptions hold %d", round, got, walked)
				}
			}
			if negative.Load() {
				t.Fatal("the counter went negative")
			}
			if name == "Spill" {
				var spilled int64
				for _, s := range all {
					spilled += s.Stats().SpilledTotal
				}
				if spilled == 0 {
					t.Fatal("the Spill rounds never spilled")
				}
			} else if g.ShedRecords.Value() == 0 {
				t.Fatal("the governor never shed: the admission path under s.mu went unexercised")
			}
			// With nobody consuming, what is deposited now is held when the
			// joint goes: closing it must give every byte back.
			for i := 0; i < 20; i++ {
				j.Deposit(numberedFrame(i))
			}
			if got, want := fm.TrackedBytes(), steady[0].heldBytes()+steady[1].heldBytes(); got != want || got == 0 {
				t.Fatalf("before the joint closes the counter reads %d, the two subscriptions left hold %d", got, want)
			}
			fm.RemoveJoint("feeds.F", 0)
			if got := fm.TrackedBytes(); got != 0 {
				t.Fatalf("everything dropped, the counter reads %d", got)
			}
		})
	}
}
