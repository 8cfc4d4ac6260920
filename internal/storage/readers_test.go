package storage

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/lsm"
)

// stall is a fault hook that, once armed, parks the first call at a failure
// point ending in suffix until resume: entered is closed when it parks.
type stall struct {
	suffix  string
	armed   atomic.Bool
	entered chan struct{}
	resume  func()
	release chan struct{}
}

func newStall(suffix string) *stall {
	s := &stall{suffix: suffix, entered: make(chan struct{}), release: make(chan struct{})}
	s.resume = sync.OnceFunc(func() { close(s.release) })
	return s
}

func (s *stall) hook(op string) error {
	if strings.HasSuffix(op, s.suffix) && s.armed.CompareAndSwap(true, false) {
		close(s.entered)
		<-s.release
	}
	return nil
}

// stalledFrame opens a partition of testDataset whose trees consult st,
// stores committed, and then starts a frame of next that parks at st's
// failure point; it returns once the frame is parked, with the channel the
// frame's InsertFrame reports on once resumed.
func stalledFrame(t *testing.T, st *stall, committed, next *adm.Record) (*Partition, <-chan error) {
	t.Helper()
	m := NewManager("A", t.TempDir(), lsm.Options{FaultHook: st.hook})
	t.Cleanup(func() { m.Close() })
	t.Cleanup(st.resume) // before Close, which would wait for the parked frame
	p, err := m.OpenPartition(testDataset())
	if err != nil {
		t.Fatal(err)
	}
	insertRecs(t, p, committed)
	st.armed.Store(true)
	done := make(chan error, 1)
	go func() { done <- p.InsertFrame(encodeFrame(next)) }()
	select {
	case <-st.entered:
	case <-time.After(10 * time.Second):
		t.Fatalf("the frame never reached %s", st.suffix)
	}
	return p, done
}

// within runs read and fails the test if it returns an error or has not
// returned in a second: a reader that queues behind a parked frame never
// does.
func within(t *testing.T, what string, read func() error) {
	t.Helper()
	got := make(chan error, 1)
	go func() { got <- read() }()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(time.Second):
		t.Fatalf("%s blocked behind a frame parked inside a WAL append", what)
	}
}

// searchIDs returns the ids of the records a search found.
func searchIDs(recs []*adm.Record, err error) (string, error) {
	if err != nil {
		return "", err
	}
	var ids []string
	for _, r := range recs {
		id, _ := r.Field("id")
		ids = append(ids, string(id.(adm.String)))
	}
	return strings.Join(ids, ","), nil
}

// TestLookupBesideStalledFrame: a frame parked inside the primary tree's WAL
// append holds the partition's writer lock, and the primary's writer turn,
// for as long as it is parked. Readers take neither, so a Lookup of a
// committed record, a Count and an index search all still answer — without
// the parked frame's record.
func TestLookupBesideStalledFrame(t *testing.T) {
	st := newStall("/primary/wal.appendBatch")
	committed := tweetRec("t1", "alice", &adm.Point{X: 5, Y: 5})
	p, done := stalledFrame(t, st, committed, tweetRec("t2", "bob", nil))

	within(t, "Lookup", func() error {
		got, ok, err := p.Lookup([]adm.Value{adm.String("t1")})
		if err == nil && (!ok || !adm.Equal(got, committed)) {
			err = fmt.Errorf("got %v, %v; want the committed record", got, ok)
		}
		return err
	})
	within(t, "Count", func() error {
		n, err := p.Count()
		if err == nil && n != 1 {
			err = fmt.Errorf("got %d, want 1: the parked frame is not applied", n)
		}
		return err
	})
	within(t, "SearchBTree", func() error {
		ids, err := searchIDs(p.SearchBTree("userIdx", adm.String("alice")))
		if err == nil && ids != "t1" {
			err = fmt.Errorf("alice: got %q, want t1", ids)
		}
		return err
	})

	st.resume()
	if err := <-done; err != nil {
		t.Fatalf("the parked frame: %v", err)
	}
	if _, ok, err := p.Lookup([]adm.Value{adm.String("t2")}); !ok || err != nil {
		t.Fatalf("Lookup(t2) after the frame = %v, %v", ok, err)
	}
}

// TestSearchBesideStalledSecondary parks a frame that moves a record to a new
// user and location in the first secondary's WAL append: its primary batch
// has landed, neither index batch has. The index entries for the old values
// are still there, but they are stale, and a search for the old values must
// not return the record — in either version. Once the frame finishes, the
// searches for the new values find it.
func TestSearchBesideStalledSecondary(t *testing.T) {
	st := newStall("/userIdx/wal.appendBatch")
	moved := tweetRec("t1", "bob", &adm.Point{X: 50, Y: 40})
	p, done := stalledFrame(t, st, tweetRec("t1", "alice", &adm.Point{X: 5, Y: 5}), moved)
	oldRect := adm.Rectangle{Low: adm.Point{X: 0, Y: 0}, High: adm.Point{X: 10, Y: 10}}
	newRect := adm.Rectangle{Low: adm.Point{X: 45, Y: 35}, High: adm.Point{X: 55, Y: 45}}

	within(t, "Lookup", func() error {
		got, ok, err := p.Lookup([]adm.Value{adm.String("t1")})
		if err == nil && (!ok || !adm.Equal(got, moved)) {
			err = fmt.Errorf("got %v, %v; want the version the primary already holds", got, ok)
		}
		return err
	})
	within(t, "SearchBTree", func() error {
		ids, err := searchIDs(p.SearchBTree("userIdx", adm.String("alice")))
		if err == nil && ids != "" {
			err = fmt.Errorf("alice: got %q through a stale entry, want nothing", ids)
		}
		return err
	})
	within(t, "SearchRTree", func() error {
		ids, err := searchIDs(p.SearchRTree("locationIndex", oldRect))
		if err == nil && ids != "" {
			err = fmt.Errorf("old location: got %q through a stale entry, want nothing", ids)
		}
		return err
	})

	st.resume()
	if err := <-done; err != nil {
		t.Fatalf("the parked frame: %v", err)
	}
	if ids, err := searchIDs(p.SearchBTree("userIdx", adm.String("bob"))); err != nil || ids != "t1" {
		t.Fatalf("SearchBTree(bob) after the frame = %q, %v; want t1", ids, err)
	}
	if ids, err := searchIDs(p.SearchRTree("locationIndex", newRect)); err != nil || ids != "t1" {
		t.Fatalf("SearchRTree(new location) after the frame = %q, %v; want t1", ids, err)
	}
	if err := p.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
}

// TestReadsAfterCloseReportPartitionClosed: the readers no longer check the
// closed flag under a lock; the closed trees' errors reach the caller as the
// partition's own.
func TestReadsAfterCloseReportPartitionClosed(t *testing.T) {
	p := openTestPartition(t, testDataset())
	insertRecs(t, p, tweetRec("t1", "alice", &adm.Point{X: 5, Y: 5}))
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	rect := adm.Rectangle{Low: adm.Point{X: 0, Y: 0}, High: adm.Point{X: 10, Y: 10}}
	reads := map[string]func() error{
		"Lookup": func() error { _, _, err := p.Lookup([]adm.Value{adm.String("t1")}); return err },
		"Count":  func() error { _, err := p.Count(); return err },
		"Scan":   func() error { return p.Scan(func(*adm.Record) bool { return true }) },
		"SearchBTree": func() error {
			_, err := p.SearchBTree("userIdx", adm.String("alice"))
			return err
		},
		"SearchRTree": func() error { _, err := p.SearchRTree("locationIndex", rect); return err },
	}
	for name, read := range reads {
		if err := read(); err == nil || err.Error() != "storage: partition closed" {
			t.Errorf("%s after Close = %v, want storage: partition closed", name, err)
		}
	}
}
