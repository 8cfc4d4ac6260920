package storage

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/lsm"
)

// mergeSecondaries forces a full merge of every secondary tree of p.
func mergeSecondaries(t *testing.T, p *Partition) {
	t.Helper()
	for _, ix := range p.ds.Indexes {
		if err := p.secondaries[ix.Name].Merge(); err != nil {
			t.Fatalf("merging %s: %v", ix.Name, err)
		}
	}
}

// TestMergeDropsStaleEntries: the three writes that leave a version's
// secondary entries behind — an upsert that moves a record, a blind Delete,
// and a repeat of a key inside one frame — each leave one stale entry per
// index. CheckIndexes counts them, the searches refuse them, and one merge
// of each secondary drops every one of them and nothing else.
func TestMergeDropsStaleEntries(t *testing.T) {
	lm := &lsm.Metrics{}
	m := NewManager("A", t.TempDir(), lsm.Options{Metrics: lm})
	defer m.Close()
	p, err := m.OpenPartition(testDataset())
	if err != nil {
		t.Fatal(err)
	}
	insertRecs(t, p,
		tweetRec("moved", "alice", &adm.Point{X: 1, Y: 1}),
		tweetRec("deleted", "carol", &adm.Point{X: 2, Y: 2}),
		tweetRec("kept", "dave", &adm.Point{X: 3, Y: 3}))
	insertRecs(t, p, tweetRec("moved", "bob", &adm.Point{X: 50, Y: 50}))
	if err := p.Delete([]adm.Value{adm.String("deleted")}); err != nil {
		t.Fatal(err)
	}
	insertRecs(t, p,
		tweetRec("repeated", "first", &adm.Point{X: 4, Y: 4}),
		tweetRec("repeated", "second", &adm.Point{X: 60, Y: 60}))

	stale, err := p.CheckIndexes()
	if err != nil || stale != 6 {
		t.Fatalf("CheckIndexes = %d stale, %v; want 6: alice, carol and first, each in both indexes", stale, err)
	}
	for _, user := range []string{"alice", "carol", "first"} {
		if ids, err := searchIDs(p.SearchBTree("userIdx", adm.String(user))); err != nil || ids != "" {
			t.Fatalf("SearchBTree(%s) = %q, %v; want nothing", user, ids, err)
		}
	}
	oldRect := adm.Rectangle{Low: adm.Point{X: 0, Y: 0}, High: adm.Point{X: 5, Y: 5}}
	if ids, err := searchIDs(p.SearchRTree("locationIndex", oldRect)); err != nil || ids != "kept" {
		t.Fatalf("SearchRTree(old locations) = %q, %v; want kept", ids, err)
	}

	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	mergeSecondaries(t, p)
	if n := lm.StaleDropped.Value(); n != 6 {
		t.Fatalf("the merges dropped %d entries, want the 6 stale ones", n)
	}
	for _, ix := range p.ds.Indexes {
		if n, err := p.secondaries[ix.Name].Len(); err != nil || n != 3 {
			t.Fatalf("after the merges %s holds %d entries (%v), want 3", ix.Name, n, err)
		}
	}
	if stale, err := p.CheckIndexes(); err != nil || stale != 0 {
		t.Fatalf("CheckIndexes after the merges = %d stale, %v; want 0", stale, err)
	}
}

// TestMergeFilterKeepsWhatItCannotProbe: the merge filter drops an entry
// only when it read the primary and found the entry stale. A probe that
// fails — here every primary block read — and a primary already closed
// both keep the entry; a later merge, once the primary reads again, drops
// it.
func TestMergeFilterKeepsWhatItCannotProbe(t *testing.T) {
	var failReads atomic.Bool
	lm := &lsm.Metrics{}
	m := NewManager("A", t.TempDir(), lsm.Options{Metrics: lm, FaultHook: func(op string) error {
		if failReads.Load() && strings.HasSuffix(op, "/primary/read:block") {
			return lsm.ErrInjected
		}
		return nil
	}})
	defer m.Close()
	p, err := m.OpenPartition(testDataset())
	if err != nil {
		t.Fatal(err)
	}
	insertRecs(t, p, tweetRec("t1", "alice", nil))
	insertRecs(t, p, tweetRec("t1", "bob", nil))
	if err := p.Flush(); err != nil { // the primary's record now lives in a run: a probe reads its block
		t.Fatal(err)
	}
	idx := p.secondaries["userIdx"]

	failReads.Store(true)
	if err := idx.Merge(); err != nil {
		t.Fatal(err)
	}
	if n, _ := idx.Len(); n != 2 || lm.StaleDropped.Value() != 0 {
		t.Fatalf("a merge whose probes failed left %d entries and dropped %d; want both kept", n, lm.StaleDropped.Value())
	}
	failReads.Store(false)
	if err := idx.Merge(); err != nil {
		t.Fatal(err)
	}
	if n, _ := idx.Len(); n != 1 || lm.StaleDropped.Value() != 1 {
		t.Fatalf("a merge whose probes read left %d entries and dropped %d; want alice's dropped", n, lm.StaleDropped.Value())
	}

	insertRecs(t, p, tweetRec("t1", "carol", nil))
	if err := p.primary.Close(); err != nil {
		t.Fatal(err)
	}
	if err := idx.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := idx.Merge(); err != nil {
		t.Fatal(err)
	}
	if n, _ := idx.Len(); n != 2 || lm.StaleDropped.Value() != 1 {
		t.Fatalf("a merge beside a closed primary left %d entries and dropped %d in all; want bob's kept", n, lm.StaleDropped.Value())
	}
}

// TestSecondaryMergeProbeAllocs: the merge filter probes the primary once
// per entry, in place (Tree.View) and into scratch it keeps, so a merge
// allocates per block it reads or writes — not per entry it probes. Half
// of the entries are stale, so both verdicts are taken.
func TestSecondaryMergeProbeAllocs(t *testing.T) {
	const n = 4000
	lm := &lsm.Metrics{}
	m := NewManager("A", t.TempDir(), lsm.Options{Metrics: lm})
	defer m.Close()
	ds := testDataset()
	ds.Indexes = ds.Indexes[:1] // userIdx
	p, err := m.OpenPartition(ds)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		frame := make([][]byte, 0, n/2)
		for i := 0; i < n/2; i++ {
			frame = append(frame, adm.Encode(tweetRec(fmt.Sprintf("t%05d", i), fmt.Sprintf("user%d-%d", i%97, round), nil)))
		}
		if err := p.InsertFrame(frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	idx := p.secondaries["userIdx"]
	if got, _ := idx.Len(); got != n {
		t.Fatalf("userIdx holds %d entries, want %d", got, n)
	}
	// One merge drops the stale half; every later one probes all n/2 live
	// entries again, and rewrites them.
	allocs := testing.AllocsPerRun(5, func() {
		if err := idx.Merge(); err != nil {
			t.Fatal(err)
		}
	})
	if got, _ := idx.Len(); got != n/2 || lm.StaleDropped.Value() != n/2 {
		t.Fatalf("userIdx holds %d entries after the merges, %d dropped; want %d and %d", got, lm.StaleDropped.Value(), n/2, n/2)
	}
	if allocs > n/20 {
		t.Fatalf("a merge probing %d entries allocates %.0f times, want ≤ %d: per block, not per entry", n/2, allocs, n/20)
	}
	t.Logf("a merge probing %d entries allocates %.0f times", n/2, allocs)
}
