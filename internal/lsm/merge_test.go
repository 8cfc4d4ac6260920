package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// writeRun persists entries (which must be sorted by key, unique) as a run
// file at path through the bare runWriter — no merge, no tombstone rule —
// so tests can lay down inputs of any shape.
func writeRun(path string, entries []entry, cfg runConfig) (*run, error) {
	rw, err := newRunWriter(path, nil, len(entries), cfg)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if err := rw.add(e); err != nil {
			_ = rw.abort()
			return nil, err
		}
	}
	return rw.finish()
}

// buildRun writes entries (sorted, unique) as a run file under dir.
func buildRun(t *testing.T, dir string, seq int, entries []entry) *run {
	t.Helper()
	r, err := writeRun(filepath.Join(dir, fmt.Sprintf("run-%06d.lsm", seq)), entries, runConfig{})
	if err != nil {
		t.Fatalf("writeRun: %v", err)
	}
	return r
}

// mergeRuns drives the tree's one component writer the way compactOnce does:
// a full merge of runs (newest first) that drops tombstones.
func mergeRuns(path string, runs []*run, cfg runConfig) (*run, error) {
	return writeMergedRun(path, nil, nil, runs, true, nil, "merge:bg", cfg)
}

func e(key, value string) entry { return entry{key: []byte(key), value: []byte(value)} }
func tomb(key string) entry     { return entry{key: []byte(key), tombstone: true} }
func runEntries(t *testing.T, r *run) []entry {
	t.Helper()
	out := make([]entry, 0, r.len())
	it := r.iter(nil, true)
	defer it.close()
	for ; it.valid(); it.next() {
		ent, err := it.curr()
		if err != nil {
			t.Fatalf("curr: %v", err)
		}
		// The entry's bytes are the block's only until the iterator moves on.
		ent.key, ent.value = bytes.Clone(ent.key), bytes.Clone(ent.value)
		out = append(out, ent)
	}
	return out
}

// TestMergeRunsNewestWins checks that when a key appears in several input
// runs, the streaming merge keeps the version from the newest (lowest-index)
// run and discards the rest.
func TestMergeRunsNewestWins(t *testing.T) {
	dir := t.TempDir()
	old := buildRun(t, dir, 1, []entry{e("a", "old-a"), e("b", "old-b"), e("d", "old-d")})
	mid := buildRun(t, dir, 2, []entry{e("b", "mid-b"), e("c", "mid-c")})
	newer := buildRun(t, dir, 3, []entry{e("a", "new-a"), e("c", "new-c")})
	defer old.close()
	defer mid.close()
	defer newer.close()

	merged, err := mergeRuns(filepath.Join(dir, "run-000004.lsm"), []*run{newer, mid, old}, runConfig{})
	if err != nil {
		t.Fatalf("mergeRuns: %v", err)
	}
	defer merged.close()

	want := map[string]string{"a": "new-a", "b": "mid-b", "c": "new-c", "d": "old-d"}
	got := runEntries(t, merged)
	if len(got) != len(want) {
		t.Fatalf("merged has %d entries, want %d: %+v", len(got), len(want), got)
	}
	for _, ent := range got {
		if ent.tombstone {
			t.Fatalf("unexpected tombstone for %q", ent.key)
		}
		if want[string(ent.key)] != string(ent.value) {
			t.Fatalf("key %q = %q, want %q", ent.key, ent.value, want[string(ent.key)])
		}
	}
}

// TestMergeRunsDropsTombstones checks that a full merge elides tombstones
// and the puts they mask — including a tombstone whose key only exists in
// the same (newest) run carrying it.
func TestMergeRunsDropsTombstones(t *testing.T) {
	dir := t.TempDir()
	old := buildRun(t, dir, 1, []entry{e("a", "va"), e("b", "vb"), e("c", "vc")})
	newer := buildRun(t, dir, 2, []entry{tomb("b"), tomb("z")})
	defer old.close()
	defer newer.close()

	merged, err := mergeRuns(filepath.Join(dir, "run-000003.lsm"), []*run{newer, old}, runConfig{})
	if err != nil {
		t.Fatalf("mergeRuns: %v", err)
	}
	defer merged.close()

	got := runEntries(t, merged)
	if len(got) != 2 {
		t.Fatalf("merged has %d entries, want 2 (a, c): %+v", len(got), got)
	}
	if string(got[0].key) != "a" || string(got[1].key) != "c" {
		t.Fatalf("merged keys = %q, %q; want a, c", got[0].key, got[1].key)
	}
}

// TestMergeRunsResurrectionMasked checks ordering subtlety: a tombstone in a
// newer run must beat a live put for the same key in an older run even when
// other keys interleave around it.
func TestMergeRunsResurrectionMasked(t *testing.T) {
	dir := t.TempDir()
	old := buildRun(t, dir, 1, []entry{e("k1", "v1"), e("k2", "v2"), e("k3", "v3")})
	newer := buildRun(t, dir, 2, []entry{tomb("k2")})
	defer old.close()
	defer newer.close()

	merged, err := mergeRuns(filepath.Join(dir, "run-000003.lsm"), []*run{newer, old}, runConfig{})
	if err != nil {
		t.Fatalf("mergeRuns: %v", err)
	}
	defer merged.close()
	for _, ent := range runEntries(t, merged) {
		if string(ent.key) == "k2" {
			t.Fatalf("k2 resurrected: %+v", ent)
		}
	}
}

// TestMergeRunsAllTombstones checks the empty-output case: a merge whose
// every key is deleted produces a valid zero-entry run.
func TestMergeRunsAllTombstones(t *testing.T) {
	dir := t.TempDir()
	old := buildRun(t, dir, 1, []entry{e("a", "va"), e("b", "vb")})
	newer := buildRun(t, dir, 2, []entry{tomb("a"), tomb("b")})
	defer old.close()
	defer newer.close()

	merged, err := mergeRuns(filepath.Join(dir, "run-000003.lsm"), []*run{newer, old}, runConfig{})
	if err != nil {
		t.Fatalf("mergeRuns: %v", err)
	}
	defer merged.close()
	if merged.len() != 0 {
		t.Fatalf("merged has %d entries, want 0", merged.len())
	}
	// The empty run must survive a reopen.
	re, err := openRun(merged.path, runConfig{}, 0)
	if err != nil {
		t.Fatalf("reopening empty run: %v", err)
	}
	defer re.close()
	if re.len() != 0 {
		t.Fatalf("reopened run has %d entries, want 0", re.len())
	}
}

// TestRunWriterAtomicity checks the tmp+rename protocol: an aborted writer
// leaves no file at the destination and no temp debris, and a crashed
// writer's temp file is swept by Open.
func TestRunWriterAtomicity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run-000001.lsm")
	rw, err := newRunWriter(path, nil, 4, runConfig{})
	if err != nil {
		t.Fatalf("newRunWriter: %v", err)
	}
	if err := rw.add(e("a", "va")); err != nil {
		t.Fatalf("add: %v", err)
	}
	if err := rw.abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("aborted run visible at %s", path)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("abort left temp file")
	}

	// Simulate a crash mid-write: temp file exists, never renamed.
	if err := os.WriteFile(path+".tmp", []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer tr.Close()
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("Open did not sweep leftover temp file")
	}
	if got := tr.Stats().Runs; got != 0 {
		t.Fatalf("Open loaded %d runs from debris, want 0", got)
	}
}

// overlappingRuns lays down nRuns runs (returned newest first) of perRun
// entries each over a shared keyspace, so most keys live in several runs and
// every run carries tombstones, and returns the newest-wins model of their
// union with tombstones already dropped.
func overlappingRuns(t *testing.T, dir string, nRuns, perRun int, cfg runConfig) ([]*run, map[string]string) {
	t.Helper()
	rnd := rand.New(rand.NewSource(7))
	model := map[string]string{}
	runs := make([]*run, nRuns)
	for seq := 1; seq <= nRuns; seq++ { // oldest first, so later runs overwrite the model
		picked := map[string]entry{}
		for len(picked) < perRun {
			k := fmt.Sprintf("key-%06d", rnd.Intn(perRun*2))
			if rnd.Intn(10) == 0 {
				picked[k] = tomb(k)
			} else {
				picked[k] = e(k, fmt.Sprintf("r%d-%s-%d", seq, k, rnd.Intn(1000)))
			}
		}
		entries := make([]entry, 0, perRun)
		for k, ent := range picked {
			entries = append(entries, ent)
			if ent.tombstone {
				delete(model, k)
			} else {
				model[k] = string(ent.value)
			}
		}
		sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].key, entries[j].key) < 0 })
		r, err := writeRun(filepath.Join(dir, fmt.Sprintf("run-%06d.lsm", seq)), entries, cfg)
		if err != nil {
			t.Fatalf("writeRun: %v", err)
		}
		t.Cleanup(func() { r.close() })
		runs[nRuns-seq] = r
	}
	return runs, model
}

// TestMergeUnderCacheEviction is the case the merge's old per-entry copy was
// defending: with 256-byte blocks nearly every next() crosses a block, and a
// cache far smaller than the inputs evicts the block an entry came from while
// the merge still compares against (and writes) its bytes. A merge does not
// fill the cache itself, so a reader scanning the same runs beside it keeps
// the cache churning and the merge picks its blocks up from there whenever
// they happen to be resident. Blocks an iterator has seen are never reused or
// mutated, so the output must still match the model entry for entry.
func TestMergeUnderCacheEviction(t *testing.T) {
	dir := t.TempDir()
	cache := NewBlockCache(16 << 10)
	cfg := runConfig{blockBytes: 256, cache: cache}
	runs, model := overlappingRuns(t, dir, 4, 5000, cfg)

	stop, scanned := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			for _, r := range runs {
				it := r.iter(nil, true)
				for it.valid() {
					it.next()
				}
				if err := it.fail(); err != nil {
					scanned <- err
					return
				}
			}
			select {
			case <-stop:
				scanned <- nil
				return
			default:
			}
		}
	}()
	merged, err := mergeRuns(filepath.Join(dir, "run-000004m.lsm"), runs, cfg)
	close(stop)
	if err := <-scanned; err != nil {
		t.Fatalf("scan beside the merge: %v", err)
	}
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	defer merged.close()
	if ev := cache.Stats().Evictions; ev < 1000 {
		t.Fatalf("cache evicted %d blocks during the merge; the test needs continuous eviction", ev)
	}
	got := runEntries(t, merged)
	if len(got) != len(model) {
		t.Fatalf("merged run has %d entries, model %d", len(got), len(model))
	}
	for i, ent := range got {
		if i > 0 && bytes.Compare(got[i-1].key, ent.key) >= 0 {
			t.Fatalf("entry %d key %q not above its predecessor %q", i, ent.key, got[i-1].key)
		}
		want, ok := model[string(ent.key)]
		if ent.tombstone || !ok || string(ent.value) != want {
			t.Fatalf("entry %d: %q = %q (tombstone %v), model %q (present %v)", i, ent.key, ent.value, ent.tombstone, want, ok)
		}
	}
}

// TestMergeAllocatesPerBlockNotPerEntry pins what made the copy unnecessary:
// the writer consumes each entry before its iterator moves, so a merge
// allocates for the blocks it reads and the index entries it emits, never
// for an entry. (A merge that copies key and value of every entry it emits
// measures 0.96 on these inputs — two per output entry.)
func TestMergeAllocatesPerBlockNotPerEntry(t *testing.T) {
	dir := t.TempDir()
	cfg := runConfig{blockBytes: 4 << 10}
	runs, _ := overlappingRuns(t, dir, 4, 5000, cfg)
	read := 0
	for _, r := range runs {
		read += r.len()
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	merged, err := mergeRuns(filepath.Join(dir, "run-000004m.lsm"), runs, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	defer merged.close()
	perEntry := float64(after.Mallocs-before.Mallocs) / float64(read)
	t.Logf("%d allocations for %d input entries: %.3f per entry", after.Mallocs-before.Mallocs, read, perEntry)
	if perEntry >= 0.2 {
		t.Fatalf("merge allocated %.3f objects per input entry, want < 0.2 (per block, not per entry)", perEntry)
	}
}

// TestWriteMergedRunMixedComponents feeds the component writer what a
// snapshot holds — two memtables over two runs, newest first — with
// overlapping keys, a tombstone in every layer, and the empty key, and
// checks the run it produces against a newest-wins model for both tombstone
// rules.
func TestWriteMergedRunMixedComponents(t *testing.T) {
	// Layers newest first; each sorted by key. "" is the empty key.
	layers := [][]entry{
		{tomb(""), e("b", "m1-b"), tomb("d"), e("h", "m1-h")},                          // mutable memtable
		{e("", "m2-empty"), e("a", "m2-a"), tomb("b"), e("d", "m2-d"), tomb("g")},      // frozen memtable
		{e("a", "r1-a"), tomb("c"), e("e", "r1-e"), e("g", "r1-g")},                    // newer run
		{e("", "r2-empty"), e("b", "r2-b"), e("c", "r2-c"), tomb("f"), e("h", "r2-h")}, // older run
	}
	for _, dropTombstones := range []bool{false, true} {
		t.Run(fmt.Sprintf("dropTombstones=%v", dropTombstones), func(t *testing.T) {
			dir := t.TempDir()
			model := map[string]entry{}
			for i := len(layers) - 1; i >= 0; i-- { // oldest first: newer overwrite
				for _, ent := range layers[i] {
					model[string(ent.key)] = ent
				}
			}
			var want []entry
			for _, ent := range model {
				if !(dropTombstones && ent.tombstone) {
					want = append(want, ent)
				}
			}
			sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i].key, want[j].key) < 0 })

			var mems []*memtable
			var runs []*run
			for i, layer := range layers {
				if i < 2 {
					m := newMemtable(int64(i+1), 0)
					for _, ent := range layer {
						m.put(ent.key, ent.value, ent.tombstone)
					}
					mems = append(mems, m)
					continue
				}
				r := buildRun(t, dir, len(layers)-i, layer)
				defer r.close()
				runs = append(runs, r)
			}
			out, err := writeMergedRun(filepath.Join(dir, "run-000009.lsm"), nil, mems, runs, dropTombstones, nil, "flush:bg", runConfig{})
			if err != nil {
				t.Fatalf("writeMergedRun: %v", err)
			}
			defer out.close()
			got := runEntries(t, out)
			if len(got) != len(want) {
				t.Fatalf("run has %d entries, model %d: %+v", len(got), len(want), got)
			}
			for i := range want {
				if !bytes.Equal(got[i].key, want[i].key) || !bytes.Equal(got[i].value, want[i].value) || got[i].tombstone != want[i].tombstone {
					t.Fatalf("entry %d = %q:%q (tombstone %v), model %q:%q (tombstone %v)", i,
						got[i].key, got[i].value, got[i].tombstone, want[i].key, want[i].value, want[i].tombstone)
				}
			}
		})
	}
}

// staleKeys is a merge filter that calls the given keys stale and records
// every entry it is asked about.
type staleKeys struct {
	mu    sync.Mutex
	stale map[string]bool
	asked []string
}

func (f *staleKeys) filter(key, _ []byte) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.asked = append(f.asked, string(key))
	return f.stale[string(key)]
}

func (f *staleKeys) questions() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.asked...)
}

// TestMergeFilter: a merge — never a flush — leaves out every live entry the
// tree's merge filter calls stale, and asks it about no tombstone; with a
// filter, Merge rewrites even a tree of one segment.
func TestMergeFilter(t *testing.T) {
	f := &staleKeys{stale: map[string]bool{"s1": true, "s2": true}}
	m := &Metrics{}
	tr := openTest(t, Options{Metrics: m, Stale: f.filter})
	for _, k := range []string{"l1", "s1", "s2", "gone"} {
		if err := tr.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Delete([]byte("gone")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if asked := f.questions(); len(asked) != 0 {
		t.Fatalf("a flush asked the merge filter about %q", asked)
	}
	if n, _ := tr.Len(); n != 3 {
		t.Fatalf("after the flush the tree holds %d live keys, want 3", n)
	}
	if st := tr.Stats(); st.Runs != 1 || st.Segments != 1 {
		t.Fatalf("after one flush: %d runs, %d segments; want one", st.Runs, st.Segments)
	}
	if err := tr.Merge(); err != nil {
		t.Fatal(err)
	}
	if asked := f.questions(); fmt.Sprint(asked) != "[l1 s1 s2]" {
		t.Fatalf("the merge asked about %q, want the live entries l1, s1, s2", asked)
	}
	if n := m.StaleDropped.Value(); n != 2 || m.Merges.Value() != 1 {
		t.Fatalf("Merge ran %d merges dropping %d entries; want one merge dropping s1 and s2", m.Merges.Value(), n)
	}
	var live []string
	if err := tr.Scan(nil, nil, func(k, _ []byte) bool { live = append(live, string(k)); return true }); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(live) != "[l1]" {
		t.Fatalf("after the merge the tree holds %q, want l1", live)
	}
}

// TestMergeFilterWindowRevealsOlderCopy: a merge whose window stops short of
// the oldest run drops a stale entry only from the window, so an older copy
// of the key below it comes back into view. That copy is just as stale —
// the filter's owner refuses it at read by the same rule — and the merge
// that reaches the oldest run drops it.
func TestMergeFilterWindowRevealsOlderCopy(t *testing.T) {
	f := &staleKeys{stale: map[string]bool{"k": true}}
	m := &Metrics{}
	tr := openTest(t, Options{Metrics: m, MaxRuns: 2, Stale: f.filter})
	flush := func(kv ...string) {
		t.Helper()
		for i := 0; i < len(kv); i += 2 {
			if err := tr.Put([]byte(kv[i]), []byte(kv[i+1])); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// The oldest run is large and holds the first copy of k. Three one-entry
	// runs follow, each starting a file of its own (a key at or below the
	// newest run's last); they make a tier of three, one more than MaxRuns,
	// and no key is covered by more than two runs, so the merge takes that
	// tier and stops above the oldest run.
	var big []string
	for i := 0; i < 200; i++ {
		big = append(big, fmt.Sprintf("a%03d", i), "v")
	}
	flush(append(big, "k", "old", "z", "v")...)
	flush("k", "new")
	flush("b", "v")
	flush("a", "v")
	if st := tr.Stats(); m.Merges.Value() != 1 || st.Runs != 2 {
		t.Fatalf("%d merges left %d runs; want one merge of the three small runs", m.Merges.Value(), st.Runs)
	}
	if n := m.StaleDropped.Value(); n != 1 {
		t.Fatalf("the merge dropped %d entries, want the newer k", n)
	}
	if v, ok, err := tr.Get([]byte("k")); err != nil || !ok || string(v) != "old" {
		t.Fatalf("Get(k) = %q, %v, %v; want the older copy, old", v, ok, err)
	}
	if err := tr.Merge(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := tr.Get([]byte("k")); err != nil || ok || m.StaleDropped.Value() != 2 {
		t.Fatalf("after a full merge Get(k) = %v, %v with %d dropped; want k gone, 2 dropped", ok, err, m.StaleDropped.Value())
	}
}
