package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// sp is a hand-written run for the policy tests: size and closed key range.
func sp(size int64, first, last string) span {
	return span{bytes: size, first: []byte(first), last: []byte(last)}
}

// TestPickMerge pins the merge policy on hand-written run lists (newest
// first), MaxRuns 4 throughout.
func TestPickMerge(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  mergePlan
	}{
		{"empty list", nil, mergePlan{}},
		{"disjoint equal runs within MaxRuns: nothing to do",
			[]span{sp(10, "d", "dz"), sp(10, "c", "cz"), sp(10, "b", "bz"), sp(10, "a", "az")},
			mergePlan{depth: 1}},
		{"disjoint equal runs beyond MaxRuns: the tier",
			[]span{sp(10, "e", "ez"), sp(10, "d", "dz"), sp(10, "c", "cz"), sp(10, "b", "bz"), sp(10, "a", "az")},
			mergePlan{lo: 0, hi: 5, depth: 1, debt: 1}},
		{"all overlapping at MaxRuns: nothing to do",
			[]span{sp(1, "a", "z"), sp(1, "a", "z"), sp(1, "a", "z"), sp(100, "a", "z")},
			mergePlan{depth: 4}},
		{"all overlapping at MaxRuns+1: the whole list, big old run included",
			[]span{sp(1, "a", "z"), sp(1, "b", "y"), sp(1, "a", "z"), sp(1, "c", "x"), sp(100, "a", "z")},
			mergePlan{lo: 0, hi: 5, depth: 5, debt: 1}},
		{"neighbours overlapping at their edges: no read-depth pick, the tier merges them",
			[]span{sp(10, "e", "f"), sp(10, "d", "e"), sp(10, "c", "d"), sp(10, "b", "c"), sp(10, "a", "b"), sp(1000, "0", "9")},
			mergePlan{lo: 0, hi: 5, depth: 2, debt: 1}},
		{"stack of 5 over one old big run, beside an unrelated one: window ends at the overlapped run, not the tail",
			[]span{sp(1, "m", "p"), sp(1, "m", "p"), sp(1, "n", "o"), sp(1, "m", "p"), sp(1, "m", "q"), sp(500, "k", "r"), sp(40, "a", "c")},
			mergePlan{lo: 0, hi: 6, depth: 6, debt: 2 + 1}},
		{"stack under a newer unrelated run: window starts at the newest run of the stack",
			[]span{sp(500, "x", "z"), sp(1, "m", "p"), sp(1, "m", "p"), sp(1, "m", "p"), sp(1, "m", "p"), sp(1, "m", "p"), sp(40, "a", "c")},
			mergePlan{lo: 1, hi: 6, depth: 5, debt: 1 + 1}},
		{"a run between the stack's runs is inside the window whether it overlaps or not",
			[]span{sp(1, "m", "p"), sp(1, "m", "p"), sp(300, "a", "b"), sp(1, "m", "p"), sp(1, "m", "p"), sp(1, "m", "p")},
			mergePlan{lo: 0, hi: 6, depth: 5, debt: 1}},
		{"geometric sizes: nothing to do, debt 0",
			[]span{sp(1, "j", "k"), sp(3, "h", "i"), sp(9, "f", "g"), sp(27, "d", "e"), sp(81, "b", "c"), sp(243, "a", "az")},
			mergePlan{depth: 1}},
		{"two full tiers: the newest one first, debt counts both",
			[]span{
				sp(1, "n", "nz"), sp(1, "m", "mz"), sp(2, "l", "lz"), sp(1, "k", "kz"), sp(2, "j", "jz"),
				sp(10, "i", "iz"), sp(10, "h", "hz"), sp(10, "g", "gz"), sp(10, "f", "fz"), sp(10, "e", "ez"), sp(10, "d", "dz"),
			},
			mergePlan{lo: 0, hi: 5, depth: 1, debt: 1 + 2}},
		{"a tier is within 2x: 1 and 2 tier together, 1 and 3 do not",
			[]span{sp(1, "f", "fz"), sp(2, "e", "ez"), sp(1, "d", "dz"), sp(3, "c", "cz"), sp(3, "b", "bz"), sp(3, "a", "az")},
			mergePlan{depth: 1}},
		{"empty runs cover nothing and tier only with each other",
			[]span{{}, sp(1, "a", "z"), {}, sp(1, "a", "z"), sp(1, "a", "z"), sp(1, "a", "z")},
			mergePlan{depth: 4}},
	}
	for _, c := range cases {
		got := pickMerge(c.spans, 4)
		if got != c.want {
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, got, c.want)
		}
		// Zero debt is what lets Flush return: it must mean an empty window.
		if (got.debt == 0) != (got.lo == got.hi) {
			t.Errorf("%s: debt %d with window [%d,%d)", c.name, got.debt, got.lo, got.hi)
		}
	}
}

// TestPickMergeThousandFlushes applies the policy synchronously to 1 000
// equal flushes of disjoint keys, each below the one before (ascending ones
// would extend one file and never reach the policy; see
// TestAscendingFlushesExtendOneFile): no entry is rewritten more than
// ⌈log₅ 1000⌉ = 5 times (merge-everything rewrites the first one 250 times)
// and the list never holds more than MaxRuns runs per size level.
func TestPickMergeThousandFlushes(t *testing.T) {
	const maxRuns, flushes, levels = 4, 1000, 5 // 5⁴ < 1000 ≤ 5⁵
	var spans []span
	var rewrites []int // per run: how often its entries have been through a merge
	merged, peakRuns := 0, 0
	for i := 0; i < flushes; i++ {
		spans = append([]span{sp(1, fmt.Sprintf("k%04d-a", flushes-i), fmt.Sprintf("k%04d-z", flushes-i))}, spans...)
		rewrites = append([]int{0}, rewrites...)
		for {
			p := pickMerge(spans, maxRuns)
			if p.lo == p.hi {
				break
			}
			if p.depth != 1 {
				t.Fatalf("flush %d: read depth %d over disjoint runs", i, p.depth)
			}
			out, most := span{first: spans[p.lo].first, last: spans[p.hi-1].last}, 0
			for j := p.lo; j < p.hi; j++ {
				out.bytes += spans[j].bytes
				most = max(most, rewrites[j])
			}
			merged += int(out.bytes)
			spans = append(append(append([]span(nil), spans[:p.lo]...), out), spans[p.hi:]...)
			rewrites = append(append(append([]int(nil), rewrites[:p.lo]...), most+1), rewrites[p.hi:]...)
			if most+1 > levels {
				t.Fatalf("flush %d: an entry was rewritten %d times, want <= %d", i, most+1, levels)
			}
		}
		peakRuns = max(peakRuns, len(spans))
	}
	if peakRuns > maxRuns*levels {
		t.Fatalf("run list reached %d runs, want <= MaxRuns x levels = %d", peakRuns, maxRuns*levels)
	}
	if amp := float64(merged) / flushes; amp > levels {
		t.Fatalf("%.2f merge passes per flushed entry, want <= %d", amp, levels)
	}
	t.Logf("1000 flushes: %.2f merge passes per entry, at most %d runs", float64(merged)/flushes, peakRuns)
}

// youngOverOld builds the shape a partial merge must get right, in a tree
// with the default MaxRuns 4: one large old run holding key-00000..00999,
// then five small flushes of fresh higher keys, the first of which also
// deletes key-00500 — so it cannot extend the old run — and each of the rest
// lies below the one before. The five are one tier, so the policy merges
// exactly them; the old run is 30 times their size and stays out of the
// window, and no key is covered by more than two runs. Returns after the
// fifth Flush.
func youngOverOld(t *testing.T, tr *Tree) error {
	t.Helper()
	fill(t, tr, 0, 1000, strings.Repeat("o", 100))
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 5; batch++ {
		fill(t, tr, 2000+30*(4-batch), 30, "y")
		if batch == 0 {
			if err := tr.Delete([]byte("key-00500")); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func wantYoungOverOld(t *testing.T, tr *Tree, how string) {
	t.Helper()
	if _, ok, err := tr.Get([]byte("key-00500")); err != nil || ok {
		t.Fatalf("%s: deleted key-00500 is back (ok=%v err=%v): the merge dropped a tombstone that still masks an older run", how, ok, err)
	}
	if n, err := tr.Len(); err != nil || n != 999+150 {
		t.Fatalf("%s: Len = %d, %v; want %d", how, n, err, 999+150)
	}
	wantAll(t, tr, 0, 500, strings.Repeat("o", 100))
	wantAll(t, tr, 501, 499, strings.Repeat("o", 100))
	wantAll(t, tr, 2000, 150, "y")
}

// TestPartialMergeKeepsDeletes: a key put in an old large run and deleted in
// a young run that a tier merge rewrites without reaching the old run must
// stay deleted — after the merge and after a reopen. Only a window that ends
// at the oldest run may drop tombstones.
func TestPartialMergeKeepsDeletes(t *testing.T) {
	dir := t.TempDir()
	m := &Metrics{}
	tr, err := Open(Options{Dir: dir, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { tr.Close() }()
	if err := youngOverOld(t, tr); err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); m.Merges.Value() != 1 || st.Runs != 2 {
		t.Fatalf("%d merges left %d runs; the test needs one merge of the five young runs beside the old one", m.Merges.Value(), st.Runs)
	}
	wantYoungOverOld(t, tr, "after the merge")

	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr, err = Open(Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.Runs != 2 {
		t.Fatalf("after a reopen: %d runs, want the merge output and the old run", st.Runs)
	}
	wantYoungOverOld(t, tr, "after a reopen")
}

// TestCrashDuringPartialMergeRecoversExactly tears a merge whose window
// stops short of the oldest run (the crash tests before it only ever tore a
// merge of everything): the tree wedges with the output's temp file on
// disk, and a reopen finds every input intact, the delete still in force,
// and the debris swept.
func TestCrashDuringPartialMergeRecoversExactly(t *testing.T) {
	dir := t.TempDir()
	tr, err := Open(Options{Dir: dir, SyncWAL: 1, FaultHook: hookOn("merge:bg", 1, ErrTornWrite)})
	if err != nil {
		t.Fatal(err)
	}
	if err := youngOverOld(t, tr); !errors.Is(err, ErrTornWrite) {
		t.Fatalf("fifth Flush = %v, want the wedge from the torn merge", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "run-*.lsm.tmp")); len(tmps) != 1 {
		t.Fatalf("torn merge left debris %v, want one merge output temp", tmps)
	}

	m := &Metrics{}
	re, err := Open(Options{Dir: dir, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	wantYoungOverOld(t, re, "reopen after the torn merge")
	// The recovered tree redoes the merge it lost (Open kicks the compactor,
	// so the temp file may already be back by now), and gets it right again.
	if err := re.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := re.Stats(); m.Merges.Value() != 1 || st.Runs != 2 {
		t.Fatalf("recovered tree: %d merges, %d runs; want the partial merge redone", m.Merges.Value(), st.Runs)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "run-*.lsm.tmp")); len(tmps) != 0 {
		t.Fatalf("reopen left debris behind: %v", tmps)
	}
	wantYoungOverOld(t, re, "after the redone merge")
}

// TestWriteAmplificationBounded is the clock-free guard on the merge
// policy's cost. Fresh ascending keys — what a feed of time-ordered ids
// gives every partition — must not be rewritten at all: each of 200 flushes
// extends the one run file, and no merge ever runs. The same 200 flushes
// rewriting one keyspace do deepen every read, so they are merged down to
// MaxRuns runs as before.
func TestWriteAmplificationBounded(t *testing.T) {
	const flushes, perFlush = 200, 40
	load := func(t *testing.T, key func(flush, i int) string) (Stats, *Metrics, string) {
		m := &Metrics{}
		tr := openTest(t, Options{MemtableBytes: 64 << 10, Metrics: m})
		val := bytes.Repeat([]byte{'v'}, 100)
		for f := 0; f < flushes; f++ {
			for i := 0; i < perFlush; i++ {
				if err := tr.Put([]byte(key(f, i)), val); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if got := m.FlushedEntries.Value(); got != flushes*perFlush {
			t.Fatalf("flushed %d entries, want %d", got, flushes*perFlush)
		}
		return tr.Stats(), m, tr.opt.Dir
	}
	t.Run("ascending", func(t *testing.T) {
		st, m, dir := load(t, func(f, i int) string { return fmt.Sprintf("key-%04d-%03d", f, i) })
		if m.Merges.Value() != 0 || m.MergedEntries.Value() != 0 {
			t.Fatalf("%d merges read %d entries; ascending flushes must never be rewritten", m.Merges.Value(), m.MergedEntries.Value())
		}
		if st.Runs != 1 || st.Segments != flushes || m.Extends.Value() != flushes-1 || st.ReadDepth != 1 {
			t.Fatalf("%d runs of %d segments after %d extends, read depth %d; want 1 run of %d segments", st.Runs, st.Segments, m.Extends.Value(), st.ReadDepth, flushes)
		}
		globOne(t, dir, "run-*.lsm")
	})
	t.Run("one keyspace", func(t *testing.T) {
		st, m, _ := load(t, func(_, i int) string { return fmt.Sprintf("key-%03d", i) })
		if m.Extends.Value() != 0 {
			t.Fatalf("%d flushes of keys the newest run already holds extended it", m.Extends.Value())
		}
		if st.Runs > 4 || st.ReadDepth > 4 {
			t.Fatalf("%d runs, read depth %d; want both <= MaxRuns", st.Runs, st.ReadDepth)
		}
		if st.RunEntries > 4*perFlush {
			t.Fatalf("%d entries on disk for %d live keys", st.RunEntries, perFlush)
		}
	})
}

// TestMergeLeavesBlockCacheAlone: a merge reads every block of its inputs
// once and then deletes them, so those reads must not push out the blocks
// lookups are using. Blocks made hot before a merge of other runs still hit
// afterwards, and nothing was evicted to make room for the merge.
func TestMergeLeavesBlockCacheAlone(t *testing.T) {
	cache := NewBlockCache(256 << 10)
	m := &Metrics{}
	tr := openTest(t, Options{BlockCache: cache, BlockBytes: 1 << 10, Metrics: m})
	val := bytes.Repeat([]byte{'v'}, 100)
	// One old run of some 35 KiB, read until all of it is resident.
	fill(t, tr, 50000, 300, string(val))
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	wantAll(t, tr, 50000, 300, string(val))
	// Five younger runs of about 100 KiB each — twice the cache between
	// them, and a tier apart from the old run, which the merge leaves out.
	// Each lies below the run before it, so none is an extension of it.
	for batch := 0; batch < 5; batch++ {
		fill(t, tr, 10000+1000*(4-batch), 900, string(val))
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if st := tr.Stats(); m.Merges.Value() != 1 || st.Runs != 2 {
		t.Fatalf("%d merges left %d runs; the test needs one merge of the five young runs", m.Merges.Value(), st.Runs)
	}
	if ev := cache.Stats().Evictions; ev != 0 {
		t.Fatalf("the merge evicted %d blocks", ev)
	}
	reads := m.BlockReads.Value()
	wantAll(t, tr, 50000, 300, string(val))
	if got := m.BlockReads.Value() - reads; got != 0 {
		t.Fatalf("%d disk reads for blocks that were hot before the merge", got)
	}
}
