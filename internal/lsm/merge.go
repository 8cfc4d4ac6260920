package lsm

import (
	"bytes"
	"errors"
	"fmt"
)

// sortedIter is the one shape a sorted component is read through, whether it
// is a memtable (memtableIter) or a run (runIter): valid/key never fail, a
// read error parks the iterator invalid and fail() reports it, so a loop
// that drains one MUST check fail() after exhaustion.
type sortedIter interface {
	valid() bool
	key() []byte
	curr() (entry, error)
	next()
	fail() error
}

// mergedIter is the tree's one k-way merge: a newest-wins stream over
// components ordered newest first (memtables before runs, as snapshot
// orders them). Among equal keys the earliest iterator holds the version
// that counts; next() discards the older ones it shadows. Scans, flushes
// and compactions all read through it.
type mergedIter struct {
	its []sortedIter
	win int // index of the iterator holding the current entry; -1 when exhausted
}

// newMergedIter positions a merge at the first key >= from (nil: the
// start) over mems and then runs, each ordered newest first. A run whose
// upper fence lies before from has nothing to yield and is not opened; fill
// is handed to the run iterators (see run.readBlock).
func newMergedIter(mems []*memtable, runs []*run, from []byte, fill bool) *mergedIter {
	m := &mergedIter{its: make([]sortedIter, 0, len(mems)+len(runs))}
	for _, mem := range mems {
		m.its = append(m.its, mem.iter(from))
	}
	for _, r := range runs {
		if len(r.blocks) == 0 || (from != nil && bytes.Compare(r.last, from) < 0) {
			continue
		}
		m.its = append(m.its, r.iter(from, fill))
	}
	m.settle()
	return m
}

// settle finds the winner once per step: the smallest key, and among equals
// the newest (lowest-index) component.
func (m *mergedIter) settle() {
	m.win = -1
	for i, it := range m.its {
		if it.valid() && (m.win < 0 || bytes.Compare(it.key(), m.its[m.win].key()) < 0) {
			m.win = i
		}
	}
}

func (m *mergedIter) valid() bool { return m.win >= 0 }

func (m *mergedIter) curr() (entry, error) {
	if m.win < 0 {
		return entry{}, fmt.Errorf("lsm: curr on exhausted iterator")
	}
	return m.its[m.win].curr()
}

// next advances every iterator past the current key. The key aliases the
// winner's component and stays readable while the winner itself moves on:
// see runIter.curr for why.
func (m *mergedIter) next() {
	if m.win < 0 {
		return
	}
	key := m.its[m.win].key()
	for _, it := range m.its {
		for it.valid() && bytes.Equal(it.key(), key) {
			it.next()
		}
	}
	m.settle()
}

// fail reports the first sticky read error across the components.
func (m *mergedIter) fail() error {
	for _, it := range m.its {
		if err := it.fail(); err != nil {
			return err
		}
	}
	return nil
}

// writeMergedRun is the tree's one component writer: it drains a newest-wins
// merge of mems and runs (each newest first) into one segment — the first of a
// new run file at path, or, when prev is not nil, the next of prev's file, all
// of whose keys the inputs must lie above — and returns the opened run (for a
// new file, len() is the count of entries written). A
// flush passes frozen memtables and keeps tombstones, because older runs may
// still hold the keys they mask; a merge passes a window of runs and may drop
// them only when the window ends at the tree's oldest run, since only then
// does no older component remain. The bloom filter is sized by the inputs'
// pre-dedup entry total. Memory stays O(block): one block per run input plus
// the block being built, and the blocks a merge reads never evict others
// from the cache.
//
// Each entry is handed to the writer — which copies its bytes into the block
// under construction — before the merge advances, so nothing is copied here.
//
// point, when cfg carries a fault hook, names the fault point consulted
// after the entries are fully written but before the segment's index and
// header are — the most interesting instant for recovery, since the inputs
// (WAL segments or older runs) must still carry every record. ErrTornWrite
// leaves the temp file, or the headerless tail of prev's file, behind as
// crash debris for Open to sweep (the caller wedges the tree); any other
// error aborts it.
func writeMergedRun(path string, prev *run, mems []*memtable, runs []*run, dropTombstones bool, point string, cfg runConfig) (*run, error) {
	hint := 0
	for _, mem := range mems {
		hint += mem.len()
	}
	for _, r := range runs {
		hint += r.len()
	}
	rw, err := newRunWriter(path, prev, hint, cfg)
	if err != nil {
		return nil, err
	}
	src := newMergedIter(mems, runs, nil, false)
	for ; src.valid(); src.next() {
		e, err := src.curr()
		if err == nil && !(dropTombstones && e.tombstone) {
			err = rw.add(e)
		}
		if err != nil {
			_ = rw.abort()
			return nil, err
		}
	}
	// An iterator that hit a read error goes invalid exactly like an
	// exhausted one; publishing now would silently drop every entry it had
	// not yielded yet. A read error fails the run, never truncates it.
	if err := src.fail(); err != nil {
		_ = rw.abort()
		return nil, err
	}
	if cfg.fault != nil {
		if err := cfg.fault(point); err != nil {
			if errors.Is(err, ErrTornWrite) {
				_ = rw.closeBlock()
				_ = rw.w.Flush()
				_ = rw.f.Close()
			} else {
				_ = rw.abort()
			}
			return nil, err
		}
	}
	return rw.finish()
}

// tierSpread is how far apart in size two runs of one tier may be: a tier's
// largest run is at most tierSpread times its smallest. At 2 a group flush of
// two memtables still tiers with single flushes.
const tierSpread = 2

// mergePlan is the merge policy's answer for one run list, computed once
// when the list is published and read from then on by the compactor (the
// window), Flush and the kicks (debt) and Stats (debt, depth) — none of them
// compares a key.
type mergePlan struct {
	// lo, hi delimit the window runs[lo:hi] to merge next; equal when the
	// list needs no merge.
	lo, hi int
	// depth is the read depth: the largest number of runs whose fences cover
	// one key, i.e. the most runs a point read may have to open.
	depth int
	// debt is the work the policy still wants done: read depth beyond
	// maxRuns plus, for every tier, its runs beyond maxRuns. Zero exactly
	// when the window is empty.
	debt int
}

// pickMerge is the merge policy: given the fences and sizes of the runs
// (newest first) it picks the age-contiguous window to merge next. Windows
// are contiguous in age so that the output can take their place in the list
// with newest-wins order intact.
//
// Rule 1 bounds read amplification. If some key is covered by the fences of
// more than maxRuns runs, the window runs from the newest of those runs
// through the oldest run whose fences intersect their combined range: once
// that range is rewritten, every older run it shadows is where the
// reclaimable bytes are. Coverage can only rise at a run's first key, so the
// peak is found by probing those. Runs that all overlap (upserts, random
// keys) make this "merge everything once there are more than maxRuns"; runs
// of ascending keys never trigger it.
//
// Rule 2 bounds the file count where rule 1 is silent. A tier is a maximal
// stretch of age-adjacent runs within tierSpread of each other in size; a
// tier of more than maxRuns runs is merged whole, the newest such tier first.
// Equal flushes therefore climb 1 → maxRuns+1 → (maxRuns+1)² → …, an entry is
// rewritten once per level, and the list holds at most maxRuns runs per tier.
func pickMerge(spans []span, maxRuns int) mergePlan {
	var p mergePlan
	for i := 0; i < len(spans); {
		least, most := spans[i].bytes, spans[i].bytes
		j := i + 1
		for ; j < len(spans); j++ {
			lo, hi := min(least, spans[j].bytes), max(most, spans[j].bytes)
			if hi > tierSpread*lo {
				break
			}
			least, most = lo, hi
		}
		if n := j - i; n > maxRuns {
			p.debt += n - maxRuns
			if p.lo == p.hi {
				p.lo, p.hi = i, j
			}
		}
		i = j
	}

	var peak []byte
	for _, s := range spans {
		if s.bytes == 0 {
			continue
		}
		n := 0
		for _, o := range spans {
			if o.covers(s.first) {
				n++
			}
		}
		if n > p.depth {
			p.depth, peak = n, s.first
		}
	}
	if p.depth <= maxRuns {
		return p
	}
	p.debt += p.depth - maxRuns
	p.lo = -1
	var union span
	for i, s := range spans {
		switch {
		case !s.covers(peak):
		case p.lo < 0:
			p.lo, union = i, s
		default:
			union.first = minKey(union.first, s.first)
			union.last = maxKey(union.last, s.last)
		}
	}
	for i := p.lo; i < len(spans); i++ {
		if spans[i].overlaps(union) {
			p.hi = i + 1
		}
	}
	return p
}

func minKey(a, b []byte) []byte {
	if bytes.Compare(b, a) < 0 {
		return b
	}
	return a
}

func maxKey(a, b []byte) []byte {
	if bytes.Compare(b, a) > 0 {
		return b
	}
	return a
}
