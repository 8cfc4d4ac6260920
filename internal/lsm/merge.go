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
// start) over mems and then runs, each ordered newest first.
func newMergedIter(mems []*memtable, runs []*run, from []byte) *mergedIter {
	m := &mergedIter{its: make([]sortedIter, 0, len(mems)+len(runs))}
	for _, mem := range mems {
		m.its = append(m.its, mem.iter(from))
	}
	for _, r := range runs {
		m.its = append(m.its, r.iter(from))
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
// merge of mems and runs (each newest first) into a new run file at path and
// returns the opened run (whose len() is the count of entries written). A
// flush passes frozen memtables and keeps tombstones, because older runs may
// still hold the keys they mask; a full merge passes every run and drops
// them, since no older component remains. The bloom filter is sized by the
// inputs' pre-dedup entry total. Memory stays O(block): one block per run
// input plus the block being built.
//
// Each entry is handed to the writer — which copies its bytes into the block
// under construction — before the merge advances, so nothing is copied here.
//
// point, when cfg carries a fault hook, names the fault point consulted
// after the entries are fully written but before the rename publishes the
// file — the most interesting instant for recovery, since the inputs (WAL
// segments or older runs) must still carry every record. ErrTornWrite
// leaves the temp file behind as crash debris for Open to sweep (the caller
// wedges the tree); any other error aborts it.
func writeMergedRun(path string, mems []*memtable, runs []*run, dropTombstones bool, point string, cfg runConfig) (*run, error) {
	hint := 0
	for _, mem := range mems {
		hint += mem.len()
	}
	for _, r := range runs {
		hint += r.len()
	}
	rw, err := newRunWriter(path, hint, cfg)
	if err != nil {
		return nil, err
	}
	src := newMergedIter(mems, runs, nil)
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
