package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/lsm"
)

// Partition is one hash partition of a dataset: a primary LSM tree keyed by
// encoded primary key, plus one LSM tree per secondary index. All trees for
// a partition live under one directory on the hosting node.
//
// Readers take no partition lock, and their consistency is per record, as
// AsterixDB's is. Each tree applies a frame's batch atomically, so a Lookup
// sees a frame all or nothing. Scan, Count and the index searches walk a
// tree beside the writers: they see each record in one committed version,
// every record no concurrent frame touches, and a record a concurrent frame
// inserts, deletes or moves to another index key perhaps not at all.
//
// Writes are blind: a frame puts its records' primary and secondary entries
// and reads nothing, so a record it replaces, and a Delete, leave that
// version's secondary entries behind. Whether an index entry is live is
// decided by one rule, read now: the primary record its primary key names
// produces exactly the entry's key (see liveEntry). The searches refuse
// every hit the rule calls stale, and each secondary tree's merge filter
// drops such entries for good. Both rest on one invariant of the write
// path: a frame reaches the primary before any secondary, so an entry a
// frame writes is never newer than the primary record that makes it live.
type Partition struct {
	ds  *Dataset
	idx int

	// mu serializes the writers — InsertFrame and Delete — and gives
	// VerifyIndexes, Flush and Close a cut that no frame is halfway through.
	// No reader takes it.
	mu          sync.Mutex
	primary     *lsm.Tree
	secondaries map[string]*lsm.Tree // fixed at open
	// opened is set once every tree is: the secondaries' merge filters,
	// which may run while their partition still opens, read primary only
	// after it.
	opened atomic.Bool
	closed atomic.Bool
	frame  frameScratch // reusable InsertFrame state, guarded by mu
}

// errPartitionClosed is what every operation on a closed partition returns.
var errPartitionClosed = errors.New("storage: partition closed")

// encFieldRef is one (name, encoded value) pair captured while scanning a
// serialized record; both slices alias the record's bytes.
type encFieldRef struct {
	name, enc []byte
}

// frameScratch is per-partition scratch reused across InsertFrame calls so
// the steady-state frame path allocates only what the memtable retains by
// reference — not per-call bookkeeping, and not keys, which the trees copy.
// A reader that applies the liveness rule uses one of its own, for keys.
type frameScratch struct {
	fields []encFieldRef // field scan of the current record
	pks    [][]byte      // per-record encoded primary key
	skeys  [][]byte      // per-record secondary keys, flattened nIdx per record
	keys   []byte        // bytes of the keys the trees copy
	prim   *lsm.Batch
	sec    []*lsm.Batch // parallel to ds.Indexes
}

// release drops references retained from the last frame while keeping
// slice capacity for the next call. The trees hold copies of the keys, so
// the key bytes are reused.
func (fs *frameScratch) release() {
	clear(fs.fields)
	fs.fields = fs.fields[:0]
	clear(fs.pks)
	fs.pks = fs.pks[:0]
	clear(fs.skeys)
	fs.skeys = fs.skeys[:0]
	fs.keys = fs.keys[:0]
	fs.prim.Reset()
	for _, b := range fs.sec {
		b.Reset()
	}
}

// secondaryKey builds in fs.keys the key that the package function
// secondaryKey builds from a decoded record, but from the encoded value of
// the indexed field. nil means the field is absent/null and the record is
// simply not indexed.
func (fs *frameScratch) secondaryKey(ix IndexDecl, encField, pk []byte) ([]byte, error) {
	if len(encField) == 0 {
		return nil, nil
	}
	tag := adm.TypeTag(encField[0])
	if tag == adm.TagNull || tag == adm.TagMissing {
		return nil, nil
	}
	at := len(fs.keys)
	switch ix.Kind {
	case BTree:
		fs.keys = append(fs.keys, encField...)
	case RTree:
		pt, ok := encodedPoint(encField)
		if !ok {
			return nil, fmt.Errorf("storage: rtree index %q over non-point value %s", ix.Name, tag)
		}
		fs.keys = appendCellPrefix(fs.keys, cellOf(pt))
		fs.keys = binary.BigEndian.AppendUint64(fs.keys, math.Float64bits(pt.X))
		fs.keys = binary.BigEndian.AppendUint64(fs.keys, math.Float64bits(pt.Y))
	default:
		return nil, fmt.Errorf("storage: unknown index kind %d", ix.Kind)
	}
	fs.keys = append(fs.keys, pk...)
	return fs.keys[at:len(fs.keys):len(fs.keys)], nil
}

// encodedPoint reads the point an encoded value holds; ok is false for any
// other value.
func encodedPoint(enc []byte) (pt adm.Point, ok bool) {
	if len(enc) < 17 || adm.TypeTag(enc[0]) != adm.TagPoint {
		return adm.Point{}, false
	}
	return adm.Point{
		X: math.Float64frombits(binary.LittleEndian.Uint64(enc[1:9])),
		Y: math.Float64frombits(binary.LittleEndian.Uint64(enc[9:17])),
	}, true
}

// collect appends one top-level field of the current record to fields.
func (fs *frameScratch) collect(name, enc []byte) {
	fs.fields = append(fs.fields, encFieldRef{name: name, enc: enc})
}

// add validates rec as a record of ds, collecting its fields in the same
// walk, and appends its keys to pks and skeys, all built in the keys scratch.
// The trees copy their keys, but every secondary entry keeps its record's
// primary key as its value: on an indexed dataset, keepPrimaryKeys moves the
// frame's primary keys out of the scratch once every record is added.
func (fs *frameScratch) add(ds *Dataset, rec []byte) error {
	fs.fields = fs.fields[:0]
	if err := ds.Type.ValidateFields(rec, fs.collect); err != nil {
		return err
	}
	at := len(fs.keys)
	var err error
	if fs.keys, err = appendPrimaryKey(fs.keys, ds, fs.fields); err != nil {
		return err
	}
	pk := fs.keys[at:len(fs.keys):len(fs.keys)]
	fs.pks = append(fs.pks, pk)
	for _, ix := range ds.Indexes {
		skey, err := fs.secondaryKey(ix, findField(fs.fields, ix.Field), pk)
		if err != nil {
			return err
		}
		fs.skeys = append(fs.skeys, skey)
	}
	return nil
}

// keepPrimaryKeys copies the frame's primary keys into one allocation of
// exactly their size, cut with full slice expressions, for the secondary
// entries to keep as their values: one allocation per frame, holding that
// frame's keys and no other's.
func (fs *frameScratch) keepPrimaryKeys() {
	n := 0
	for _, pk := range fs.pks {
		n += len(pk)
	}
	kept := make([]byte, 0, n)
	for i, pk := range fs.pks {
		at := len(kept)
		kept = append(kept, pk...)
		fs.pks[i] = kept[at:len(kept):len(kept)]
	}
}

// openPartition opens (creating if needed) partition idx of ds under dir.
// When lsmOpt carries a FaultHook, each tree's failure points are prefixed
// with "<partition-dir>/<tree>/" (e.g. "p001/primary/wal.appendBatch") so a
// fault-injection harness can target one tree of one partition.
func openPartition(ds *Dataset, idx int, dir string, lsmOpt lsm.Options) (*Partition, error) {
	p := &Partition{ds: ds, idx: idx, secondaries: make(map[string]*lsm.Tree)}
	p.frame = frameScratch{prim: lsm.NewBatch(0)}
	for range ds.Indexes {
		p.frame.sec = append(p.frame.sec, lsm.NewBatch(0))
	}
	label := filepath.Base(dir)
	// The primary and every secondary tree recover independently (separate
	// directories, separate WALs), so open them concurrently: a partition's
	// reopen cost is its slowest tree's recovery, not the sum.
	treeOpt := func(sub, hook string) lsm.Options {
		o := lsmOpt
		o.Dir = filepath.Join(dir, sub)
		o.FaultHook = prefixHook(lsmOpt.FaultHook, label+"/"+hook+"/")
		return o
	}
	trees := make([]*lsm.Tree, 1+len(ds.Indexes))
	errs := make([]error, len(trees))
	done := make(chan struct{}, len(trees))
	open := func(slot int, opt lsm.Options) {
		trees[slot], errs[slot] = lsm.Open(opt)
		done <- struct{}{} // buffered to len(trees): never blocks
	}
	go open(0, treeOpt("primary", "primary"))
	for i, ix := range ds.Indexes {
		o := treeOpt("idx-"+ix.Name, ix.Name)
		o.Stale = p.staleFilter(ix)
		go open(1+i, o)
	}
	for range trees {
		<-done
	}
	p.primary = trees[0]
	for i, ix := range ds.Indexes {
		if trees[1+i] != nil {
			p.secondaries[ix.Name] = trees[1+i]
		}
	}
	for _, err := range errs {
		if err != nil {
			_ = p.Close() // releases whichever trees did open
			return nil, err
		}
	}
	p.opened.Store(true)
	return p, nil
}

// staleFilter is the merge filter of ix's secondary tree (lsm.Options.Stale):
// it drops an entry the liveness rule calls stale, and keeps it when the
// rule cannot be applied — a probe error, or a primary not yet open or
// already closed (Close closes it last). Dropping is safe at any moment: a
// frame that makes the entry live again writes it again, after the primary.
// The tree's one compactor is its only caller, so one scratch serves it, and
// a probe allocates nothing.
func (p *Partition) staleFilter(ix IndexDecl) func(key, pk []byte) bool {
	var fs frameScratch
	return func(key, pk []byte) bool {
		if !p.opened.Load() {
			return false
		}
		live, err := p.liveEntry(&fs, ix, key, pk, nil)
		return err == nil && !live
	}
}

// prefixHook narrows a manager-wide fault hook to one tree by prefixing
// every failure-point name. It owns the nil contract: a nil hook maps to a
// nil hook, so the returned closure only ever wraps a non-nil h.
func prefixHook(h lsm.FaultHook, prefix string) lsm.FaultHook {
	if h == nil {
		return nil
	}
	return func(op string) error { return h(prefix + op) }
}

// Index reports this partition's index within the nodegroup.
func (p *Partition) Index() int { return p.idx }

// InsertFrame is the partition's one write path: a frame of N >= 1
// serialized records becomes one batched write per index. Every record is
// validated and keyed straight from its bytes (no decode, no re-encode),
// then the primary tree and each secondary tree receive a single lsm.Batch —
// one lock acquisition, one WAL record, and at most one fsync per tree for
// the entire frame (group commit).
//
// Validation and key extraction complete for the whole frame before any
// tree is touched, so a frame with records that fail them is refused, with
// the partition unmodified, by a *DataError that names every such record.
// Within a frame, a later record with the same primary key replaces an
// earlier one, exactly as two one-record frames would. The write is blind:
// nothing is read, and the secondary entries of a version the frame
// replaces stay behind, stale (see Partition). So a frame that failed
// midway converges when retried: it puts the same entries again. The
// partition retains the record byte slices; callers must not reuse the
// record bytes afterwards.
func (p *Partition) InsertFrame(recs [][]byte) error {
	if len(recs) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return errPartitionClosed
	}
	fs := &p.frame
	defer fs.release()

	// Phase A: validate every record and derive all keys, mutating nothing.
	// It goes on past a refused record, to name every one.
	var refused []Refusal
	for i, rec := range recs {
		if err := fs.add(p.ds, rec); err != nil {
			refused = append(refused, Refusal{Pos: i, Err: err})
		}
	}
	if refused != nil {
		return &DataError{Refused: refused}
	}
	if len(p.ds.Indexes) > 0 {
		fs.keepPrimaryKeys()
	}

	// Phase B: build one batch per tree and apply them.
	nIdx := len(p.ds.Indexes)
	for i, rec := range recs {
		pk := fs.pks[i]
		fs.prim.Put(pk, rec)
		for j := 0; j < nIdx; j++ {
			if skey := fs.skeys[i*nIdx+j]; skey != nil {
				fs.sec[j].Put(skey, pk)
			}
		}
	}
	// The primary first, then the secondaries: the invariant the liveness
	// rule rests on (see Partition). p.mu spans every tree's group-commit
	// fsync, so the partition's writers accept stalling on the trees' disks.
	// Readers never take p.mu; they wait on no fsync and no frame.
	//feedlint:allow lockorder -- p.mu serializes writers only: it guards the frame scratch and keeps each frame's applies in order
	if err := p.primary.ApplyBatch(fs.prim); err != nil {
		return err
	}
	for j, ix := range p.ds.Indexes {
		if err := p.secondaries[ix.Name].ApplyBatch(fs.sec[j]); err != nil {
			return err
		}
	}
	return nil
}

// findField returns the encoded value of the named field from a scanned
// field list, or nil when absent.
func findField(fields []encFieldRef, name string) []byte {
	for _, f := range fields {
		if string(f.name) == name {
			return f.enc
		}
	}
	return nil
}

// appendPrimaryKey appends to dst the raw encoded primary key fields,
// concatenated — byte-identical to Dataset.PrimaryKeyOf on the decoded
// record, because each value has one encoding: adm.SkipValue, whose verdict
// the record walk of ValidateFields takes, refuses any bytes AppendValue
// would not write. It grows dst at most once — exactly, when dst is nil —
// and on error returns dst unchanged.
func appendPrimaryKey(dst []byte, ds *Dataset, fields []encFieldRef) ([]byte, error) {
	total := 0
	for _, f := range ds.PrimaryKey {
		enc := findField(fields, f)
		if enc == nil || adm.TypeTag(enc[0]) == adm.TagMissing || adm.TypeTag(enc[0]) == adm.TagNull {
			return dst, fmt.Errorf("storage: record lacks primary key field %q", f)
		}
		total += len(enc)
	}
	if cap(dst)-len(dst) < total {
		dst = append(make([]byte, 0, 2*cap(dst)+total), dst...)
	}
	for _, f := range ds.PrimaryKey {
		dst = append(dst, findField(fields, f)...)
	}
	return dst, nil
}

// Delete removes the record with the given primary key fields: one primary
// tombstone, written blind like a frame. The record's secondary entries stay
// behind, stale (see Partition).
func (p *Partition) Delete(pkValues []adm.Value) error {
	pk, err := p.primaryKey(nil, pkValues)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return errPartitionClosed
	}
	return p.primary.Delete(pk)
}

// primaryKey appends to dst the encoded primary key fields of one record,
// refusing a number of fields the dataset's key does not have.
func (p *Partition) primaryKey(dst []byte, pkValues []adm.Value) ([]byte, error) {
	if len(pkValues) != len(p.ds.PrimaryKey) {
		return nil, fmt.Errorf("storage: %d key values for %d-field primary key", len(pkValues), len(p.ds.PrimaryKey))
	}
	for _, v := range pkValues {
		dst = adm.AppendValue(dst, v)
	}
	return dst, nil
}

// Lookup returns the record with the given primary key fields. It takes no
// partition lock: the decode, too, runs beside the writers. The record is
// decoded inside the tree's point read, from the stored bytes in place, and
// keeps none of them: the decode's own copy is the only one. The key is
// built on the stack, so a Lookup allocates only what DecodeOne does.
func (p *Partition) Lookup(pkValues []adm.Value) (*adm.Record, bool, error) {
	var key [64]byte
	pk, err := p.primaryKey(key[:0], pkValues)
	if err != nil {
		return nil, false, err
	}
	var rec *adm.Record
	var decodeErr error
	ok, err := p.primary.View(pk, func(val []byte) { rec, decodeErr = decodeStored(val) })
	if err != nil || !ok {
		return nil, false, p.readErr(err)
	}
	return rec, decodeErr == nil, decodeErr
}

// readErr reports a tree's read error, as errPartitionClosed once the
// partition is closed: a reader that raced Close sees the closed tree's
// error, and reports what the partition's other operations do.
func (p *Partition) readErr(err error) error {
	if err != nil && p.closed.Load() {
		return errPartitionClosed
	}
	return err
}

// decodeStored decodes a value read from the primary tree, which must be a
// record: anything else is corruption, reported rather than asserted.
func decodeStored(val []byte) (*adm.Record, error) {
	v, err := adm.DecodeOne(val)
	if err != nil {
		return nil, err
	}
	rec, ok := v.(*adm.Record)
	if !ok {
		return nil, fmt.Errorf("storage: stored value is %s, not a record", v.Tag())
	}
	return rec, nil
}

// Scan invokes fn for every record in the partition in primary key order.
// fn returning false stops early. Frames applied during the scan may or may
// not be seen (see Partition).
func (p *Partition) Scan(fn func(rec *adm.Record) bool) error {
	var scanErr error
	err := p.primary.Scan(nil, nil, func(_, val []byte) bool {
		rec, err := decodeStored(val)
		if err != nil {
			scanErr = err
			return false
		}
		return fn(rec)
	})
	if scanErr != nil {
		return scanErr
	}
	return p.readErr(err)
}

// Count reports the number of live records.
func (p *Partition) Count() (int, error) {
	n, err := p.primary.Len()
	return n, p.readErr(err)
}

// liveEntry is the one rule that decides whether the entry key → pk of
// index ix is live: the primary record pk names, read now, produces exactly
// key (frameScratch.secondaryKey on the stored bytes). An entry of a version
// since replaced or deleted is stale, and so is one read before its frame's
// primary write was. When the entry is live and fn is not nil, fn is handed
// the stored record, which it may read only until it returns. fs is the
// caller's scratch for the key; the read allocates nothing.
func (p *Partition) liveEntry(fs *frameScratch, ix IndexDecl, key, pk []byte, fn func(stored []byte) error) (live bool, err error) {
	_, verr := p.primary.View(pk, func(stored []byte) {
		var enc []byte
		if _, err = adm.ScanRecordFields(stored, func(name, v []byte) bool {
			if string(name) != ix.Field {
				return true
			}
			enc = v
			return false
		}); err != nil {
			return
		}
		fs.keys = fs.keys[:0]
		var skey []byte
		if skey, err = fs.secondaryKey(ix, enc, pk); err != nil || skey == nil || !bytes.Equal(skey, key) {
			return
		}
		live = true
		if fn != nil {
			err = fn(stored)
		}
	})
	if verr != nil {
		return false, verr
	}
	return live && err == nil, err
}

// indexed returns the record an index search's hit key → pk names, or nil
// when the liveness rule calls the entry stale: without p.mu a frame may
// have replaced the record after the entry was read, or the entry may be a
// replaced version's that no merge has dropped yet.
func (p *Partition) indexed(fs *frameScratch, ix IndexDecl, key, pk []byte) (rec *adm.Record, err error) {
	_, err = p.liveEntry(fs, ix, key, pk, func(stored []byte) error {
		rec, err = decodeStored(stored)
		return err
	})
	return rec, err
}

// SearchBTree returns the records whose indexed field equals value, using
// the named btree index: each hit is checked to be live (see indexed). A
// live key starts with the stored field's encoding, and no encoded value is
// a proper prefix of another, so the stored field equals value.
func (p *Partition) SearchBTree(indexName string, value adm.Value) ([]*adm.Record, error) {
	ix, ok := p.ds.Index(indexName)
	if !ok || ix.Kind != BTree {
		return nil, fmt.Errorf("storage: no btree index %q on %s", indexName, p.ds.QualifiedName())
	}
	t := p.secondaries[indexName]
	prefix := adm.Encode(value)
	upper := prefixUpperBound(prefix)
	var fs frameScratch
	var out []*adm.Record
	var innerErr error
	err := t.Scan(prefix, upper, func(key, pk []byte) bool {
		rec, err := p.indexed(&fs, ix, key, pk)
		if err != nil {
			innerErr = err
			return false
		}
		if rec != nil {
			out = append(out, rec)
		}
		return true
	})
	if innerErr != nil {
		return nil, p.readErr(innerErr)
	}
	return out, p.readErr(err)
}

// SearchRTree returns records whose indexed point field lies within rect,
// using the named rtree index: a hit whose key's point lies in rect is
// checked to be live (see indexed), so the stored point is that one. A
// record a frame moves while the search runs — between cells or within one
// — may be met at both its keys and live at each when met; it is returned
// once.
func (p *Partition) SearchRTree(indexName string, rect adm.Rectangle) ([]*adm.Record, error) {
	ix, ok := p.ds.Index(indexName)
	if !ok || ix.Kind != RTree {
		return nil, fmt.Errorf("storage: no rtree index %q on %s", indexName, p.ds.QualifiedName())
	}
	t := p.secondaries[indexName]
	var fs frameScratch
	seen := make(map[string]bool)
	var out []*adm.Record
	var innerErr error
	for _, cell := range cellsCovering(rect) {
		prefix := appendCellPrefix(nil, cell)
		upper := prefixUpperBound(prefix)
		err := t.Scan(prefix, upper, func(key, pk []byte) bool {
			pt, ok := pointFromRTreeKey(key)
			if !ok || !rect.Contains(pt) || seen[string(pk)] {
				return true
			}
			rec, err := p.indexed(&fs, ix, key, pk)
			if err != nil {
				innerErr = err
				return false
			}
			if rec != nil {
				out = append(out, rec)
				seen[string(pk)] = true
			}
			return true
		})
		if innerErr != nil {
			return nil, p.readErr(innerErr)
		}
		if err != nil {
			return nil, p.readErr(err)
		}
	}
	return out, nil
}

// VerifyIndexes is CheckIndexes for a caller that wants only the verdict.
func (p *Partition) VerifyIndexes() error {
	_, err := p.CheckIndexes()
	return err
}

// CheckIndexes cross-checks primary/secondary consistency: every stored
// record must have exactly its expected entry in every secondary tree,
// mapping back to its primary key, and every entry's key must end with its
// value, the primary key it names. The entries beyond the expected ones are
// stale — by design, until a merge drops them (see Partition) — and are
// counted, not refused. Full scan per tree — intended for test harnesses
// and invariant checkers, not the hot path.
func (p *Partition) CheckIndexes() (stale int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return 0, errPartitionClosed
	}
	expect := make(map[string]int, len(p.ds.Indexes))
	var checkErr error
	err = p.primary.Scan(nil, nil, func(pk, val []byte) bool {
		rec, err := decodeStored(val)
		if err != nil {
			checkErr = err
			return false
		}
		for _, ix := range p.ds.Indexes {
			skey, present, err := secondaryKey(ix, rec, pk)
			if err != nil {
				checkErr = err
				return false
			}
			if !present {
				continue
			}
			got, found, err := p.secondaries[ix.Name].Get(skey)
			if err != nil {
				checkErr = err
				return false
			}
			if !found {
				checkErr = fmt.Errorf("storage: index %q missing entry for pk %x", ix.Name, pk)
				return false
			}
			if string(got) != string(pk) {
				checkErr = fmt.Errorf("storage: index %q entry for pk %x points at %x", ix.Name, pk, got)
				return false
			}
			expect[ix.Name]++
		}
		return true
	})
	if checkErr != nil {
		return 0, checkErr
	}
	if err != nil {
		return 0, err
	}
	for _, ix := range p.ds.Indexes {
		n := 0
		err := p.secondaries[ix.Name].Scan(nil, nil, func(key, pk []byte) bool {
			if len(key) <= len(pk) || !bytes.HasSuffix(key, pk) {
				checkErr = fmt.Errorf("storage: index %q entry %x does not end with its primary key %x", ix.Name, key, pk)
				return false
			}
			n++
			return true
		})
		if checkErr != nil {
			return 0, checkErr
		}
		if err != nil {
			return 0, err
		}
		stale += n - expect[ix.Name]
	}
	return stale, nil
}

// Flush flushes the primary and secondary trees to disk.
func (p *Partition) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return nil
	}
	// Flush must see a quiesced partition: p.mu keeps writers out while
	// every tree drains its background pipeline. The trees never hold a
	// lock into a blocking primitive here — Tree.Flush waits on
	// close-signaled channels — so no lockorder waiver is needed anymore.
	if err := p.primary.Flush(); err != nil {
		return err
	}
	for _, t := range p.secondaries {
		if err := t.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Stats aggregates LSM component statistics across the partition's primary
// and secondary trees. It does not take p.mu — the trees are fixed at open
// and Tree.Stats takes only its tree's read lock — so the governor and the
// metrics scrape never queue behind an InsertFrame waiting on an fsync or a
// write stall: the reader that is supposed to notice a backed-up LSM must
// not block on it.
func (p *Partition) Stats() lsm.Stats {
	if p.closed.Load() {
		return lsm.Stats{}
	}
	out := p.primary.Stats()
	for _, t := range p.secondaries {
		out.Add(t.Stats())
	}
	return out
}

// Close releases the partition's trees.
func (p *Partition) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return nil
	}
	p.closed.Store(true)
	// The secondaries first: a merge filter probes the primary until its
	// tree's compactor has stopped.
	var first error
	for _, t := range p.secondaries {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	if p.primary != nil {
		if err := p.primary.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// secondaryKey builds the secondary index key for rec: the indexed field's
// encoding (or grid cell for rtree) concatenated with the primary key, so
// duplicate field values remain distinct entries. ok=false means the field
// is absent/null and the record is simply not indexed. The write path keys
// from encoded bytes (frameScratch.secondaryKey); this decode-side derivation is
// VerifyIndexes' independent statement of what that must have produced.
func secondaryKey(ix IndexDecl, rec *adm.Record, pk []byte) (key []byte, ok bool, err error) {
	v, present := rec.Field(ix.Field)
	if !present || v.Tag() == adm.TagNull || v.Tag() == adm.TagMissing {
		return nil, false, nil
	}
	switch ix.Kind {
	case BTree:
		key = adm.Encode(v)
	case RTree:
		pt, isPt := v.(adm.Point)
		if !isPt {
			return nil, false, fmt.Errorf("storage: rtree index %q over non-point value %s", ix.Name, v.Tag())
		}
		key = appendCellPrefix(nil, cellOf(pt))
		// Embed the exact point for in-index filtering.
		var buf [16]byte
		binary.BigEndian.PutUint64(buf[0:], math.Float64bits(pt.X))
		binary.BigEndian.PutUint64(buf[8:], math.Float64bits(pt.Y))
		key = append(key, buf[:]...)
	default:
		return nil, false, fmt.Errorf("storage: unknown index kind %d", ix.Kind)
	}
	return append(key, pk...), true, nil
}

// prefixUpperBound returns the smallest byte string greater than every
// string with the given prefix, or nil when no such bound exists.
func prefixUpperBound(prefix []byte) []byte {
	up := append([]byte(nil), prefix...)
	for i := len(up) - 1; i >= 0; i-- {
		if up[i] != 0xFF {
			up[i]++
			return up[:i+1]
		}
	}
	return nil
}
